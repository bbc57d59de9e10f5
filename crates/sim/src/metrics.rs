//! Metrics collection: throughput, delay, and time-accounting breakdowns.
//!
//! The paper's parametric graphs plot *mean throughput* against *mean
//! delay* as the workload intensity varies; supporting discussion cites
//! requests per minute, response-time improvements, and tape-switch
//! counts. The collector gathers all of these over a measurement window
//! that excludes a configurable warmup.
#![expect(
    clippy::cast_possible_truncation,
    reason = "percentile ranks round within sample-vector bounds"
)]
#![expect(clippy::cast_precision_loss, reason = "counters stay far below 2^53")]

use tapesim_model::units::bytes_to_kb_f64;
use tapesim_model::{Micros, SimTime};

/// Raw counters accumulated during a run (within the measurement window).
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    window_start: SimTime,
    completed: u64,
    bytes_delivered: u64,
    physical_reads: u64,
    tape_switches: u64,
    total_delay: Micros,
    max_delay: Micros,
    delays: Vec<Micros>,
    time_locating: Micros,
    time_reading: Micros,
    time_switching: Micros,
    time_idle: Micros,
    time_repairing: Micros,
    admitted: u64,
    served: u64,
    failed_requests: u64,
    replica_failovers: u64,
    media_errors: u64,
    unserved: u64,
    cancelled: u64,
    tape_downtime: Vec<Micros>,
    degraded: Micros,
}

impl MetricsCollector {
    /// Creates a collector whose measurement window opens at
    /// `window_start` (the end of warmup).
    pub fn new(window_start: SimTime) -> Self {
        MetricsCollector {
            window_start,
            ..Default::default()
        }
    }

    fn in_window(&self, now: SimTime) -> bool {
        now >= self.window_start
    }

    /// Records a completed request: `arrival` is when it entered the
    /// system, `now` when its block was delivered.
    pub fn record_completion(&mut self, arrival: SimTime, now: SimTime, block_bytes: u64) {
        self.served += 1;
        if !self.in_window(now) {
            return;
        }
        let delay = now.duration_since(arrival.max(SimTime::ZERO));
        self.completed += 1;
        self.bytes_delivered += block_bytes;
        self.total_delay += delay;
        self.max_delay = self.max_delay.max(delay);
        self.delays.push(delay);
    }

    /// Records one physical block read ending at `now`.
    pub fn record_physical_read(&mut self, now: SimTime) {
        if self.in_window(now) {
            self.physical_reads += 1;
        }
    }

    /// Records a tape switch completing at `now`.
    pub fn record_tape_switch(&mut self, now: SimTime) {
        if self.in_window(now) {
            self.tape_switches += 1;
        }
    }

    /// Attributes `dur` of drive time ending at `now` to locating.
    pub fn add_locate_time(&mut self, now: SimTime, dur: Micros) {
        if self.in_window(now) {
            self.time_locating += dur;
        }
    }

    /// Attributes `dur` of drive time ending at `now` to reading.
    pub fn add_read_time(&mut self, now: SimTime, dur: Micros) {
        if self.in_window(now) {
            self.time_reading += dur;
        }
    }

    /// Attributes `dur` of drive time ending at `now` to rewind/switch.
    pub fn add_switch_time(&mut self, now: SimTime, dur: Micros) {
        if self.in_window(now) {
            self.time_switching += dur;
        }
    }

    /// Attributes `dur` of idle waiting ending at `now`.
    pub fn add_idle_time(&mut self, now: SimTime, dur: Micros) {
        if self.in_window(now) {
            self.time_idle += dur;
        }
    }

    /// Attributes `dur` of drive repair downtime ending at `now`.
    pub fn add_repair_time(&mut self, now: SimTime, dur: Micros) {
        if self.in_window(now) {
            self.time_repairing += dur;
        }
    }

    /// Records a request entering the system (counted over the whole run,
    /// not the window, so that request conservation can be checked).
    pub fn record_admission(&mut self) {
        self.admitted += 1;
    }

    /// Records a request failing permanently: every copy of its block was
    /// lost (failed tape without repair, or a copy gone bad) so it can
    /// never be served. Counted over the whole run.
    pub fn record_permanent_failure(&mut self) {
        self.failed_requests += 1;
    }

    /// Records a request completing from a replica after a fault disrupted
    /// its originally scheduled copy. Counted over the whole run.
    pub fn record_replica_failover(&mut self) {
        self.replica_failovers += 1;
    }

    /// Records an admitted request withdrawn before service (external-
    /// arrival mode: a deadline expiry or a shed-oldest eviction). Counted
    /// over the whole run; always zero for generated workloads.
    pub fn record_cancellation(&mut self) {
        self.cancelled += 1;
    }

    /// Installs the end-of-run availability accounting produced by the
    /// fault injector: total media errors drawn, per-tape downtime,
    /// accumulated degraded-mode time, and requests still unserved (left
    /// pending or stranded in an aborted sweep) when the run ended.
    pub fn set_fault_accounting(
        &mut self,
        media_errors: u64,
        tape_downtime: Vec<Micros>,
        degraded: Micros,
        unserved: u64,
    ) {
        self.media_errors = media_errors;
        self.tape_downtime = tape_downtime;
        self.degraded = degraded;
        self.unserved = unserved;
    }

    /// Finalizes into a report over a window of `window` duration.
    pub fn report(mut self, window: Micros, saturated: bool) -> MetricsReport {
        let secs = window.as_secs_f64();
        let completed = self.completed;
        self.delays.sort_unstable();
        let pct = |p: f64| -> f64 {
            if self.delays.is_empty() {
                return 0.0;
            }
            self.delays[nearest_rank(self.delays.len(), p)].as_secs_f64()
        };
        MetricsReport {
            window_secs: secs,
            completed,
            throughput_kb_per_s: if secs > 0.0 {
                bytes_to_kb_f64(self.bytes_delivered) / secs
            } else {
                0.0
            },
            requests_per_min: if secs > 0.0 {
                completed as f64 / window.as_minutes_f64()
            } else {
                0.0
            },
            mean_delay_s: if completed > 0 {
                self.total_delay.as_secs_f64() / completed as f64
            } else {
                0.0
            },
            median_delay_s: pct(0.5),
            p95_delay_s: pct(0.95),
            p99_delay_s: pct(0.99),
            max_delay_s: self.max_delay.as_secs_f64(),
            delay_samples_us: self.delays.iter().map(|d| d.as_micros()).collect(),
            physical_reads: self.physical_reads,
            tape_switches: self.tape_switches,
            switches_per_hour: if secs > 0.0 {
                self.tape_switches as f64 / window.as_hours_f64()
            } else {
                0.0
            },
            locate_frac: frac(self.time_locating, window),
            read_frac: frac(self.time_reading, window),
            switch_frac: frac(self.time_switching, window),
            idle_frac: frac(self.time_idle, window),
            repair_frac: frac(self.time_repairing, window),
            degraded_frac: frac(self.degraded, window),
            admitted: self.admitted,
            served: self.served,
            failed_requests: self.failed_requests,
            replica_failovers: self.replica_failovers,
            media_errors: self.media_errors,
            unserved: self.unserved,
            cancelled: self.cancelled,
            rejected: 0,
            expired: 0,
            tape_downtime_s: self.tape_downtime.iter().map(|d| d.as_secs_f64()).collect(),
            ec_unavailable: 0,
            saturated,
        }
    }
}

fn frac(part: Micros, whole: Micros) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        part.as_secs_f64() / whole.as_secs_f64()
    }
}

/// Nearest-rank percentile index over `n > 0` sorted samples:
/// `ceil(p·n) − 1`, the smallest index such that at least a fraction `p`
/// of the samples are at or below it. The previous `round((n−1)·p)`
/// formula *underestimated* the tail for small `n` (e.g. the p99 of 70
/// samples picked the 69th instead of the 70th), contradicting the
/// documented "the delay 99% of all completed requests beat" semantics.
pub(crate) fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Summary statistics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Length of the measurement window in seconds.
    pub window_secs: f64,
    /// Requests completed within the window.
    pub completed: u64,
    /// Delivered kilobytes per second (the paper's throughput metric).
    pub throughput_kb_per_s: f64,
    /// Completed requests per minute.
    pub requests_per_min: f64,
    /// Mean response time in seconds (the paper's delay metric).
    pub mean_delay_s: f64,
    /// Median response time in seconds.
    pub median_delay_s: f64,
    /// 95th-percentile response time in seconds.
    pub p95_delay_s: f64,
    /// 99th-percentile response time in seconds.
    pub p99_delay_s: f64,
    /// Worst response time in seconds.
    pub max_delay_s: f64,
    /// Every in-window response time, in microseconds, sorted ascending.
    /// [`MetricsReport::mean_of`] merges these across seeds so
    /// [`MetricsReport::pooled_percentiles`] can compute true percentiles
    /// of the pooled distribution.
    pub delay_samples_us: Vec<u64>,
    /// Physical block reads (merged duplicate requests read once).
    pub physical_reads: u64,
    /// Number of tape switches.
    pub tape_switches: u64,
    /// Tape switches per hour.
    pub switches_per_hour: f64,
    /// Fraction of the window spent locating.
    pub locate_frac: f64,
    /// Fraction of the window spent reading.
    pub read_frac: f64,
    /// Fraction of the window spent rewinding/switching.
    pub switch_frac: f64,
    /// Fraction of the window spent idle.
    pub idle_frac: f64,
    /// Fraction of the window the drive spent under repair after a
    /// whole-drive failure. Zero when fault injection is off.
    pub repair_frac: f64,
    /// Fraction of the window spent in degraded mode (at least one tape
    /// offline). Zero when fault injection is off.
    pub degraded_frac: f64,
    /// Requests admitted over the whole run, including warmup.
    pub admitted: u64,
    /// Requests served over the whole run, including warmup (`completed`
    /// counts only the measurement window).
    pub served: u64,
    /// Requests that failed permanently: every copy of the block was lost
    /// to a fault. Counted over the whole run; always zero without fault
    /// injection.
    pub failed_requests: u64,
    /// Requests served from a replica on a different tape after a fault
    /// disrupted their originally scheduled copy. Counted over the whole
    /// run; always zero without fault injection.
    pub replica_failovers: u64,
    /// Media errors injected over the whole run.
    pub media_errors: u64,
    /// Requests still unserved when the run ended (pending, or stranded
    /// in an aborted sweep). `admitted == served + failed_requests +
    /// unserved + cancelled` holds for every run (`cancelled` is always
    /// zero outside external-arrival mode).
    pub unserved: u64,
    /// Admitted requests withdrawn before service (deadline expiries and
    /// shed-oldest evictions). Always zero for generated workloads.
    pub cancelled: u64,
    /// Requests refused admission by the service layer's backpressure
    /// policy (never admitted to the engine, so outside the engine's
    /// conservation sum). Installed by
    /// [`crate::service::JukeboxService`]; always zero for batch runs.
    pub rejected: u64,
    /// Requests that left the service expired: their deadline passed
    /// while waiting, or no retry could complete them in time. Installed
    /// by [`crate::service::JukeboxService`]; always zero for batch runs.
    pub expired: u64,
    /// Per-tape downtime in seconds over the whole run. Empty when fault
    /// injection is off.
    pub tape_downtime_s: Vec<f64>,
    /// Erasure reads that failed because fewer than `k` shards of their
    /// stripe survived (subset of `failed_requests`). Installed by
    /// [`crate::ec::run_erasure_simulation`]; always zero for
    /// replication-scheme runs.
    pub ec_unavailable: u64,
    /// True when an open-queuing run was cut short because the pending
    /// queue exceeded the configured bound (overloaded server).
    pub saturated: bool,
}

/// Percentiles of one pooled response-time distribution, in seconds.
///
/// Unlike the per-seed-averaged scalar fields of
/// [`MetricsReport::mean_of`], these are computed over the union of every
/// delay sample, so `p99` really is the delay 99% of all completed
/// requests beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPercentiles {
    /// Pooled median.
    pub p50: f64,
    /// Pooled 95th percentile.
    pub p95: f64,
    /// Pooled 99th percentile.
    pub p99: f64,
    /// Pooled maximum.
    pub max: f64,
    /// Delay samples pooled.
    pub samples: u64,
}

impl MetricsReport {
    /// Element-wise mean of several reports (used to average seeds).
    /// Counters are averaged too (as f64 rounded), so the result reflects
    /// a typical run.
    ///
    /// **Percentile semantics:** the `median_delay_s` / `p95_delay_s` /
    /// `p99_delay_s` / `max_delay_s` fields of the result are *means of
    /// the per-seed percentiles*, not percentiles of the pooled
    /// distribution — an average of seed p95s generally differs from the
    /// p95 over all seeds' requests (percentiles are not linear). The
    /// averaged values are kept because the paper-figure pipeline plots
    /// a typical seed. For true pooled percentiles, `mean_of` also merges
    /// every delay sample into `delay_samples_us`; call
    /// [`MetricsReport::pooled_percentiles`] on the result.
    ///
    /// Every percentile field (per-seed and pooled) uses the nearest-rank
    /// convention `idx = ceil(p * n) - 1`: the reported p99 is the
    /// smallest sample at or below which at least 99% of requests fall.
    /// (Earlier releases used `round((n - 1) * p)`, which understated the
    /// tail for small sample counts.)
    pub fn mean_of(reports: &[MetricsReport]) -> MetricsReport {
        assert!(!reports.is_empty(), "cannot average zero reports");
        let n = reports.len() as f64;
        let avg = |f: fn(&MetricsReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
        MetricsReport {
            window_secs: avg(|r| r.window_secs),
            completed: (reports.iter().map(|r| r.completed).sum::<u64>() as f64 / n).round() as u64,
            throughput_kb_per_s: avg(|r| r.throughput_kb_per_s),
            requests_per_min: avg(|r| r.requests_per_min),
            mean_delay_s: avg(|r| r.mean_delay_s),
            median_delay_s: avg(|r| r.median_delay_s),
            p95_delay_s: avg(|r| r.p95_delay_s),
            p99_delay_s: avg(|r| r.p99_delay_s),
            max_delay_s: avg(|r| r.max_delay_s),
            delay_samples_us: {
                // Merge the per-seed sorted runs into one sorted pool.
                let mut pooled: Vec<u64> = reports
                    .iter()
                    .flat_map(|r| r.delay_samples_us.iter().copied())
                    .collect();
                pooled.sort_unstable();
                pooled
            },
            physical_reads: (reports.iter().map(|r| r.physical_reads).sum::<u64>() as f64 / n)
                .round() as u64,
            tape_switches: (reports.iter().map(|r| r.tape_switches).sum::<u64>() as f64 / n).round()
                as u64,
            switches_per_hour: avg(|r| r.switches_per_hour),
            locate_frac: avg(|r| r.locate_frac),
            read_frac: avg(|r| r.read_frac),
            switch_frac: avg(|r| r.switch_frac),
            idle_frac: avg(|r| r.idle_frac),
            repair_frac: avg(|r| r.repair_frac),
            degraded_frac: avg(|r| r.degraded_frac),
            admitted: avg_count(reports, |r| r.admitted),
            served: avg_count(reports, |r| r.served),
            failed_requests: avg_count(reports, |r| r.failed_requests),
            replica_failovers: avg_count(reports, |r| r.replica_failovers),
            media_errors: avg_count(reports, |r| r.media_errors),
            unserved: avg_count(reports, |r| r.unserved),
            cancelled: avg_count(reports, |r| r.cancelled),
            rejected: avg_count(reports, |r| r.rejected),
            expired: avg_count(reports, |r| r.expired),
            tape_downtime_s: {
                let tapes = reports
                    .iter()
                    .map(|r| r.tape_downtime_s.len())
                    .max()
                    .unwrap_or(0);
                (0..tapes)
                    .map(|i| {
                        reports
                            .iter()
                            .map(|r| r.tape_downtime_s.get(i).copied().unwrap_or(0.0))
                            .sum::<f64>()
                            / n
                    })
                    .collect()
            },
            ec_unavailable: avg_count(reports, |r| r.ec_unavailable),
            saturated: reports.iter().any(|r| r.saturated),
        }
    }

    /// True percentiles of this report's pooled delay distribution (see
    /// [`MetricsReport::mean_of`] for why these differ from the averaged
    /// scalar fields). Uses the same nearest-rank convention as the
    /// per-run percentiles: `idx = ceil(p * n) - 1`.
    pub fn pooled_percentiles(&self) -> DelayPercentiles {
        let s = &self.delay_samples_us;
        // `windows(2)` yields two-element slices.
        debug_assert!(s.windows(2).all(|w| w[0] <= w[1]), "samples not sorted");
        let pct = |p: f64| -> f64 {
            if s.is_empty() {
                return 0.0;
            }
            Micros::from_micros(s[nearest_rank(s.len(), p)]).as_secs_f64()
        };
        DelayPercentiles {
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: s
                .last()
                .map_or(0.0, |&v| Micros::from_micros(v).as_secs_f64()),
            samples: s.len() as u64,
        }
    }
}

/// Mean of a counter across reports, rounded to the nearest integer.
fn avg_count(reports: &[MetricsReport], f: fn(&MetricsReport) -> u64) -> u64 {
    (reports.iter().map(f).sum::<u64>() as f64 / reports.len() as f64).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_before_window_are_ignored() {
        let mut m = MetricsCollector::new(SimTime::from_secs(100));
        m.record_completion(SimTime::ZERO, SimTime::from_secs(50), 1024);
        m.record_completion(SimTime::from_secs(90), SimTime::from_secs(150), 2048);
        let r = m.report(Micros::from_secs(100), false);
        assert_eq!(r.completed, 1);
        // 2048 bytes over 100 s = 0.02 KB/s.
        assert!((r.throughput_kb_per_s - 0.02).abs() < 1e-12);
        // Delay of the counted request: 150 - 90 = 60 s.
        assert!((r.mean_delay_s - 60.0).abs() < 1e-12);
        assert!((r.max_delay_s - 60.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_and_rate_math() {
        let mut m = MetricsCollector::new(SimTime::ZERO);
        for i in 0..6u64 {
            m.record_completion(
                SimTime::from_secs(i * 10),
                SimTime::from_secs(i * 10 + 5),
                1 << 20,
            );
        }
        let r = m.report(Micros::from_secs(60), false);
        assert_eq!(r.completed, 6);
        assert!((r.requests_per_min - 6.0).abs() < 1e-12);
        // 6 MB over 60 s = 102.4 KB/s.
        assert!((r.throughput_kb_per_s - 102.4).abs() < 1e-9);
        assert!((r.mean_delay_s - 5.0).abs() < 1e-12);
        assert!((r.median_delay_s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_from_sorted_delays() {
        let mut m = MetricsCollector::new(SimTime::ZERO);
        // Delays 1..=100 seconds.
        for i in 1..=100u64 {
            m.record_completion(SimTime::ZERO, SimTime::from_secs(i), 1);
        }
        let r = m.report(Micros::from_secs(1000), false);
        assert!((r.median_delay_s - 51.0).abs() < 1.5);
        assert!((r.p95_delay_s - 95.0).abs() < 1.5);
        assert!((r.max_delay_s - 100.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank_not_round() {
        // Regression for the `round((n - 1) * p)` rank formula. With 70
        // samples the p99 must be the 70th (ceil(0.99 * 70) = 70); the
        // old formula picked the 69th, understating the tail. With 10
        // samples the median must be the 5th (ceil(0.5 * 10) = 5); the
        // old formula rounded up to the 6th.
        let mut m = MetricsCollector::new(SimTime::ZERO);
        for i in 1..=70u64 {
            m.record_completion(SimTime::ZERO, SimTime::from_secs(i), 1);
        }
        let r = m.report(Micros::from_secs(1000), false);
        assert_eq!(r.p99_delay_s, 70.0, "p99 of 70 samples is the largest");
        let mut m = MetricsCollector::new(SimTime::ZERO);
        for i in 1..=10u64 {
            m.record_completion(SimTime::ZERO, SimTime::from_secs(i), 1);
        }
        let r = m.report(Micros::from_secs(1000), false);
        assert_eq!(r.median_delay_s, 5.0, "median of 10 samples is the 5th");
        // The pooled path shares the helper and must agree.
        let pooled = r.pooled_percentiles();
        assert_eq!(pooled.p50, 5.0);
    }

    #[test]
    fn time_accounting_fractions() {
        let mut m = MetricsCollector::new(SimTime::ZERO);
        let t = SimTime::from_secs(10);
        m.add_locate_time(t, Micros::from_secs(25));
        m.add_read_time(t, Micros::from_secs(50));
        m.add_switch_time(t, Micros::from_secs(15));
        m.add_idle_time(t, Micros::from_secs(10));
        let r = m.report(Micros::from_secs(100), false);
        assert!((r.locate_frac - 0.25).abs() < 1e-12);
        assert!((r.read_frac - 0.50).abs() < 1e-12);
        assert!((r.switch_frac - 0.15).abs() < 1e-12);
        assert!((r.idle_frac - 0.10).abs() < 1e-12);
    }

    #[test]
    fn mean_of_averages_reports() {
        let mut a = MetricsCollector::new(SimTime::ZERO);
        a.record_completion(SimTime::ZERO, SimTime::from_secs(10), 1024);
        let ra = a.report(Micros::from_secs(100), false);
        let mut b = MetricsCollector::new(SimTime::ZERO);
        b.record_completion(SimTime::ZERO, SimTime::from_secs(30), 1024);
        b.record_completion(SimTime::ZERO, SimTime::from_secs(30), 1024);
        let rb = b.report(Micros::from_secs(100), true);
        let m = MetricsReport::mean_of(&[ra.clone(), rb.clone()]);
        assert!((m.mean_delay_s - (ra.mean_delay_s + rb.mean_delay_s) / 2.0).abs() < 1e-12);
        assert_eq!(m.completed, 2); // (1 + 2) / 2 rounds to 2
        assert!(m.saturated);
    }

    #[test]
    fn availability_accounting_flows_into_the_report() {
        let mut m = MetricsCollector::new(SimTime::ZERO);
        m.record_admission();
        m.record_admission();
        m.record_admission();
        m.record_completion(SimTime::ZERO, SimTime::from_secs(5), 1024);
        m.record_permanent_failure();
        m.record_replica_failover();
        m.add_repair_time(SimTime::from_secs(9), Micros::from_secs(10));
        m.set_fault_accounting(
            4,
            vec![Micros::from_secs(25), Micros::ZERO],
            Micros::from_secs(25),
            1,
        );
        let r = m.report(Micros::from_secs(100), false);
        assert_eq!(r.admitted, 3);
        assert_eq!(r.served, 1);
        assert_eq!(r.failed_requests, 1);
        assert_eq!(r.replica_failovers, 1);
        assert_eq!(r.media_errors, 4);
        assert_eq!(r.unserved, 1);
        assert_eq!(r.admitted, r.served + r.failed_requests + r.unserved);
        assert!((r.repair_frac - 0.10).abs() < 1e-12);
        assert!((r.degraded_frac - 0.25).abs() < 1e-12);
        assert_eq!(r.tape_downtime_s, vec![25.0, 0.0]);
        // Averaging keeps the availability fields.
        let m2 = MetricsReport::mean_of(&[r.clone(), r.clone()]);
        assert_eq!(m2.failed_requests, 1);
        assert_eq!(m2.tape_downtime_s, vec![25.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "zero reports")]
    fn mean_of_empty_panics() {
        let _ = MetricsReport::mean_of(&[]);
    }

    #[test]
    fn pooled_percentiles_differ_from_averaged_per_seed_percentiles() {
        // Seed A: delays 1..=100 s. Seed B: delays 1 and 2 s. The mean of
        // the two seed p95s is far below the p95 of the pooled 102
        // samples, which is dominated by seed A's tail.
        let mut a = MetricsCollector::new(SimTime::ZERO);
        for i in 1..=100u64 {
            a.record_completion(SimTime::ZERO, SimTime::from_secs(i), 1);
        }
        let ra = a.report(Micros::from_secs(1000), false);
        let mut b = MetricsCollector::new(SimTime::ZERO);
        b.record_completion(SimTime::ZERO, SimTime::from_secs(1), 1);
        b.record_completion(SimTime::ZERO, SimTime::from_secs(2), 1);
        let rb = b.report(Micros::from_secs(1000), false);

        let mean = MetricsReport::mean_of(&[ra.clone(), rb.clone()]);
        assert!((mean.p95_delay_s - (ra.p95_delay_s + rb.p95_delay_s) / 2.0).abs() < 1e-12);

        let pooled = mean.pooled_percentiles();
        assert_eq!(pooled.samples, 102);
        assert!(
            pooled.p95 > mean.p95_delay_s + 30.0,
            "pooled p95 {} vs averaged {}",
            pooled.p95,
            mean.p95_delay_s
        );
        assert!((pooled.max - 100.0).abs() < 1e-12);
        assert!(pooled.p99 >= pooled.p95);
    }

    #[test]
    fn p99_between_p95_and_max() {
        let mut m = MetricsCollector::new(SimTime::ZERO);
        for i in 1..=200u64 {
            m.record_completion(SimTime::ZERO, SimTime::from_secs(i), 1);
        }
        let r = m.report(Micros::from_secs(1000), false);
        assert!(r.p95_delay_s <= r.p99_delay_s);
        assert!(r.p99_delay_s <= r.max_delay_s);
        assert!((r.p99_delay_s - 198.0).abs() < 1.5);
        assert_eq!(r.delay_samples_us.len(), 200);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let m = MetricsCollector::new(SimTime::ZERO);
        let r = m.report(Micros::from_secs(10), false);
        assert_eq!(r.completed, 0);
        assert_eq!(r.throughput_kb_per_s, 0.0);
        assert_eq!(r.mean_delay_s, 0.0);
        assert_eq!(r.p95_delay_s, 0.0);
    }
}
