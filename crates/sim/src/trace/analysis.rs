//! Derived views of a trace: latency percentiles and a per-phase time
//! breakdown.
//!
//! Everything here is computed purely from the event stream, so it works
//! on live [`MemorySink`](super::MemorySink) captures and on traces
//! parsed back from JSONL alike — and can cross-check the engines' own
//! [`MetricsCollector`](crate::MetricsCollector) aggregates.

use tapesim_model::Micros;

use super::{TraceEvent, TraceRecord};
use crate::metrics::nearest_rank;

/// Where a drive's busy (and idle) time went, summed across all drives.
///
/// Mount time includes rewinds and unmounts — the three segments of a
/// tape switch (§2.1's eject + exchange + load, plus the preceding
/// rewind) — and load-failure retries. Transfer counts both successful
/// reads and delta flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// Rewind + eject + exchange + load (+ failed-load) time.
    pub mount: Micros,
    /// Locate (head seek) time.
    pub locate: Micros,
    /// Block transfer time, including failed media-error passes.
    pub transfer: Micros,
    /// Rewind time alone (also included in `mount`).
    pub rewind: Micros,
    /// Idle time.
    pub idle: Micros,
    /// Drive-repair downtime.
    pub repair: Micros,
}

impl PhaseBreakdown {
    /// Total accounted time across all phases.
    pub fn total(&self) -> Micros {
        self.mount + self.locate + self.transfer + self.idle + self.repair
    }

    /// A phase's share of the accounted time, in [0, 1].
    pub fn frac(&self, phase: Micros) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            phase.frac_of(total)
        }
    }
}

/// Latency percentiles and phase breakdown for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Completed requests.
    pub completions: u64,
    /// Permanently failed requests.
    pub failures: u64,
    /// Median response time.
    pub p50: Micros,
    /// 95th-percentile response time.
    pub p95: Micros,
    /// 99th-percentile response time.
    pub p99: Micros,
    /// Worst response time.
    pub max: Micros,
    /// Mean response time.
    pub mean: Micros,
    /// Where drive time went.
    pub phases: PhaseBreakdown,
}

/// Summarizes a trace: response-time percentiles from `complete` events
/// and the per-phase time breakdown from segment durations.
pub fn summarize(trace: &[TraceRecord]) -> TraceSummary {
    let mut delays: Vec<Micros> = Vec::new();
    let mut failures = 0u64;
    let mut phases = PhaseBreakdown::default();
    for rec in trace {
        match rec.event {
            TraceEvent::Complete { delay, .. } => delays.push(delay),
            TraceEvent::RequestFailed { .. } => failures += 1,
            TraceEvent::Mount { dur, .. } | TraceEvent::LoadFailed { dur, .. } => {
                phases.mount += dur
            }
            TraceEvent::Rewind { dur, .. } => {
                phases.rewind += dur;
                phases.mount += dur;
            }
            TraceEvent::Locate { dur, .. } => phases.locate += dur,
            TraceEvent::Read { dur, .. } => phases.transfer += dur,
            TraceEvent::Idle { dur } => phases.idle += dur,
            TraceEvent::DriveRepair { dur } => phases.repair += dur,
            _ => {}
        }
    }
    delays.sort_unstable();
    let mean = if delays.is_empty() {
        Micros::ZERO
    } else {
        Micros::from_micros(delays.iter().map(|d| d.as_micros()).sum::<u64>() / delays.len() as u64)
    };
    // The report's percentile rule, so the two can cross-check.
    let pct = |p: f64| -> Micros {
        if delays.is_empty() {
            return Micros::ZERO;
        }
        delays[nearest_rank(delays.len(), p)]
    };
    TraceSummary {
        completions: delays.len() as u64,
        failures,
        p50: pct(0.50),
        p95: pct(0.95),
        p99: pct(0.99),
        max: delays.last().copied().unwrap_or(Micros::ZERO),
        mean,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{TraceEvent, TraceRecord};
    use super::*;
    use tapesim_model::{SimTime, SlotIndex, TapeId};
    use tapesim_sched::SweepPhase;
    use tapesim_workload::RequestId;

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            at: SimTime::from_micros(seq),
            drive: 0,
            event,
        }
    }

    /// `n` completions with delays 10, 20, … µs.
    fn completions(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                rec(
                    i,
                    TraceEvent::Complete {
                        req: RequestId(i),
                        tape: TapeId(0),
                        delay: Micros::from_micros((i + 1) * 10),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn percentiles_over_completions() {
        let s = summarize(&completions(100));
        assert_eq!(s.completions, 100);
        // Nearest rank, as in the report: idx = ceil(100 * 0.5) - 1 = 49.
        assert_eq!(s.p50, Micros::from_micros(500));
        assert_eq!(s.p99, Micros::from_micros(990));
        assert_eq!(s.max, Micros::from_micros(1000));
        assert_eq!(s.mean, Micros::from_micros(505));
    }

    #[test]
    fn p99_of_seventy_completions_is_the_worst() {
        // ceil(70 * 0.99) = 70: the 70th delay, the worst.
        let s = summarize(&completions(70));
        assert_eq!(s.p99, s.max);
        assert_eq!(s.p99, Micros::from_micros(700));
    }

    #[test]
    fn phase_breakdown_accounts_segments() {
        let trace = vec![
            rec(
                0,
                TraceEvent::Mount {
                    tape: TapeId(0),
                    dur: Micros::from_micros(100),
                },
            ),
            rec(
                1,
                TraceEvent::Locate {
                    tape: TapeId(0),
                    from: SlotIndex(0),
                    to: SlotIndex(4),
                    dur: Micros::from_micros(50),
                },
            ),
            rec(
                2,
                TraceEvent::Read {
                    tape: TapeId(0),
                    slot: SlotIndex(4),
                    phase: SweepPhase::Forward,
                    dur: Micros::from_micros(30),
                },
            ),
            rec(
                3,
                TraceEvent::Rewind {
                    tape: TapeId(0),
                    from: SlotIndex(4),
                    dur: Micros::from_micros(20),
                },
            ),
            rec(
                4,
                TraceEvent::Idle {
                    dur: Micros::from_micros(200),
                },
            ),
        ];
        let s = summarize(&trace);
        assert_eq!(s.phases.mount, Micros::from_micros(120)); // mount + rewind
        assert_eq!(s.phases.rewind, Micros::from_micros(20));
        assert_eq!(s.phases.locate, Micros::from_micros(50));
        assert_eq!(s.phases.transfer, Micros::from_micros(30));
        assert_eq!(s.phases.idle, Micros::from_micros(200));
        assert_eq!(s.phases.total(), Micros::from_micros(400));
        assert!((s.phases.frac(s.phases.idle) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_summarizes_to_zeroes() {
        let s = summarize(&[]);
        assert_eq!(s.completions, 0);
        assert_eq!(s.p99, Micros::ZERO);
        assert_eq!(s.phases.total(), Micros::ZERO);
    }
}
