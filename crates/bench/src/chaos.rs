//! Deterministic chaos soak over the stepped core and the service layer
//! (see the `chaos` binary).
//!
//! Each seed drives one torture cycle, its schedule derived from the
//! seed through a SplitMix64 stream (no ambient randomness, no wall
//! clock): a [`JukeboxService`] over the external-arrival stepped
//! multi-drive core is fed a seeded schedule of request bursts (some
//! deliberately larger than the admission queue), transient media faults
//! that heal mid-run, tape failure/repair cycles, and administrative
//! drive offline/online flips — including occasional last-drive loss.
//! The run is then replayed from the same seed and must reproduce a
//! **byte-identical JSONL trace** and exactly equal reports.
//!
//! Invariants asserted per seed, all violations fatal:
//!
//! - **Conservation** — every submission is exactly one of completed /
//!   rejected / expired: aggregate ([`ServiceStats::check_conservation`])
//!   *and* per ticket (no ticket is left queued or awaiting retry after
//!   drain), and the engine-side balance `admitted == served + failed +
//!   unserved + cancelled` holds.
//! - **Trace invariants** — the service trace passes the §2.2 checker
//!   ([`tapesim::sim::check_trace`]): mount state machine, sweep
//!   ordering, request conservation.
//! - **Bit-identical replay** — same seed, same bytes.
#![expect(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    reason = "chaos draws come from `ChaosRng::below` over small ranges"
)]

use tapesim::layout::{
    build_placement, BlockId, Catalog, LayoutKind, PlacementConfig, PlacementScheme,
};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, Micros, SimTime, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
use tapesim::sim::trace::jsonl;
use tapesim::sim::{
    check_trace, AdmissionPolicy, JukeboxService, MemorySink, MetricsReport, ServiceConfig,
    ServiceStats, SimError, SteppedMultiDrive, TicketState, TraceRecord,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};
use tapesim::Scale;

/// Options of one soak invocation.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of seeds to run.
    pub seeds: u64,
    /// First seed; seed `i` of the soak is `seed_base + i`.
    pub seed_base: u64,
    /// Simulation scale of every run.
    pub scale: Scale,
}

/// Per-seed summary of a clean (violation-free) soak cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Service submissions (including rejected ones).
    pub submitted: u64,
    /// Tickets delivered within deadline.
    pub completed: u64,
    /// Tickets refused admission or shed.
    pub rejected: u64,
    /// Tickets that timed out.
    pub expired: u64,
    /// Retry resubmissions performed.
    pub retries: u64,
    /// Trace records emitted by the service run.
    pub trace_events: u64,
}

impl SeedReport {
    /// One JSON line for the machine-readable soak summary. Key order is
    /// fixed; all values are integers, so the line round-trips exactly.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"seed\":{},\"submitted\":{},\"completed\":{},\"rejected\":{},\
             \"expired\":{},\"retries\":{},\"trace_events\":{}}}",
            self.seed,
            self.submitted,
            self.completed,
            self.rejected,
            self.expired,
            self.retries,
            self.trace_events
        )
    }
}

/// Result of a full soak: per-seed summaries plus the first seed's
/// service trace (the artifact uploaded by the `chaos-smoke` CI job).
#[derive(Debug)]
pub struct SoakOutcome {
    /// One summary per seed, in seed order.
    pub seeds: Vec<SeedReport>,
    /// JSONL trace of the first seed's service run.
    pub sample_trace: Vec<TraceRecord>,
}

/// SplitMix64 over the chaos seed: the sole source of randomness for a
/// soak schedule, so a seed fully determines every run.
struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    fn new(seed: u64) -> ChaosRng {
        ChaosRng {
            state: seed ^ 0xC0A5_1DEA_D00D_FEED,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw below `n` (modulo; the bias is irrelevant for
    /// schedule shaping).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// Schedulers the soak rotates through (one per seed): the trivial one,
/// the dynamic family's recommended member, and an envelope scheduler.
const SOAK_ALGORITHMS: [AlgorithmId; 3] = [
    AlgorithmId::Fifo,
    AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
    AlgorithmId::Envelope(EnvelopePolicy::MaxBandwidth),
];

/// Everything one service soak produced, for replay comparison.
struct ServiceRun {
    records: Vec<TraceRecord>,
    jsonl: String,
    report: MetricsReport,
    stats: ServiceStats,
    states: Vec<TicketState>,
}

fn service_catalog() -> Result<Catalog, String> {
    build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig {
            layout: LayoutKind::Vertical,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 1 },
            sp: 1.0,
        },
    )
    .map(|p| p.catalog)
    .map_err(|e| format!("service placement infeasible: {e}"))
}

/// Faults of the service soak: copy losses — transient (healing) on most
/// seeds, permanent on a third of them so the service's retry/backoff
/// path actually fires — plus tape failure/repair cycles.
fn service_faults(rng: &mut ChaosRng) -> FaultConfig {
    let heal = if rng.chance(3) {
        None // permanent copy loss: drives requests into retry/expiry
    } else {
        Some(Micros::from_secs(2_000 + 2_000 * rng.below(4)))
    };
    FaultConfig {
        media_error_per_read: 0.01 + 0.01 * rng.below(3) as f64,
        media_retries: 0,
        copy_heal_mttr: heal,
        tape_mtbf: Some(Micros::from_secs(150_000 + 50_000 * rng.below(3))),
        tape_mttr: Some(Micros::from_secs(10_000 + 5_000 * rng.below(3))),
        ..FaultConfig::NONE
    }
}

/// Runs the seeded service soak once. Pure function of `(seed, scale)`:
/// calling it twice must produce byte-identical traces.
fn service_soak(seed: u64, scale: Scale) -> Result<ServiceRun, String> {
    let catalog = service_catalog()?;
    let timing = TimingModel::paper_default();
    let sim = scale.sim_config();
    let mut rng = ChaosRng::new(seed);

    let drives = 2 + rng.below(3) as u16; // 2..=4
    let algorithm = SOAK_ALGORITHMS[rng.below(SOAK_ALGORITHMS.len() as u64) as usize];
    let faults = service_faults(&mut rng);
    let queue_capacity = 16 + 8 * rng.below(5) as usize; // 16..=48
    let svc_cfg = ServiceConfig {
        queue_capacity,
        admission: if rng.chance(2) {
            AdmissionPolicy::RejectNew
        } else {
            AdmissionPolicy::ShedOldest
        },
        deadline: Some(Micros::from_secs(600 + 400 * rng.below(10))),
        max_retries: 1 + rng.below(3) as u32,
        backoff_base: Micros::from_secs(60),
        backoff_cap: Micros::from_secs(960),
    };

    // The factory is unused in external-arrival mode but structurally
    // required; its stream never advances.
    let sampler = BlockSampler::from_catalog(&catalog, 40.0);
    let mut factory =
        RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, seed);
    let mut sched = make_scheduler(algorithm);
    let mut sink = MemorySink::new();
    let engine = SteppedMultiDrive::new_external(
        &catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &sim,
        drives,
        &faults,
        seed ^ 0xFA17,
        &mut sink,
    )
    .map_err(|e| format!("seed {seed}: engine construction failed: {e}"))?;
    let mut svc = JukeboxService::new(engine, svc_cfg)
        .map_err(|e| format!("seed {seed}: service construction failed: {e}"))?;

    // Seeded burst schedule over the first 90% of the horizon, with
    // administrative drive flips (sometimes down to zero drives) woven
    // between bursts.
    let blocks = u64::from(catalog.num_blocks().max(1));
    let horizon_s = sim.duration.as_micros() / 1_000_000;
    let mut offline = vec![false; drives as usize];
    let mut at_s = 0u64;
    loop {
        at_s += 200 + rng.below(1_800);
        if at_s >= horizon_s * 9 / 10 {
            break;
        }
        let at = SimTime::ZERO + Micros::from_secs(at_s);

        // Maybe flip a drive. If every drive is already offline, bring
        // one back most of the time; otherwise allow last-drive loss only
        // occasionally (it expires the whole backlog).
        if rng.chance(4) {
            let d = rng.below(u64::from(drives)) as usize;
            let all_down = offline.iter().all(|&o| o);
            let survivors = offline.iter().filter(|&&o| !o).count();
            let flip_ok = if all_down {
                !rng.chance(4) // mostly recover
            } else if survivors == 1 && !offline[d] {
                rng.chance(2) // last-drive loss, sometimes
            } else {
                true
            };
            if flip_ok {
                offline[d] = !offline[d];
                svc.set_drive_offline(d, offline[d])
                    .map_err(|e| format!("seed {seed}: drive flip failed: {e}"))?;
            }
        }

        // Burst of submissions; one in six bursts deliberately overflows
        // the admission queue to exercise backpressure.
        let size = if rng.chance(6) {
            queue_capacity as u64 + rng.below(queue_capacity as u64)
        } else {
            1 + rng.below(20)
        };
        for j in 0..size {
            let block = BlockId(rng.below(blocks) as u32);
            match svc.submit(block, at + Micros::from_micros(j)) {
                Ok(_) | Err(SimError::Overloaded) => {}
                Err(e) => return Err(format!("seed {seed}: submit failed: {e}")),
            }
        }
    }

    let (report, stats, states) = svc
        .drain_with_tickets()
        .map_err(|e| format!("seed {seed}: drain failed: {e}"))?;
    let records = sink.into_events();
    let text = jsonl::to_jsonl_string(&records);
    Ok(ServiceRun {
        records,
        jsonl: text,
        report,
        stats,
        states,
    })
}

/// Asserts every conservation and trace invariant over one service run.
fn check_service_run(seed: u64, run: &ServiceRun) -> Result<(), String> {
    let stats = &run.stats;
    if !stats.check_conservation() {
        return Err(format!(
            "seed {seed}: conservation violated: {stats:?} (submitted != completed + rejected + expired)"
        ));
    }
    if stats.completed == 0 {
        return Err(format!(
            "seed {seed}: soak completed no requests: {stats:?}"
        ));
    }
    // Per-ticket conservation: after drain, no ticket may be left in a
    // non-terminal state, and the terminal counts must reconcile with the
    // aggregate stats (submissions rejected at the gate never mint a
    // ticket, which is the difference between the two rejection counts).
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut expired = 0u64;
    for (i, s) in run.states.iter().enumerate() {
        match s {
            TicketState::Completed => completed += 1,
            TicketState::Rejected => rejected += 1,
            TicketState::Expired => expired += 1,
            TicketState::Queued | TicketState::AwaitingRetry => {
                return Err(format!(
                    "seed {seed}: ticket {i} left non-terminal after drain: {s:?}"
                ));
            }
        }
    }
    if completed != stats.completed || expired != stats.expired || rejected > stats.rejected {
        return Err(format!(
            "seed {seed}: ticket states disagree with stats: \
             {completed}/{rejected}/{expired} vs {stats:?}"
        ));
    }
    let gate_rejections = stats.rejected - rejected;
    if stats.submitted != run.states.len() as u64 + gate_rejections {
        return Err(format!(
            "seed {seed}: {} tickets + {gate_rejections} gate rejections != {} submissions",
            run.states.len(),
            stats.submitted
        ));
    }
    // The report must carry the service-level counters.
    if run.report.rejected != stats.rejected || run.report.expired != stats.expired {
        return Err(format!(
            "seed {seed}: report rejected/expired ({}/{}) diverge from stats {stats:?}",
            run.report.rejected, run.report.expired
        ));
    }
    // Engine-side balance.
    let r = &run.report;
    if r.admitted != r.served + r.failed_requests + r.unserved + r.cancelled {
        return Err(format!(
            "seed {seed}: engine balance violated: admitted {} != served {} + failed {} + \
             unserved {} + cancelled {}",
            r.admitted, r.served, r.failed_requests, r.unserved, r.cancelled
        ));
    }
    // §2.2 trace invariants.
    if let Err(violations) = check_trace(&run.records) {
        let first = violations
            .first()
            .map(ToString::to_string)
            .unwrap_or_default();
        return Err(format!(
            "seed {seed}: {} trace invariant violation(s); first: {first}",
            violations.len()
        ));
    }
    Ok(())
}

/// Runs the full soak. Returns the per-seed summaries and the sample
/// trace, or the first invariant violation as an error string.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<SoakOutcome, String> {
    if cfg.seeds == 0 {
        return Err("need at least one seed".into());
    }
    let mut seeds = Vec::new();
    let mut sample_trace = Vec::new();
    for i in 0..cfg.seeds {
        let seed = cfg.seed_base + i;

        // Service soak, twice: the replay must be bit-identical.
        let run = service_soak(seed, cfg.scale)?;
        check_service_run(seed, &run)?;
        let replay = service_soak(seed, cfg.scale)?;
        if replay.jsonl != run.jsonl {
            return Err(format!(
                "seed {seed}: service replay trace is not byte-identical"
            ));
        }
        if replay.report != run.report || replay.stats != run.stats {
            return Err(format!("seed {seed}: service replay report diverges"));
        }

        seeds.push(SeedReport {
            seed,
            submitted: run.stats.submitted,
            completed: run.stats.completed,
            rejected: run.stats.rejected,
            expired: run.stats.expired,
            retries: run.stats.retries,
            trace_events: run.records.len() as u64,
        });
        if i == 0 {
            sample_trace = run.records;
        }
    }
    // Across the soak, every outcome class must actually have been
    // exercised — a soak that never rejected or expired anything is not
    // testing backpressure or deadlines.
    let rejected: u64 = seeds.iter().map(|s| s.rejected).sum();
    let expired: u64 = seeds.iter().map(|s| s.expired).sum();
    if rejected == 0 {
        return Err("soak never exercised backpressure (0 rejections across all seeds)".into());
    }
    if expired == 0 {
        return Err("soak never exercised deadlines (0 expiries across all seeds)".into());
    }
    let retries: u64 = seeds.iter().map(|s| s.retries).sum();
    if cfg.seeds >= 10 && retries == 0 {
        return Err("soak never exercised the retry path (0 retries across all seeds)".into());
    }
    Ok(SoakOutcome {
        seeds,
        sample_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seeds: u64, seed_base: u64) -> ChaosConfig {
        ChaosConfig {
            seeds,
            seed_base,
            scale: Scale::Quick,
        }
    }

    #[test]
    fn soak_runs_clean_over_a_few_seeds() {
        let outcome = run_chaos(&quick_cfg(3, 0)).unwrap();
        assert_eq!(outcome.seeds.len(), 3);
        assert!(!outcome.sample_trace.is_empty());
        for s in &outcome.seeds {
            assert_eq!(s.submitted, s.completed + s.rejected + s.expired);
        }
    }

    #[test]
    fn seed_reports_serialize_with_stable_keys() {
        let line = SeedReport {
            seed: 7,
            submitted: 100,
            completed: 90,
            rejected: 6,
            expired: 4,
            retries: 2,
            trace_events: 1234,
        }
        .to_json_line();
        assert!(line.starts_with("{\"seed\":7,"));
        assert!(line.ends_with("\"trace_events\":1234}"));
        assert!(line.contains("\"completed\":90"));
    }

    #[test]
    fn service_soak_is_a_pure_function_of_its_seed() {
        let a = service_soak(11, Scale::Quick).unwrap();
        let b = service_soak(11, Scale::Quick).unwrap();
        assert_eq!(a.jsonl, b.jsonl);
        assert_eq!(a.report, b.report);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.states, b.states);
    }
}
