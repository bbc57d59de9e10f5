//! Golden-trace snapshot tests.
//!
//! Each scenario runs a small, fully deterministic simulation, serializes
//! its event trace to JSON Lines, and compares it structurally against a
//! checked-in snapshot under `tests/golden/`. A divergence fails with a
//! field-level diff around the first differing event.
//!
//! To regenerate the snapshots after an intentional engine change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test golden
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use tapesim::layout::{build_placement, BlockId, PlacementConfig, PlacementScheme};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, Micros, SimTime, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy};
use tapesim::sim::trace::jsonl::{self, Comparison};
use tapesim::sim::{
    check_trace, run_multi_drive_traced, AdmissionPolicy, JukeboxService, MemorySink,
    ServiceConfig, SimConfig, SimError, SteppedMultiDrive, TicketState, TraceRecord,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Runs one deterministic scenario and returns its trace.
fn run_scenario(
    tapes: u16,
    algorithm: AlgorithmId,
    queue_length: u32,
    horizon_s: u64,
    seed: u64,
) -> Vec<TraceRecord> {
    let placed = build_placement(
        JukeboxGeometry::new(tapes, 64),
        BlockSize::from_mb(1),
        PlacementConfig::paper_baseline(),
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let cfg = SimConfig {
        duration: Micros::from_secs(horizon_s),
        warmup: Micros::ZERO,
        max_pending: 5_000,
    };
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length }, seed);
    let mut sched = make_scheduler(algorithm);
    let mut sink = MemorySink::new();
    run_multi_drive_traced(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &cfg,
        1,
        &FaultConfig::NONE,
        0,
        &mut sink,
    )
    .unwrap();
    sink.into_events()
}

/// Reads a golden file, or rewrites it with `actual` and returns `None`
/// when `UPDATE_GOLDEN` is set.
fn read_or_update_golden(name: &str, actual: &str) -> Option<String> {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return None;
    }
    Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden snapshot {}: {e}\n(regenerate with UPDATE_GOLDEN=1 \
             cargo test -p integration-tests --test golden)",
            path.display()
        )
    }))
}

fn assert_matches_golden(name: &str, trace: &[TraceRecord]) {
    // Whatever we snapshot must itself be physically valid…
    check_trace(trace).unwrap_or_else(|v| panic!("{name}: trace violates invariants: {}", v[0]));
    // …and survive a JSONL round-trip losslessly.
    let text = jsonl::to_jsonl_string(trace);
    let reparsed = jsonl::parse_records(&text).expect("round-trip parse failed");
    assert_eq!(reparsed, trace, "{name}: JSONL round-trip not lossless");

    let Some(expected) = read_or_update_golden(name, &text) else {
        return;
    };
    match jsonl::compare(&expected, trace, 3) {
        Comparison::Match => {}
        Comparison::Mismatch(report) => {
            panic!("{name}: trace diverged from golden snapshot\n{report}")
        }
    }
    assert!(expected == text, "{name}: trace bytes differ from golden");
}

/// One `JukeboxService` run crossing every service path: permanent media
/// errors (retries), tape failures that heal (failover), deadlines,
/// shed-oldest admission at a small capacity, equal-instant bursts, a
/// drive taken offline and back, a last-drive outage, and submissions
/// past the horizon. Returns the trace and a text rendering of the
/// per-ticket states, the service stats and the metrics report.
fn run_service_scenario() -> (Vec<TraceRecord>, String) {
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig {
            scheme: PlacementScheme::Replication { nr: 1 },
            sp: 1.0,
            ..PlacementConfig::paper_baseline()
        },
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let cfg = SimConfig {
        duration: Micros::from_secs(30_000),
        warmup: Micros::from_secs(1_000),
        max_pending: 5_000,
    };
    let faults = FaultConfig {
        media_error_per_read: 0.1,
        media_retries: 0,
        tape_mtbf: Some(Micros::from_secs(5_000)),
        tape_mttr: Some(Micros::from_secs(2_000)),
        ..FaultConfig::NONE
    };
    let service_cfg = ServiceConfig {
        queue_capacity: 8,
        admission: AdmissionPolicy::ShedOldest,
        deadline: Some(Micros::from_secs(3_000)),
        max_retries: 2,
        backoff_base: Micros::from_secs(60),
        backoff_cap: Micros::from_secs(960),
    };
    let sampler = || BlockSampler::from_catalog(&placed.catalog, 40.0);
    // External mode only fingerprints the engine's factory; the blocks
    // come from a second one.
    let mut factory = RequestFactory::new(sampler(), ArrivalProcess::Closed { queue_length: 1 }, 5);
    let mut blocks = RequestFactory::new(sampler(), ArrivalProcess::Closed { queue_length: 1 }, 6);
    let mut sched = make_scheduler(AlgorithmId::Envelope(EnvelopePolicy::MaxBandwidth));
    let mut sink = MemorySink::new();
    let engine = SteppedMultiDrive::new_external(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &cfg,
        2,
        &faults,
        6,
        &mut sink,
    )
    .unwrap();
    let mut svc = JukeboxService::new(engine, service_cfg).unwrap();
    let mut next_block = || blocks.make(SimTime::ZERO).block;
    let secs = |s: u64| SimTime::ZERO + Micros::from_secs(s);
    let submit =
        |svc: &mut JukeboxService<'_>, block: BlockId, at: SimTime| match svc.submit(block, at) {
            Ok(_) | Err(SimError::Overloaded) => {}
            Err(e) => panic!("submit failed: {e}"),
        };
    for k in 0..270u64 {
        let at = secs(100 * k + 7 * (k % 5));
        match k {
            // A drive leaves and comes back.
            60 => svc.set_drive_offline(1, true).unwrap(),
            100 => svc.set_drive_offline(1, false).unwrap(),
            // Last-drive outage: the backlog expires and arrivals bounce.
            140 => {
                svc.set_drive_offline(0, true).unwrap();
                svc.set_drive_offline(1, true).unwrap();
            }
            160 => {
                svc.set_drive_offline(0, false).unwrap();
                svc.set_drive_offline(1, false).unwrap();
            }
            _ => {}
        }
        let block = next_block();
        submit(&mut svc, block, at);
        // Equal-instant bursts overflow the 8-slot queue. Their blocks
        // come in pairs, so one media error fails two tickets at once and
        // both retries fall due in the same pass.
        if k % 45 == 20 {
            for _ in 0..6 {
                let block = next_block();
                submit(&mut svc, block, at);
                submit(&mut svc, block, at);
            }
        }
        // Repeated blocks share a stop the same way.
        if k % 4 == 1 {
            submit(&mut svc, block, at + Micros::from_secs(1));
        }
    }
    // Past the horizon: the clock stops at the horizon but the deadline
    // counts from the later instant, so the next ticket's deadline is
    // earlier than this one's.
    submit(&mut svc, next_block(), secs(40_000));
    submit(&mut svc, next_block(), secs(29_990));
    let (report, stats, states) = svc.drain_with_tickets().unwrap();
    assert!(stats.check_conservation(), "{stats:?}");
    assert!(stats.completed > 0 && stats.rejected > 0 && stats.expired > 0);
    assert!(stats.retries > 0, "no retry fired: {stats:?}");
    assert!(report.media_errors > 0 && report.replica_failovers > 0);
    let tickets: String = states
        .iter()
        .map(|s| match s {
            TicketState::Completed => 'C',
            TicketState::Rejected => 'R',
            TicketState::Expired => 'E',
            TicketState::Queued | TicketState::AwaitingRetry => {
                panic!("ticket left open after drain: {s:?}")
            }
        })
        .collect();
    let mut outcome = String::new();
    writeln!(outcome, "tickets {tickets}").unwrap();
    writeln!(outcome, "{stats:?}").unwrap();
    writeln!(outcome, "{report:#?}").unwrap();
    (sink.into_events(), outcome)
}

#[test]
fn service_faults_run_is_stable() {
    let (trace, outcome) = run_service_scenario();
    assert_eq!(
        (trace.clone(), outcome.clone()),
        run_service_scenario(),
        "the service run is not deterministic"
    );
    assert_matches_golden("service_faults.jsonl", &trace);
    if let Some(expected) = read_or_update_golden("service_faults.outcome.txt", &outcome) {
        assert_eq!(expected, outcome, "service outcome differs from golden");
    }
}

#[test]
fn one_tape_fifo_trace_is_stable() {
    let trace = run_scenario(1, AlgorithmId::Fifo, 4, 600, 11);
    assert!(
        trace.len() > 20,
        "scenario too small to be meaningful: {} events",
        trace.len()
    );
    assert_matches_golden("one_tape_fifo.jsonl", &trace);
}

#[test]
fn two_tapes_envelope_trace_is_stable() {
    let trace = run_scenario(
        2,
        AlgorithmId::Envelope(EnvelopePolicy::MaxBandwidth),
        6,
        900,
        23,
    );
    assert!(
        trace.len() > 20,
        "scenario too small to be meaningful: {} events",
        trace.len()
    );
    assert_matches_golden("two_tapes_envelope.jsonl", &trace);
}

#[test]
fn golden_mismatch_reports_are_readable() {
    // Corrupt one field of the actual trace and confirm the comparison
    // pinpoints it rather than dumping both traces wholesale.
    let trace = run_scenario(1, AlgorithmId::Fifo, 4, 600, 11);
    let golden = jsonl::to_jsonl_string(&trace);
    let mut tampered = trace.clone();
    let mid = tampered.len() / 2;
    tampered[mid].at += Micros::from_micros(1);
    match jsonl::compare(&golden, &tampered, 2) {
        Comparison::Match => panic!("tampered trace compared equal"),
        Comparison::Mismatch(report) => {
            assert!(
                report.contains("t_us"),
                "report does not name the field:\n{report}"
            );
            assert!(
                report.contains('>'),
                "report has no divergence marker:\n{report}"
            );
        }
    }
}
