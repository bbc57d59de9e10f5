//! Checkpoint/restore equivalence and robustness tests.
//!
//! The contract under test: a run checkpointed at any boundary and
//! resumed from that checkpoint produces a byte-identical trace suffix
//! and an exactly equal final report compared to the uninterrupted run —
//! across schedulers, drive counts, fault configurations, and both
//! engines (the read core and the write-back core). Malformed checkpoints (truncated, corrupted, wrong schema
//! version, wrong configuration) must surface as typed [`SimError`]s,
//! never panics.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use tapesim::layout::{build_placement, PlacedCatalog, PlacementConfig};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, Micros, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId};
use tapesim::sim::checkpoint::{self, CheckpointOpts};
use tapesim::sim::trace::jsonl;
use tapesim::sim::{
    run_multi_drive_checkpointed, run_with_writeback_checkpointed, FlushPolicy, MemorySink,
    MetricsReport, SimConfig, SimError, TraceRecord, WriteBackConfig, WriteBackReport,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};

/// One simulation scenario, constructible any number of times with
/// identical state (fresh factory + scheduler per run).
#[derive(Debug, Clone, Copy)]
struct Scenario {
    algorithm: AlgorithmId,
    drives: u16,
    fault_pick: usize,
    open: bool,
    seed: u64,
}

fn faults_for(pick: usize) -> FaultConfig {
    match pick % 3 {
        0 => FaultConfig::NONE,
        1 => FaultConfig {
            media_error_per_read: 0.05,
            media_retries: 1,
            load_failure_p: 0.05,
            load_retries: 1,
            ..FaultConfig::NONE
        },
        _ => FaultConfig {
            tape_mtbf: Some(Micros::from_secs(40_000)),
            tape_mttr: Some(Micros::from_secs(5_000)),
            ..FaultConfig::NONE
        },
    }
}

fn catalog() -> PlacedCatalog {
    build_placement(
        JukeboxGeometry::FIVE_TAPE,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .unwrap()
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tapesim-ckpt-{}-{tag}.ckpt", std::process::id()))
}

/// Runs the scenario with the given checkpoint options and returns its
/// full trace and report.
fn run(sc: &Scenario, opts: &CheckpointOpts) -> (Vec<TraceRecord>, MetricsReport) {
    let placed = catalog();
    let timing = TimingModel::paper_default();
    let cfg = SimConfig::quick();
    let process = if sc.open {
        ArrivalProcess::OpenPoisson {
            mean_interarrival: Micros::from_secs(240),
        }
    } else {
        ArrivalProcess::Closed { queue_length: 25 }
    };
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(sampler, process, sc.seed);
    let mut sched = make_scheduler(sc.algorithm);
    let mut sink = MemorySink::new();
    let faults = faults_for(sc.fault_pick);
    let report = run_multi_drive_checkpointed(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &cfg,
        sc.drives,
        &faults,
        sc.seed ^ 0xFA17,
        &mut sink,
        opts,
    )
    .unwrap();
    (sink.into_events(), report)
}

/// The resume contract, verified end to end for one scenario:
/// 1. checkpoint writing does not perturb the run;
/// 2. the resumed run's final report equals the uninterrupted one exactly;
/// 3. the resumed run's trace is byte-identical (as JSONL) to the
///    uninterrupted trace from the checkpoint's sequence number on.
fn assert_resume_equivalence(sc: &Scenario, tag: &str) {
    let every = Micros::from_secs(30_000);
    let path = tmp_path(tag);
    let _ = std::fs::remove_file(&path);

    let (full_trace, full_report) = run(sc, &CheckpointOpts::none());
    let (ckpt_trace, ckpt_report) = run(sc, &CheckpointOpts::checkpoint_every(every, &path));
    assert_eq!(
        ckpt_trace, full_trace,
        "{sc:?}: enabling checkpointing changed the trace"
    );
    assert_eq!(
        ckpt_report, full_report,
        "{sc:?}: enabling checkpointing changed the report"
    );

    let ckpt = checkpoint::load(&path).expect("periodic checkpoint file must parse");
    assert!(ckpt.now_us > 0, "{sc:?}: checkpoint taken at t=0");
    let (resumed_trace, resumed_report) = run(sc, &CheckpointOpts::resume_from(&path));
    assert_eq!(
        resumed_report, full_report,
        "{sc:?}: resumed report differs from the uninterrupted run"
    );
    let suffix: Vec<TraceRecord> = full_trace
        .iter()
        .filter(|r| r.seq >= ckpt.trace_seq)
        .cloned()
        .collect();
    assert_eq!(
        jsonl::to_jsonl_string(&resumed_trace),
        jsonl::to_jsonl_string(&suffix),
        "{sc:?}: resumed trace is not byte-identical to the uninterrupted suffix"
    );
    assert!(
        !resumed_trace.is_empty(),
        "{sc:?}: resume produced no events (checkpoint too late to be meaningful)"
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bit-identical resume across schedulers × {1,4} drives × fault
    /// presets × open/closed workloads.
    #[test]
    fn resume_is_bit_identical(
        alg_pick in 0usize..1000,
        seed in 0u64..10_000,
        multi in 0usize..2,
        fault_pick in 0usize..3,
        open in 0usize..2,
    ) {
        let algorithms = AlgorithmId::all();
        let sc = Scenario {
            algorithm: algorithms[alg_pick % algorithms.len()],
            drives: if multi == 1 { 4 } else { 1 },
            fault_pick,
            open: open == 1,
            seed,
        };
        let tag = format!("prop-{alg_pick}-{seed}-{multi}-{fault_pick}-{open}");
        assert_resume_equivalence(&sc, &tag);
    }
}

/// Runs the write-back scenario with the given checkpoint options.
fn run_writeback(
    policy: FlushPolicy,
    seed: u64,
    opts: &CheckpointOpts,
) -> (Vec<TraceRecord>, WriteBackReport) {
    let placed = catalog();
    let timing = TimingModel::paper_default();
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(
        sampler,
        ArrivalProcess::OpenPoisson {
            mean_interarrival: Micros::from_secs(300),
        },
        seed,
    );
    let mut sched = make_scheduler(AlgorithmId::paper_recommended());
    let mut sink = MemorySink::new();
    let report = run_with_writeback_checkpointed(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &SimConfig::quick(),
        &WriteBackConfig {
            write_mean_interarrival: Micros::from_secs(200),
            flush_batch: 5,
            piggyback_min: 2,
            policy,
        },
        seed ^ 0xDE17A,
        &mut sink,
        opts,
    )
    .unwrap();
    (sink.into_events(), report)
}

#[test]
fn writeback_resume_is_bit_identical() {
    for (i, policy) in [FlushPolicy::IdleOnly, FlushPolicy::Piggyback]
        .into_iter()
        .enumerate()
    {
        let seed = 4242 + i as u64;
        let every = Micros::from_secs(30_000);
        let path = tmp_path(&format!("wb-{i}"));
        let _ = std::fs::remove_file(&path);

        let (full_trace, full_report) = run_writeback(policy, seed, &CheckpointOpts::none());
        let (ckpt_trace, ckpt_report) = run_writeback(
            policy,
            seed,
            &CheckpointOpts::checkpoint_every(every, &path),
        );
        assert_eq!(
            ckpt_trace, full_trace,
            "{policy:?}: checkpointing changed the trace"
        );
        assert_eq!(
            ckpt_report, full_report,
            "{policy:?}: checkpointing changed the report"
        );

        let ckpt = checkpoint::load(&path).expect("write-back checkpoint must parse");
        let (resumed_trace, resumed_report) =
            run_writeback(policy, seed, &CheckpointOpts::resume_from(&path));
        assert_eq!(
            resumed_report, full_report,
            "{policy:?}: resumed write-back report differs"
        );
        let suffix: Vec<TraceRecord> = full_trace
            .iter()
            .filter(|r| r.seq >= ckpt.trace_seq)
            .cloned()
            .collect();
        assert_eq!(
            jsonl::to_jsonl_string(&resumed_trace),
            jsonl::to_jsonl_string(&suffix),
            "{policy:?}: resumed write-back trace is not byte-identical"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// A resumed run can keep writing checkpoints, and resuming from one of
/// *those* still matches the uninterrupted run (resume-of-a-resume).
#[test]
fn resume_of_a_resume_still_matches() {
    let sc = Scenario {
        algorithm: AlgorithmId::paper_recommended(),
        drives: 1,
        fault_pick: 2,
        open: false,
        seed: 77,
    };
    let first = tmp_path("chain-1");
    let second = tmp_path("chain-2");
    let _ = std::fs::remove_file(&first);
    let _ = std::fs::remove_file(&second);

    let (full_trace, full_report) = run(&sc, &CheckpointOpts::none());
    // Interrupted run writes its checkpoint…
    run(
        &sc,
        &CheckpointOpts::checkpoint_every(Micros::from_secs(25_000), &first),
    );
    // …the resumed run checkpoints on a different cadence…
    run(
        &sc,
        &CheckpointOpts::resume_from(&first)
            .and_checkpoint_every(Micros::from_secs(40_000), &second),
    );
    // …and resuming from the later checkpoint still lands on the same run.
    let ckpt = checkpoint::load(&second).expect("chained checkpoint must parse");
    assert!(ckpt.now_us > 0, "chained checkpoint taken at t=0");
    let (resumed_trace, resumed_report) = run(&sc, &CheckpointOpts::resume_from(&second));
    assert_eq!(resumed_report, full_report);
    let suffix: Vec<TraceRecord> = full_trace
        .iter()
        .filter(|r| r.seq >= ckpt.trace_seq)
        .cloned()
        .collect();
    assert_eq!(
        jsonl::to_jsonl_string(&resumed_trace),
        jsonl::to_jsonl_string(&suffix)
    );
    let _ = std::fs::remove_file(&first);
    let _ = std::fs::remove_file(&second);
}

// ---------------------------------------------------------------------
// Robustness: malformed checkpoints are typed errors, never panics.
// ---------------------------------------------------------------------

/// Produces a valid one-drive checkpoint file and its scenario.
fn valid_checkpoint(tag: &str) -> (Scenario, PathBuf) {
    let sc = Scenario {
        algorithm: AlgorithmId::Fifo,
        drives: 1,
        fault_pick: 0,
        open: false,
        seed: 11,
    };
    let path = tmp_path(tag);
    let _ = std::fs::remove_file(&path);
    run(
        &sc,
        &CheckpointOpts::checkpoint_every(Micros::from_secs(30_000), &path),
    );
    assert!(
        path.exists(),
        "expected a periodic checkpoint to be written"
    );
    (sc, path)
}

/// Attempts to resume `sc` from `path` and returns the error.
fn resume_error(sc: &Scenario, path: &Path) -> SimError {
    let placed = catalog();
    let timing = TimingModel::paper_default();
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(
        sampler,
        ArrivalProcess::Closed { queue_length: 25 },
        sc.seed,
    );
    let mut sched = make_scheduler(sc.algorithm);
    let mut sink = MemorySink::new();
    run_multi_drive_checkpointed(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &SimConfig::quick(),
        sc.drives,
        &faults_for(sc.fault_pick),
        sc.seed ^ 0xFA17,
        &mut sink,
        &CheckpointOpts::resume_from(path),
    )
    .expect_err("resume from a bad checkpoint must fail")
}

#[test]
fn truncated_checkpoint_is_a_typed_error() {
    let (sc, path) = valid_checkpoint("trunc");
    let text = std::fs::read_to_string(&path).unwrap();
    let truncated: String = text
        .lines()
        .take(text.lines().count() - 2)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&path, truncated).unwrap();
    assert!(
        matches!(resume_error(&sc, &path), SimError::CheckpointCorrupt(_)),
        "truncated checkpoint must be CheckpointCorrupt"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_truncated_mid_record_is_a_typed_error() {
    // The crash window the fsync'd temp-file + atomic-rename protocol
    // closes is a checkpoint cut *inside* a record — not merely missing
    // whole lines. Simulate exactly that tear: chop the file mid-line and
    // require a typed CheckpointCorrupt, not a panic or a silent
    // misparse.
    let (sc, path) = valid_checkpoint("trunc-mid");
    let bytes = std::fs::read(&path).unwrap();
    // Cut in the middle of the last non-empty line: half the final
    // record survives, with no trailing newline.
    let last_line_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("checkpoint has multiple lines")
        + 1;
    let cut = last_line_start + (bytes.len() - last_line_start) / 2;
    assert!(
        cut > last_line_start,
        "mid-record cut must keep a partial record"
    );
    std::fs::write(&path, &bytes[..cut]).unwrap();
    assert!(
        matches!(resume_error(&sc, &path), SimError::CheckpointCorrupt(_)),
        "mid-record truncation must be CheckpointCorrupt"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_checkpoint_is_a_typed_error() {
    let (sc, path) = valid_checkpoint("corrupt");
    let text = std::fs::read_to_string(&path).unwrap();
    // Smash the factory line's integer into garbage.
    let corrupted = text.replacen("\"makes\":", "\"makes\":!!", 1);
    assert_ne!(corrupted, text, "expected a factory line to corrupt");
    std::fs::write(&path, corrupted).unwrap();
    assert!(
        matches!(resume_error(&sc, &path), SimError::CheckpointCorrupt(_)),
        "corrupted checkpoint must be CheckpointCorrupt"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let (sc, path) = valid_checkpoint("version");
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replacen(
        &format!("\"version\":{}", checkpoint::SCHEMA_VERSION),
        "\"version\":999",
        1,
    );
    assert_ne!(bumped, text);
    std::fs::write(&path, bumped).unwrap();
    match resume_error(&sc, &path) {
        SimError::CheckpointVersion { found, expected } => {
            assert_eq!(found, 999);
            assert_eq!(expected, checkpoint::SCHEMA_VERSION);
        }
        other => panic!("expected CheckpointVersion, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zero_checkpoint_interval_is_a_typed_error() {
    // Regression: a zero periodic interval has no next-checkpoint
    // instant; both engines must refuse it up front instead of spinning
    // in the schedule computation.
    let placed = catalog();
    let timing = TimingModel::paper_default();
    let cfg = SimConfig::quick();
    let bad = CheckpointOpts::checkpoint_every(Micros::ZERO, tmp_path("zero"));
    let process = ArrivalProcess::Closed { queue_length: 25 };

    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(sampler, process, 7);
    let mut sched = make_scheduler(AlgorithmId::Fifo);
    let mut sink = MemorySink::new();
    let err = run_multi_drive_checkpointed(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &cfg,
        4,
        &FaultConfig::NONE,
        7,
        &mut sink,
        &bad,
    );
    assert!(
        matches!(err, Err(SimError::InvalidConfig(_))),
        "read core must refuse a zero interval"
    );

    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(
        sampler,
        ArrivalProcess::OpenPoisson {
            mean_interarrival: Micros::from_secs(300),
        },
        7,
    );
    let mut sched = make_scheduler(AlgorithmId::paper_recommended());
    let mut sink = MemorySink::new();
    let err = run_with_writeback_checkpointed(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &cfg,
        &WriteBackConfig {
            write_mean_interarrival: Micros::from_secs(200),
            flush_batch: 5,
            piggyback_min: 2,
            policy: FlushPolicy::Piggyback,
        },
        7,
        &mut sink,
        &bad,
    );
    assert!(
        matches!(err, Err(SimError::InvalidConfig(_))),
        "write-back engine must refuse a zero interval"
    );
}

#[test]
fn resume_into_different_config_is_refused() {
    let (sc, path) = valid_checkpoint("config");
    // Different scheduler.
    let other_sched = Scenario {
        algorithm: AlgorithmId::paper_recommended(),
        ..sc
    };
    assert!(
        matches!(
            resume_error(&other_sched, &path),
            SimError::CheckpointConfigMismatch { .. }
        ),
        "different scheduler must be CheckpointConfigMismatch"
    );
    // Different workload seed: same config fingerprint, caught by the
    // factory stream fingerprint instead.
    let other_seed = Scenario { seed: 12, ..sc };
    assert!(
        matches!(
            resume_error(&other_seed, &path),
            SimError::CheckpointConfigMismatch { .. }
        ),
        "different seed must be CheckpointConfigMismatch"
    );
    // Different drive count (the same one-drive checkpoint into a
    // four-drive run).
    let placed = catalog();
    let timing = TimingModel::paper_default();
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(
        sampler,
        ArrivalProcess::Closed { queue_length: 25 },
        sc.seed,
    );
    let mut sched = make_scheduler(sc.algorithm);
    let mut sink = MemorySink::new();
    let err = run_multi_drive_checkpointed(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &SimConfig::quick(),
        4,
        &FaultConfig::NONE,
        sc.seed ^ 0xFA17,
        &mut sink,
        &CheckpointOpts::resume_from(&path),
    )
    .expect_err("one-drive checkpoint into a four-drive run must fail");
    assert!(
        matches!(err, SimError::CheckpointConfigMismatch { .. }),
        "wrong drive count must be CheckpointConfigMismatch, got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_checkpoint_file_is_a_typed_error() {
    let sc = Scenario {
        algorithm: AlgorithmId::Fifo,
        drives: 1,
        fault_pick: 0,
        open: false,
        seed: 11,
    };
    assert!(matches!(
        resume_error(&sc, Path::new("/nonexistent/nope.ckpt")),
        SimError::CheckpointIo(_)
    ));
}

// ---------------------------------------------------------------------
// Golden checkpoint: the on-disk format itself is pinned.
// ---------------------------------------------------------------------

#[test]
fn golden_checkpoint_file_is_stable() {
    let sc = Scenario {
        algorithm: AlgorithmId::Fifo,
        drives: 1,
        fault_pick: 0,
        open: false,
        seed: 11,
    };
    let path = tmp_path("golden");
    let _ = std::fs::remove_file(&path);
    let (full_trace, full_report) = run(&sc, &CheckpointOpts::none());
    run(
        &sc,
        &CheckpointOpts::checkpoint_every(Micros::from_secs(30_000), &path),
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("single_fifo.ckpt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &text).unwrap();
        eprintln!("regenerated {}", golden.display());
    } else {
        let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "cannot read golden checkpoint {}: {e}\n(regenerate with UPDATE_GOLDEN=1 \
                 cargo test -p integration-tests --test checkpoint_resume)",
                golden.display()
            )
        });
        assert_eq!(
            text, expected,
            "checkpoint file format drifted from the golden snapshot; if intentional, \
             bump checkpoint::SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1"
        );
    }

    // The golden checkpoint must itself resume into the uninterrupted run.
    let ckpt = checkpoint::from_text(&text).expect("golden checkpoint parses");
    let reparse = checkpoint::to_text(&ckpt);
    assert_eq!(reparse, text, "golden checkpoint does not round-trip");
    let golden_tmp = tmp_path("golden-resume");
    std::fs::write(&golden_tmp, &text).unwrap();
    let (resumed_trace, resumed_report) = run(&sc, &CheckpointOpts::resume_from(&golden_tmp));
    let _ = std::fs::remove_file(&golden_tmp);
    assert_eq!(resumed_report, full_report);
    let suffix: Vec<TraceRecord> = full_trace
        .iter()
        .filter(|r| r.seq >= ckpt.trace_seq)
        .cloned()
        .collect();
    assert_eq!(
        jsonl::to_jsonl_string(&resumed_trace),
        jsonl::to_jsonl_string(&suffix)
    );
}
