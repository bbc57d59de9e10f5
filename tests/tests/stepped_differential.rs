//! Stepped ≡ batch differential suite.
//!
//! The batch entry points (`run_simulation*`, `run_multi_drive*`,
//! `run_with_writeback*`) are thin drivers over the poll-driven stepped
//! cores (`SteppedEngine`, `SteppedMultiDrive`, `SteppedWriteBack`):
//! construct, step to completion, finish. These tests prove the two
//! surfaces are indistinguishable — **byte-identical JSONL traces** and
//! exactly equal metrics reports — across schedulers, drive counts, and
//! fault presets. Any divergence between a step boundary and the old
//! monolithic loop (a reordered trace record, a clock off by a
//! microsecond, a metric counted on the wrong side of a step) shows up
//! as a byte diff here.

use tapesim::layout::{build_placement, PlacementConfig, PlacementScheme};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, Micros, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
use tapesim::sim::{
    run_multi_drive_traced, run_simulation_traced, run_with_writeback_traced, CheckpointOpts,
    FlushPolicy, JsonlSink, MetricsReport, SimConfig, StepOutcome, SteppedEngine,
    SteppedMultiDrive, SteppedWriteBack, WriteBackConfig,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};

const SEED: u64 = 0x1CDE_1999;
const FAULT_SEED: u64 = 11;

/// A light-but-complete fault preset: every fault class is active,
/// including transient copy losses that heal mid-run.
fn light_faults() -> FaultConfig {
    FaultConfig {
        media_error_per_read: 0.05,
        media_retries: 0,
        load_failure_p: 0.02,
        load_retries: 1,
        tape_mtbf: Some(Micros::from_secs(200_000)),
        tape_mttr: Some(Micros::from_secs(15_000)),
        drive_mtbf: Some(Micros::from_secs(250_000)),
        drive_mttr: Micros::from_secs(4_000),
        copy_heal_mttr: Some(Micros::from_secs(8_000)),
    }
}

fn factory_for(catalog: &tapesim::layout::Catalog, process: ArrivalProcess) -> RequestFactory {
    RequestFactory::new(BlockSampler::from_catalog(catalog, 40.0), process, SEED)
}

/// Batch single-drive run: report plus raw JSONL trace bytes.
fn batch_single(
    catalog: &tapesim::layout::Catalog,
    timing: &TimingModel,
    algorithm: AlgorithmId,
    faults: &FaultConfig,
    process: ArrivalProcess,
) -> (MetricsReport, Vec<u8>) {
    let mut factory = factory_for(catalog, process);
    let mut sched = make_scheduler(algorithm);
    let mut sink = JsonlSink::new(Vec::new());
    let report = run_simulation_traced(
        catalog,
        timing,
        sched.as_mut(),
        &mut factory,
        &SimConfig::quick(),
        faults,
        FAULT_SEED,
        &mut sink,
    )
    .unwrap();
    (report, sink.finish().unwrap())
}

/// The same run through the stepped core, one `step()` at a time.
fn stepped_single(
    catalog: &tapesim::layout::Catalog,
    timing: &TimingModel,
    algorithm: AlgorithmId,
    faults: &FaultConfig,
    process: ArrivalProcess,
) -> (MetricsReport, Vec<u8>, u64) {
    let mut factory = factory_for(catalog, process);
    let mut sched = make_scheduler(algorithm);
    let mut sink = JsonlSink::new(Vec::new());
    let cfg = SimConfig::quick();
    let mut steps = 0u64;
    let report = {
        let mut engine = SteppedEngine::new(
            catalog,
            timing,
            sched.as_mut(),
            &mut factory,
            &cfg,
            faults,
            FAULT_SEED,
            &mut sink,
            &CheckpointOpts::none(),
        )
        .unwrap();
        while engine.step().unwrap() == StepOutcome::Running {
            steps += 1;
            // Mid-run inspection must be free: the engine exposes its
            // state without perturbing the schedule.
            let _ = (engine.now(), engine.pending_len(), engine.mounted());
        }
        engine.finish()
    };
    (report, sink.finish().unwrap(), steps)
}

fn batch_multi(
    catalog: &tapesim::layout::Catalog,
    timing: &TimingModel,
    algorithm: AlgorithmId,
    drives: u16,
    faults: &FaultConfig,
    process: ArrivalProcess,
) -> (MetricsReport, Vec<u8>) {
    let mut factory = factory_for(catalog, process);
    let mut sched = make_scheduler(algorithm);
    let mut sink = JsonlSink::new(Vec::new());
    let report = run_multi_drive_traced(
        catalog,
        timing,
        sched.as_mut(),
        &mut factory,
        &SimConfig::quick(),
        drives,
        faults,
        FAULT_SEED,
        &mut sink,
    )
    .unwrap();
    (report, sink.finish().unwrap())
}

fn stepped_multi(
    catalog: &tapesim::layout::Catalog,
    timing: &TimingModel,
    algorithm: AlgorithmId,
    drives: u16,
    faults: &FaultConfig,
    process: ArrivalProcess,
) -> (MetricsReport, Vec<u8>, u64) {
    let mut factory = factory_for(catalog, process);
    let mut sched = make_scheduler(algorithm);
    let mut sink = JsonlSink::new(Vec::new());
    let cfg = SimConfig::quick();
    let mut steps = 0u64;
    let report = {
        let mut engine = SteppedMultiDrive::new(
            catalog,
            timing,
            sched.as_mut(),
            &mut factory,
            &cfg,
            drives,
            faults,
            FAULT_SEED,
            &mut sink,
            &CheckpointOpts::none(),
        )
        .unwrap();
        while engine.step().unwrap() == StepOutcome::Running {
            steps += 1;
            let _ = (engine.now(), engine.waiting(), engine.drives_online());
        }
        engine.finish()
    };
    (report, sink.finish().unwrap(), steps)
}

/// Schedulers × {1, 4} drives × {no faults, all fault classes}: the
/// stepped cores and the batch drivers must produce byte-identical
/// JSONL traces and exactly equal reports.
#[test]
fn stepped_equals_batch_across_schedulers_drives_and_faults() {
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let process = ArrivalProcess::Closed { queue_length: 40 };
    let algorithms = [
        AlgorithmId::Fifo,
        AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
        AlgorithmId::Envelope(EnvelopePolicy::MaxBandwidth),
    ];
    for algorithm in algorithms {
        for faults in [FaultConfig::NONE, light_faults()] {
            let tag = format!(
                "{algorithm:?} faults={}",
                if faults.is_inert() { "none" } else { "light" }
            );

            // 1 drive: SteppedEngine vs the single-drive batch driver.
            let (b_report, b_trace) =
                batch_single(&placed.catalog, &timing, algorithm, &faults, process);
            let (s_report, s_trace, steps) =
                stepped_single(&placed.catalog, &timing, algorithm, &faults, process);
            assert!(b_report.completed > 0, "{tag}: single run did no work");
            assert!(steps > 1, "{tag}: single run was not actually stepped");
            assert_eq!(s_report, b_report, "{tag}: single-drive reports diverge");
            assert_eq!(s_trace, b_trace, "{tag}: single-drive JSONL traces diverge");

            // 4 drives: SteppedMultiDrive vs the multi-drive batch driver.
            let (b_report, b_trace) =
                batch_multi(&placed.catalog, &timing, algorithm, 4, &faults, process);
            let (s_report, s_trace, steps) =
                stepped_multi(&placed.catalog, &timing, algorithm, 4, &faults, process);
            assert!(b_report.completed > 0, "{tag}: multi run did no work");
            assert!(steps > 1, "{tag}: multi run was not actually stepped");
            assert_eq!(s_report, b_report, "{tag}: 4-drive reports diverge");
            assert_eq!(s_trace, b_trace, "{tag}: 4-drive JSONL traces diverge");
        }
    }
}

/// Open-queuing arrivals exercise the idle/wake path (the trickiest part
/// of the step boundary: an idle step must advance exactly to the next
/// event instant, not split or merge idle records).
#[test]
fn stepped_equals_batch_under_open_arrivals() {
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig {
            scheme: PlacementScheme::Replication { nr: 1 },
            ..PlacementConfig::paper_baseline()
        },
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let process = ArrivalProcess::OpenPoisson {
        mean_interarrival: Micros::from_secs(300),
    };
    let algorithm = AlgorithmId::paper_recommended();
    for (drives, faults) in [(1u16, FaultConfig::NONE), (4, light_faults())] {
        let (b_report, b_trace) = batch_multi(
            &placed.catalog,
            &timing,
            algorithm,
            drives,
            &faults,
            process,
        );
        let (s_report, s_trace, _) = stepped_multi(
            &placed.catalog,
            &timing,
            algorithm,
            drives,
            &faults,
            process,
        );
        assert!(b_report.completed > 0, "{drives} drives: no completions");
        assert_eq!(s_report, b_report, "{drives} drives: open reports diverge");
        assert_eq!(s_trace, b_trace, "{drives} drives: open traces diverge");
    }
    // And the single-drive engine's own idle path.
    let (b_report, b_trace) = batch_single(
        &placed.catalog,
        &timing,
        algorithm,
        &FaultConfig::NONE,
        process,
    );
    let (s_report, s_trace, _) = stepped_single(
        &placed.catalog,
        &timing,
        algorithm,
        &FaultConfig::NONE,
        process,
    );
    assert_eq!(s_report, b_report, "single open reports diverge");
    assert_eq!(s_trace, b_trace, "single open traces diverge");
}

/// The write-back engine's stepped core against its batch driver,
/// including destage (`DeltaFlush`) trace records.
#[test]
fn stepped_writeback_trace_is_byte_identical() {
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let process = ArrivalProcess::OpenPoisson {
        mean_interarrival: Micros::from_secs(300),
    };
    let wb = WriteBackConfig {
        write_mean_interarrival: Micros::from_secs(150),
        flush_batch: 5,
        piggyback_min: 2,
        policy: FlushPolicy::Piggyback,
    };
    let batch = {
        let mut factory = factory_for(&placed.catalog, process);
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let mut sink = JsonlSink::new(Vec::new());
        let report = run_with_writeback_traced(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            &wb,
            99,
            &mut sink,
        )
        .unwrap();
        (report, sink.finish().unwrap())
    };
    let stepped = {
        let mut factory = factory_for(&placed.catalog, process);
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let mut sink = JsonlSink::new(Vec::new());
        let report = {
            let mut engine = SteppedWriteBack::new(
                &placed.catalog,
                &timing,
                sched.as_mut(),
                &mut factory,
                &SimConfig::quick(),
                &wb,
                99,
                &mut sink,
                &CheckpointOpts::none(),
            )
            .unwrap();
            while engine.step().unwrap() == StepOutcome::Running {
                let _ = (engine.now(), engine.buffered_deltas());
            }
            engine.finish()
        };
        (report, sink.finish().unwrap())
    };
    assert!(
        batch.0.deltas_flushed > 0,
        "write-back run destaged nothing"
    );
    assert_eq!(stepped.0, batch.0, "write-back reports diverge");
    assert_eq!(stepped.1, batch.1, "write-back JSONL traces diverge");
}
