//! Stepped ≡ batch differential suite.
//!
//! The batch entry points (`run_multi_drive*`, `run_with_writeback*`) are
//! thin drivers over the one poll-driven stepped core, `SteppedMultiDrive`
//! (`SteppedWriteBack` is that core with delta destage attached):
//! construct, step to completion, finish. These tests prove the two
//! surfaces are indistinguishable — **byte-identical JSONL traces** and
//! exactly equal metrics reports — across schedulers, drive counts (one
//! drive included: the paper's configuration), and fault presets. Any
//! divergence between a step boundary and the batch loop (a reordered
//! trace record, a clock off by a microsecond, a metric counted on the
//! wrong side of a step) shows up as a byte diff here. A write-back run
//! in which no write batch ever forms must be exactly a run of the read
//! core.

use integration_tests::light_faults;
use tapesim::layout::{build_placement, PlacementConfig, PlacementScheme};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, Micros, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
use tapesim::sim::{
    run_multi_drive_traced, run_with_writeback_traced, CheckpointOpts, FlushPolicy, JsonlSink,
    MetricsReport, SimConfig, StepOutcome, SteppedMultiDrive, SteppedWriteBack, WriteBackConfig,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};

const SEED: u64 = 0x1CDE_1999;
const FAULT_SEED: u64 = 11;

fn factory_for(catalog: &tapesim::layout::Catalog, process: ArrivalProcess) -> RequestFactory {
    RequestFactory::new(BlockSampler::from_catalog(catalog, 40.0), process, SEED)
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
/// stepped core and the batch driver must produce byte-identical JSONL
/// traces and exactly equal reports.
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

            for drives in [1, 4] {
                let (b_report, b_trace) = batch_multi(
                    &placed.catalog,
                    &timing,
                    algorithm,
                    drives,
                    &faults,
                    process,
                );
                let (s_report, s_trace, steps) = stepped_multi(
                    &placed.catalog,
                    &timing,
                    algorithm,
                    drives,
                    &faults,
                    process,
                );
                assert!(b_report.completed > 0, "{tag} drives={drives}: no work");
                assert!(steps > 1, "{tag} drives={drives}: not actually stepped");
                assert_eq!(s_report, b_report, "{tag} drives={drives}: reports diverge");
                assert_eq!(
                    s_trace, b_trace,
                    "{tag} drives={drives}: JSONL traces diverge"
                );
            }
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
}

/// Stepped write-back against its batch driver, including destage
/// (`DeltaFlush`) trace records.
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

/// Write-back is the read core plus a work source: with a write gap so
/// long (10¹² s) that no batch ever forms, a write-back run reports
/// exactly what the one-drive read core reports on the same factory,
/// scheduler and config, and writes the same JSONL trace byte for byte.
#[test]
fn writeback_without_writes_is_the_read_core() {
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let process = ArrivalProcess::OpenPoisson {
        mean_interarrival: Micros::from_secs(200),
    };
    let algorithm = AlgorithmId::paper_recommended();
    let writeback = {
        let mut factory = factory_for(&placed.catalog, process);
        let mut sched = make_scheduler(algorithm);
        let mut sink = JsonlSink::new(Vec::new());
        let report = run_with_writeback_traced(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            &WriteBackConfig {
                write_mean_interarrival: Micros::from_secs(1_000_000_000_000),
                flush_batch: 10,
                piggyback_min: 5,
                policy: FlushPolicy::Piggyback,
            },
            99,
            &mut sink,
        )
        .unwrap();
        (report, sink.finish().unwrap())
    };
    let (report, trace, _) = stepped_multi(
        &placed.catalog,
        &timing,
        algorithm,
        1,
        &FaultConfig::NONE,
        process,
    );
    assert_eq!(writeback.0.deltas_flushed, 0, "a write was flushed");
    assert!(report.completed > 0, "no reads completed");
    assert_eq!(writeback.0.reads, report, "write-back reports diverge");
    assert_eq!(writeback.1, trace, "write-back JSONL traces diverge");
}
