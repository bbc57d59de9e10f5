//! Property tests over the event-trace layer: every registered scheduler,
//! under randomized workloads and fault configurations, must emit a trace
//! that passes the §2.2 invariant checker, and inert fault injection must
//! leave the trace bit-identical to a fault-free run. The JSONL parser
//! must survive hostile input.

use std::collections::BTreeMap;

use proptest::prelude::*;

use tapesim::layout::{build_placement, PlacementConfig, PlacementScheme};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, Micros, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId};
use tapesim::sim::trace::jsonl;
use tapesim::sim::{
    check_trace, run_multi_drive_traced, run_with_writeback_traced, FlushPolicy, MemorySink,
    SimConfig, TraceRecord, WriteBackConfig,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};

/// The fault presets the checker must hold under: none, noisy media and
/// loads, and transient whole-tape failures.
fn fault_preset(idx: usize) -> FaultConfig {
    match idx % 3 {
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

/// Runs one traced simulation and returns its trace.
fn run_traced(
    replicas: u32,
    algorithm: AlgorithmId,
    process: ArrivalProcess,
    drives: u16,
    faults: &FaultConfig,
    seed: u64,
    fault_seed: u64,
) -> Vec<TraceRecord> {
    let placed = build_placement(
        JukeboxGeometry::FIVE_TAPE,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig {
            scheme: PlacementScheme::Replication { nr: replicas },
            ..PlacementConfig::paper_baseline()
        },
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let cfg = SimConfig::quick();
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(sampler, process, seed);
    let mut sched = make_scheduler(algorithm);
    let mut sink = MemorySink::new();
    run_multi_drive_traced(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &cfg,
        drives,
        faults,
        fault_seed,
        &mut sink,
    )
    .unwrap();
    sink.into_events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every registered scheduler, on closed or open workloads with any
    /// fault preset and drive count, produces a physically valid trace.
    #[test]
    fn all_schedulers_emit_valid_traces(
        alg_pick in 0usize..1000,
        seed in 0u64..10_000,
        drives in 1u16..=3,
        fault_pick in 0usize..3,
        open in 0usize..2,
        replicated in 0usize..2,
    ) {
        let algorithms = AlgorithmId::all();
        let algorithm = algorithms[alg_pick % algorithms.len()];
        let process = if open == 1 {
            ArrivalProcess::OpenPoisson { mean_interarrival: Micros::from_secs(240) }
        } else {
            ArrivalProcess::Closed { queue_length: 30 }
        };
        // Replication only matters with replicas placed; vertical
        // full-replication needs spare capacity, so stay with 1 replica.
        let replicas = replicated as u32;
        let faults = fault_preset(fault_pick);
        let trace = run_traced(replicas, algorithm, process, drives, &faults, seed, seed ^ 0xFA17);
        let stats = match check_trace(&trace) {
            Ok(s) => s,
            Err(v) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "{algorithm:?} drives={drives} fault={fault_pick} seed={seed}: \
                     {} violations, first: {}",
                    v.len(),
                    v[0]
                )));
            }
        };
        prop_assert!(stats.events > 0);
        // Conservation closes: every arrival terminates or is outstanding.
        prop_assert_eq!(
            stats.arrivals,
            stats.completions + stats.failures + stats.outstanding
        );
        // Work happened on a fault-free closed run.
        if fault_pick == 0 && open == 0 {
            prop_assert!(stats.completions > 0);
            prop_assert_eq!(stats.failures, 0);
        }
    }

    /// An inert fault configuration consumes no randomness: whatever the
    /// fault seed, the trace is identical to the fault-free one.
    #[test]
    fn inert_faults_leave_the_trace_untouched(
        alg_pick in 0usize..1000,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        drives in 1u16..=2,
    ) {
        let algorithms = AlgorithmId::all();
        let algorithm = algorithms[alg_pick % algorithms.len()];
        let process = ArrivalProcess::Closed { queue_length: 25 };
        let base = run_traced(0, algorithm, process, drives, &FaultConfig::NONE, seed, 0);
        let other = run_traced(0, algorithm, process, drives, &FaultConfig::NONE, seed, fault_seed);
        prop_assert_eq!(base.len(), other.len());
        prop_assert!(base == other, "inert fault seed changed the trace for {:?}", algorithm);
    }

    /// The write-back engine's traces (reads + delta flushes) satisfy the
    /// same invariants under both destage policies.
    #[test]
    fn writeback_traces_are_valid(
        seed in 0u64..10_000,
        policy_pick in 0usize..2,
        write_gap_s in 100u64..400,
    ) {
        let placed = build_placement(
            JukeboxGeometry::FIVE_TAPE,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig::paper_baseline(),
        )
        .unwrap();
        let timing = TimingModel::paper_default();
        let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
        let mut factory = RequestFactory::new(
            sampler,
            ArrivalProcess::OpenPoisson { mean_interarrival: Micros::from_secs(300) },
            seed,
        );
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let mut sink = MemorySink::new();
        run_with_writeback_traced(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            &WriteBackConfig {
                write_mean_interarrival: Micros::from_secs(write_gap_s),
                flush_batch: 5,
                piggyback_min: 2,
                policy: if policy_pick == 0 { FlushPolicy::IdleOnly } else { FlushPolicy::Piggyback },
            },
            seed ^ 0xDE17A,
            &mut sink,
        )
        .unwrap();
        let trace = sink.into_events();
        let stats = match check_trace(&trace) {
            Ok(s) => s,
            Err(v) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "write-back policy {policy_pick} seed {seed}: first violation: {}",
                    v[0]
                )));
            }
        };
        prop_assert!(stats.completions > 0);
    }
}

/// A golden trace: the hostile-input corpus of the parser property below.
const GOLDEN: &str = include_str!("../golden/two_tapes_envelope.jsonl");

/// A trace's field maps with integers compared by value (`04` is `4`).
fn fields_by_value(text: &str) -> Vec<BTreeMap<String, String>> {
    let maps = jsonl::parse(text).expect("records parse, so their fields do");
    maps.into_iter()
        .map(|m| {
            m.into_iter()
                .map(|(k, v)| (k, v.parse::<u64>().map_or(v, |n| n.to_string())))
                .collect()
        })
        .collect()
}

proptest! {
    /// Hostile input never panics the JSONL trace parser: any truncation
    /// and any single-byte (ASCII) mutation of a golden trace parses to
    /// records or to a typed error. Whatever parses is exactly what the
    /// text says: the writer reproduces every field's value.
    #[test]
    fn truncated_or_mutated_traces_never_panic_the_parser(
        cut in 0usize..=GOLDEN.len(),
        pos in 0usize..GOLDEN.len(),
        byte in 0u16..128,
    ) {
        let mut mutated = GOLDEN.as_bytes().to_vec();
        mutated[pos] = u8::try_from(byte).unwrap();
        let mutated = String::from_utf8(mutated).unwrap();
        for text in [&GOLDEN[..cut], mutated.as_str()] {
            if let Ok(records) = jsonl::parse_records(text) {
                let written = jsonl::to_jsonl_string(&records);
                prop_assert_eq!(fields_by_value(&written), fields_by_value(text));
            }
        }
    }
}
