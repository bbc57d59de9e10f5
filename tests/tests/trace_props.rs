//! Property tests over the event-trace layer: every registered scheduler,
//! under randomized workloads and fault configurations, must emit a trace
//! that passes the §2.2 invariant checker, and inert fault injection must
//! leave the trace bit-identical to a fault-free run. The JSONL parser
//! must survive hostile input.

use std::collections::BTreeMap;

use integration_tests::splitmix;
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

    /// Write-back traces (reads + delta flushes) satisfy the same
    /// invariants under every scheduler and both destage policies, and
    /// their delta-flush records account for every block flushed.
    #[test]
    fn writeback_traces_are_valid(
        seed in 0u64..10_000,
        alg_pick in 0usize..1000,
        policy_pick in 0usize..2,
        write_gap_s in 100u64..400,
    ) {
        let algorithms = AlgorithmId::all();
        let algorithm = algorithms[alg_pick % algorithms.len()];
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
        let mut sched = make_scheduler(algorithm);
        let mut sink = MemorySink::new();
        let report = run_with_writeback_traced(
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
                    "write-back {algorithm:?} policy {policy_pick} seed {seed}: first violation: {}",
                    v[0]
                )));
            }
        };
        prop_assert!(stats.completions > 0);
        prop_assert_eq!(stats.delta_blocks, report.deltas_flushed);
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

/// Every key of the trace schema, and every event kind.
const KEYS: [&str; 21] = [
    "seq",
    "t_us",
    "drive",
    "ev",
    "req",
    "block",
    "tape",
    "inserted",
    "stops",
    "reqs",
    "phase",
    "from",
    "to",
    "dur_us",
    "slot",
    "delay_us",
    "from_tape",
    "to_tape",
    "robot",
    "blocks",
    "piggyback",
];
const KINDS: [&str; 22] = [
    "arrival",
    "incremental",
    "sweep_start",
    "phase_start",
    "locate",
    "read",
    "rewind",
    "unmount",
    "mount",
    "sweep_end",
    "complete",
    "idle",
    "media_error",
    "copy_lost",
    "load_failed",
    "tape_offline",
    "drive_repair",
    "request_failed",
    "failover",
    "robot_busy",
    "robot_exchange",
    "delta_flush",
];

/// A well-typed value for `key`: the values a valid line carries.
fn typed_value(key: &str, x: u64) -> String {
    match key {
        "ev" => format!("\"{}\"", KINDS[(x % 22) as usize]),
        "phase" => ["\"forward\"", "\"reverse\""][(x % 2) as usize].to_owned(),
        "inserted" | "piggyback" => ["true", "false"][(x % 2) as usize].to_owned(),
        _ => (x % 1_000).to_string(),
    }
}

/// A well-formed value that may still be refused: signed, zero-padded or
/// quoted integers, and integers at and past the 16-, 32- and 64-bit
/// limits the fields are narrowed to.
fn edge_value(x: u64) -> String {
    match x % 9 {
        0 => format!("+{}", x % 100),
        1 => format!("00{}", x % 100),
        2 => "65535".to_owned(),
        3 => "65536".to_owned(),
        4 => "4294967295".to_owned(),
        5 => "4294967296".to_owned(),
        6 => "18446744073709551615".to_owned(),
        7 => "18446744073709551616".to_owned(),
        _ => format!("\"{}\"", x % 100),
    }
}

/// A malformed value, or one of the wrong type.
fn hostile_value(x: u64) -> String {
    match x % 8 {
        0 => String::new(),
        1 => "\"\"".to_owned(),
        2 => "-1".to_owned(),
        3 => "1.5".to_owned(),
        4 => "\"unterminated".to_owned(),
        5 => format!("\"{}\"", KINDS[((x >> 3) % 22) as usize]),
        6 => "{}".to_owned(),
        _ => "true".to_owned(),
    }
}

/// One line of a trace, built from `seed` alone: `kind` 0 is a complete
/// well-typed line, 1 the same with one value at an edge, 2 with one key
/// dropped or one value malformed, 3 random keys with random values, and
/// 4 structural junk.
fn trace_line(kind: usize, seed: u64) -> String {
    let mut next = splitmix(seed);
    let field = |k: &str, v: &str| format!("\"{k}\":{v}");
    let fields: Vec<String> = match kind {
        0..=2 => {
            let spoil = (next() % KEYS.len() as u64) as usize;
            let drop = kind == 2 && next() & 1 == 0;
            KEYS.iter()
                .enumerate()
                .filter(|&(i, _)| i != spoil || !drop)
                .map(|(i, k)| {
                    let x = next();
                    match kind {
                        1 if i == spoil => field(k, &edge_value(x)),
                        2 if i == spoil => field(k, &hostile_value(x)),
                        _ => field(k, &typed_value(k, x)),
                    }
                })
                .collect()
        }
        3 => (0..next() % 24)
            .map(|_| {
                let key = KEYS[(next() % KEYS.len() as u64) as usize];
                let x = next();
                match x % 3 {
                    0 => field(key, &hostile_value(x >> 2)),
                    1 => field(key, &edge_value(x >> 2)),
                    _ => field(key, &typed_value(key, x >> 2)),
                }
            })
            .collect(),
        _ => {
            let junk = [
                "{", "}", "\"", ":", ",", " ", "seq", "ev", "7", "\r", "\t", "é",
            ];
            return (0..next() % 40)
                .map(|_| junk[(next() % junk.len() as u64) as usize])
                .collect();
        }
    };
    format!("{{{}}}", fields.join(","))
}

/// Whatever parses re-serializes to what was parsed: the written trace
/// parses back to the same records, and every field it writes has the
/// value the input line gave it (integers compared by value; the parser
/// ignores keys outside an event's schema).
fn check_round_trip(text: &str) -> Result<(), proptest::test_runner::TestCaseError> {
    let Ok(records) = jsonl::parse_records(text) else {
        return Ok(());
    };
    let written = jsonl::to_jsonl_string(&records);
    prop_assert_eq!(jsonl::parse_records(&written), Ok(records));
    let (out, input) = (fields_by_value(&written), fields_by_value(text));
    prop_assert_eq!(out.len(), input.len());
    for (line, (out, input)) in out.iter().zip(&input).enumerate() {
        for (key, value) in out {
            prop_assert!(
                input.get(key) == Some(value),
                "line {}: wrote {key}={value}, parsed {:?}",
                line + 1,
                input.get(key)
            );
        }
    }
    Ok(())
}

proptest! {
    /// Input not derived from any valid trace never panics the parser:
    /// random bytes, and random mixes of complete, edge, spoiled, random
    /// and junk lines, each line also on its own. Complete well-typed
    /// lines always parse, and whatever parses round-trips through the
    /// writer.
    #[test]
    fn random_traces_parse_or_error_and_round_trip(
        bytes in proptest::collection::vec(0u16..256, 0..200),
        lines in proptest::collection::vec((0usize..5, 0u64..u64::MAX), 0..12),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| u8::try_from(b).unwrap()).collect();
        let random = String::from_utf8_lossy(&bytes).into_owned();
        let text = |keep: fn(usize) -> bool| -> String {
            lines
                .iter()
                .filter(|&&(kind, _)| keep(kind))
                .map(|&(kind, seed)| trace_line(kind, seed) + "\n")
                .collect()
        };
        let (mixed, complete) = (text(|_| true), text(|kind| kind == 0));
        prop_assert!(
            jsonl::parse_records(&complete).is_ok(),
            "complete well-typed lines refused: {complete}"
        );
        for text in [&random, &mixed, &complete] {
            check_round_trip(text)?;
        }
        for &(kind, seed) in &lines {
            check_round_trip(&trace_line(kind, seed))?;
        }
    }
}
