//! Differential tests: the multi-drive core stepping **one** drive must
//! reproduce the paper's configuration (one drive, closed queue) exactly
//! as the dedicated single-drive engine did — the same requests complete
//! at the same instants in the same order, and the metrics reports agree
//! field-for-field.
//!
//! That engine has been removed, so its outputs are kept as data. Each row
//! of `tests/golden/one_drive_reports.txt` is one scenario: the
//! `completed`, `physical_reads` and throughput figures, an FNV-1a hash
//! of the whole [`MetricsReport`] (its `Debug` rendering, which prints
//! every `f64` exactly), and a hash of the completion sequence
//! `(instant µs, request id)` in trace order. The table was recorded from
//! the single-drive engine; every row must match exactly.
//!
//! Only closed workloads are pinned. Open-queue runs move by the
//! multi-drive core's one-microsecond idle wake; the nightly
//! `results-drift` job guards them at printed precision.
//!
//! To regenerate after an intentional engine change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test differential
//! ```

use std::path::{Path, PathBuf};
use std::sync::Once;

use integration_tests::light_faults;
use tapesim::layout::{build_placement, PlacementConfig, PlacementScheme};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
use tapesim::sim::{
    check_trace, run_multi_drive_traced, MemorySink, MetricsReport, SimConfig, TraceEvent,
    TraceRecord,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};

const GOLDEN: &str = "one_drive_reports.txt";
const FAULT_SEED: u64 = 11;

/// One pinned scenario: closed queue of 40, RH-40, quick horizon.
struct Scenario {
    algorithm: AlgorithmId,
    nr: u32,
    seed: u64,
    faulty: bool,
}

impl Scenario {
    fn name(&self) -> String {
        format!(
            "{} nr{} seed{} {}",
            self.algorithm.name().replace(' ', "-"),
            self.nr,
            self.seed,
            if self.faulty {
                "light-faults"
            } else {
                "no-faults"
            }
        )
    }
}

const ALGORITHMS: [AlgorithmId; 3] = [
    AlgorithmId::Fifo,
    AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
    AlgorithmId::Envelope(EnvelopePolicy::MaxBandwidth),
];

/// The three algorithms × three seeds on the baseline placement.
fn baseline_scenarios() -> Vec<Scenario> {
    let mut rows = Vec::new();
    for algorithm in ALGORITHMS {
        for seed in [1, 42, 0x1CDE_1999] {
            rows.push(Scenario {
                algorithm,
                nr: 0,
                seed,
                faulty: false,
            });
        }
    }
    rows
}

/// Replicated placement exercises replica selection; the envelope
/// scheduler is the one that uses it.
fn replicated_scenarios() -> Vec<Scenario> {
    [7, 99]
        .into_iter()
        .map(|seed| Scenario {
            algorithm: AlgorithmId::paper_recommended(),
            nr: 1,
            seed,
            faulty: false,
        })
        .collect()
}

/// The three algorithms under every fault class.
fn faulted_scenarios() -> Vec<Scenario> {
    ALGORITHMS
        .into_iter()
        .map(|algorithm| Scenario {
            algorithm,
            nr: 0,
            seed: 1,
            faulty: true,
        })
        .collect()
}

/// Every pinned scenario, in the table's row order.
fn scenarios() -> Vec<Scenario> {
    let mut rows = baseline_scenarios();
    rows.extend(replicated_scenarios());
    rows.extend(faulted_scenarios());
    rows
}

fn run(sc: &Scenario) -> (MetricsReport, Vec<TraceRecord>) {
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig {
            scheme: PlacementScheme::Replication { nr: sc.nr },
            ..PlacementConfig::paper_baseline()
        },
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(
        sampler,
        ArrivalProcess::Closed { queue_length: 40 },
        sc.seed,
    );
    let mut sched = make_scheduler(sc.algorithm);
    let faults = if sc.faulty {
        light_faults()
    } else {
        FaultConfig::NONE
    };
    let mut sink = MemorySink::default();
    let report = run_multi_drive_traced(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &SimConfig::quick(),
        1,
        &faults,
        FAULT_SEED,
        &mut sink,
    )
    .unwrap();
    (report, sink.into_events())
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn row(sc: &Scenario) -> String {
    let (report, trace) = run(sc);
    check_trace(&trace).unwrap_or_else(|v| panic!("{}: trace invalid: {}", sc.name(), v[0]));
    let completions: Vec<u8> = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Complete { req, .. } => Some((r.at.as_micros(), req.0)),
            _ => None,
        })
        .flat_map(|(at, req)| at.to_le_bytes().into_iter().chain(req.to_le_bytes()))
        .collect();
    assert!(!completions.is_empty(), "{}: no completions", sc.name());
    format!(
        "{}: completed={} physical_reads={} throughput_kb_s={:.6} report={:016x} completions={:016x}",
        sc.name(),
        report.completed,
        report.physical_reads,
        report.throughput_kb_per_s,
        fnv1a(format!("{report:?}").into_bytes()),
        fnv1a(completions),
    )
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(GOLDEN)
}

/// Checks `group`'s rows against the pinned table. With `UPDATE_GOLDEN`
/// set it rewrites the whole table instead: the first test to get here
/// writes it and the others wait for it.
fn assert_pinned(group: &[Scenario]) {
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        static REGENERATED: Once = Once::new();
        REGENERATED.call_once(|| {
            let table: String = scenarios().iter().map(|sc| row(sc) + "\n").collect();
            std::fs::write(&path, table).unwrap();
            eprintln!("regenerated {}", path.display());
        });
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(regenerate with UPDATE_GOLDEN=1 \
             cargo test -p integration-tests --test differential)",
            path.display()
        )
    });
    let pinned: Vec<&str> = expected.lines().collect();
    assert_eq!(
        pinned.len(),
        scenarios().len(),
        "{GOLDEN} must hold one row per scenario"
    );
    let diverged: Vec<String> = group
        .iter()
        .filter_map(|sc| {
            let actual = row(sc);
            let key = format!("{}: ", sc.name());
            match pinned.iter().find(|line| line.starts_with(&key)) {
                Some(line) if *line == actual => None,
                Some(line) => Some(format!("  pinned: {line}\n  actual: {actual}")),
                None => Some(format!("  not pinned: {actual}")),
            }
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "one-drive reports diverge from {GOLDEN}:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn one_drive_multidrive_matches_engine_exactly() {
    assert_pinned(&baseline_scenarios());
}

#[test]
fn one_drive_differential_holds_under_replication() {
    assert_pinned(&replicated_scenarios());
}

#[test]
fn one_drive_differential_holds_under_faults() {
    assert_pinned(&faulted_scenarios());
}
