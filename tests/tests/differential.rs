//! Differential tests: the multi-drive core stepping **one** drive must
//! reproduce the paper's configuration (one drive, closed queue) exactly
//! as the dedicated single-drive engine did — the same requests complete
//! at the same instants in the same order, and the metrics reports agree
//! field-for-field.
//!
//! That engine has been removed, so its outputs are kept as data. Each row
//! of `tests/golden/one_drive_reports.txt` is one scenario in the row
//! format of [`integration_tests::pinned`]. The table was recorded from
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

use integration_tests::light_faults;
use integration_tests::pinned::{self, Table};
use tapesim::layout::{build_placement, PlacementConfig, PlacementScheme};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
use tapesim::sim::{run_multi_drive_traced, MemorySink, MetricsReport, SimConfig, TraceRecord};
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

const TABLE: Table<Scenario> = Table {
    file: GOLDEN,
    test: "differential",
    all: scenarios,
    name: Scenario::name,
    row: |sc| {
        let (report, trace) = run(sc);
        pinned::row(&sc.name(), &report, &trace)
    },
};

#[test]
fn one_drive_multidrive_matches_engine_exactly() {
    TABLE.assert_pinned(&baseline_scenarios());
}

#[test]
fn one_drive_differential_holds_under_replication() {
    TABLE.assert_pinned(&replicated_scenarios());
}

#[test]
fn one_drive_differential_holds_under_faults() {
    TABLE.assert_pinned(&faulted_scenarios());
}
