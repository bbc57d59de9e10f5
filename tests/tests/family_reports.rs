//! The static and dynamic families (§3.1) pinned end to end: every
//! tape-selection policy in both families, a few of them under faults, and
//! one fleet recall driven through `submit_at` bursts. Each row of
//! `tests/golden/family_reports.txt` is one scenario in the row format of
//! [`integration_tests::pinned`], and every row must match exactly: tape
//! selection and extraction may change how they find the pending work, not
//! what they pick or in which order they take it.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test family_reports
//! ```

use integration_tests::light_faults;
use integration_tests::pinned::{self, Table};
use tapesim::layout::{
    build_fleet_placement, build_placement, LayoutKind, PlacementConfig, PlacementScheme,
    ReplicaScope,
};
use tapesim::model::{
    BlockSize, FaultConfig, InterLibraryModel, JukeboxGeometry, Micros, RobotModel, SimTime,
    TimingModel, Topology,
};
use tapesim::sched::{make_scheduler, AlgorithmId, TapeSelectPolicy};
use tapesim::sim::{
    run_multi_drive_traced, MemorySink, MetricsReport, SimConfig, SteppedMultiDrive, TraceRecord,
};
use tapesim::workload::{generate_trace, ArrivalProcess, BlockSampler, RequestFactory};

const GOLDEN: &str = "family_reports.txt";
const SEED: u64 = 1;
const FAULT_SEED: u64 = 11;

/// Closed rows: NR-1 on the paper's jukebox, 2 drives, queue of 60.
const DRIVES: u16 = 2;
const QUEUE: u32 = 60;

/// The fleet row: 4 libraries × 2 drives × 1 arm, 10 tapes each, NR-1
/// replicas in other libraries; bursts of RH-40 reads, the shape of
/// tapebench's `fleet-recall` at a fifth of its tapes.
const LIBRARIES: u16 = 4;
const BURST: usize = 1_200;
const BURST_GAP_S: u64 = 16_666;

enum Scenario {
    Closed {
        algorithm: AlgorithmId,
        faulty: bool,
    },
    FleetRecall,
}

impl Scenario {
    fn name(&self) -> String {
        match self {
            Scenario::Closed { algorithm, faulty } => format!(
                "{} nr1 drives{DRIVES} queue{QUEUE} seed{SEED} {}",
                algorithm.name().replace(' ', "-"),
                if *faulty { "light-faults" } else { "no-faults" }
            ),
            Scenario::FleetRecall => {
                format!("fleet-recall static-max-requests {LIBRARIES}x2x1 burst{BURST} seed{SEED}")
            }
        }
    }
}

/// Both families under every policy, fault-free.
fn policy_scenarios() -> Vec<Scenario> {
    TapeSelectPolicy::ALL
        .into_iter()
        .flat_map(|p| [AlgorithmId::Static(p), AlgorithmId::Dynamic(p)])
        .map(|algorithm| Scenario::Closed {
            algorithm,
            faulty: false,
        })
        .collect()
}

/// Three of those under every fault class: offline tapes, stranded
/// requests and requeued sweeps reach tape selection.
fn faulted_scenarios() -> Vec<Scenario> {
    [
        AlgorithmId::Static(TapeSelectPolicy::RoundRobin),
        AlgorithmId::Dynamic(TapeSelectPolicy::MaxRequests),
        AlgorithmId::Static(TapeSelectPolicy::OldestMaxBandwidth),
    ]
    .into_iter()
    .map(|algorithm| Scenario::Closed {
        algorithm,
        faulty: true,
    })
    .collect()
}

/// Every pinned scenario, in the table's row order.
fn scenarios() -> Vec<Scenario> {
    let mut rows = policy_scenarios();
    rows.extend(faulted_scenarios());
    rows.push(Scenario::FleetRecall);
    rows
}

fn run_closed(algorithm: AlgorithmId, faulty: bool) -> (MetricsReport, Vec<TraceRecord>) {
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
    let mut factory = RequestFactory::new(
        BlockSampler::from_catalog(&placed.catalog, 40.0),
        ArrivalProcess::Closed {
            queue_length: QUEUE,
        },
        SEED,
    );
    let mut sched = make_scheduler(algorithm);
    let faults = if faulty {
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
        DRIVES,
        &faults,
        FAULT_SEED,
        &mut sink,
    )
    .unwrap();
    (report, sink.into_events())
}

fn run_fleet_recall() -> (MetricsReport, Vec<TraceRecord>) {
    let topology = Topology::uniform(
        LIBRARIES,
        2,
        1,
        10,
        RobotModel::exb210(),
        InterLibraryModel::DEFAULT,
    )
    .unwrap();
    let placed = build_fleet_placement(
        JukeboxGeometry::new(LIBRARIES * 10, 7 * 1024),
        BlockSize::PAPER_DEFAULT,
        PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 1 },
            sp: 0.0,
        },
        &topology,
        ReplicaScope::CrossLibrary,
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let cfg = SimConfig::quick();
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    // Arrivals stop at 90% of the horizon so the tail drains.
    let horizon_s = cfg.duration.as_micros() / 1_000_000;
    let bursts = (horizon_s * 9 / 10).div_ceil(BURST_GAP_S) as usize;
    let blocks = generate_trace(&sampler, bursts * BURST, SEED);
    // The factory is inert in external mode.
    let mut factory =
        RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, SEED);
    let mut sched = make_scheduler(AlgorithmId::Static(TapeSelectPolicy::MaxRequests));
    let mut sink = MemorySink::default();
    let mut engine = SteppedMultiDrive::new_external_with_topology(
        &placed.catalog,
        &timing,
        topology,
        sched.as_mut(),
        &mut factory,
        &cfg,
        &FaultConfig::NONE,
        FAULT_SEED,
        &mut sink,
    )
    .unwrap();
    for (k, burst) in blocks.chunks(BURST).enumerate() {
        let t0 = SimTime::ZERO + Micros::from_secs(BURST_GAP_S * k as u64);
        for (i, &block) in burst.iter().enumerate() {
            engine
                .submit_at(block, t0 + Micros::from_micros(i as u64 + 1))
                .unwrap();
        }
        engine
            .step_until(t0 + Micros::from_secs(BURST_GAP_S))
            .unwrap();
        let _ = engine.drain_events();
    }
    engine.step_until(engine.horizon()).unwrap();
    let report = engine.finish();
    (report, sink.into_events())
}

const TABLE: Table<Scenario> = Table {
    file: GOLDEN,
    test: "family_reports",
    all: scenarios,
    name: Scenario::name,
    row: |sc| {
        let (report, trace) = match sc {
            Scenario::Closed { algorithm, faulty } => run_closed(*algorithm, *faulty),
            Scenario::FleetRecall => run_fleet_recall(),
        };
        pinned::row(&sc.name(), &report, &trace)
    },
};

#[test]
fn every_policy_of_both_families_matches_its_pinned_report() {
    TABLE.assert_pinned(&policy_scenarios());
}

#[test]
fn families_under_faults_match_their_pinned_reports() {
    TABLE.assert_pinned(&faulted_scenarios());
}

#[test]
fn fleet_recall_bursts_match_their_pinned_report() {
    TABLE.assert_pinned(&[Scenario::FleetRecall]);
}
