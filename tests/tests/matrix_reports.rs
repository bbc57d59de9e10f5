//! Seven whole runs across the simulator's hot paths, pinned as data: the
//! read core on one drive (`engine-fifo`), envelope extension under full
//! replication (`envelope-heavy`), four drives (`multi-drive`), fault
//! injection with replica failover (`faulted`), the traced entry point
//! (`traced-null-sink`), the service layer over external arrivals
//! (`stepped-service`) and a 200-tape burst storm (`fleet-scale-serial`).
//! Host time for this traffic is measured outside the test suite (README
//! "Performance"); here only the simulated work is checked, which is
//! exact on any host.
//!
//! Each scenario runs once at quick scale with seed `default_seeds(1)[0]`.
//! Its row in `tests/golden/matrix_reports.txt` is in the format of
//! [`integration_tests::pinned`]: the work counters `completed` and
//! `physical_reads`, throughput, and hashes of the whole report and of
//! the completion sequence, so any change to the simulated work, however
//! small, moves a row. Each scenario also runs untraced and must report
//! exactly what its traced run reports, a second traced run in the same
//! process must repeat the first event for event, and the five closed-queue
//! scenarios must obey Little's law run by run.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test matrix_reports
//! ```

use integration_tests::pinned::{self, Table};
use integration_tests::splitmix;
use tapesim::layout::{BlockId, LayoutKind, PlacedCatalog};
use tapesim::model::{substream, FaultConfig, JukeboxGeometry, Micros, SimTime};
use tapesim::sched::{make_scheduler, AlgorithmId, TapeSelectPolicy};
use tapesim::sim::{
    default_seeds, run_multi_drive_traced, run_one, AdmissionPolicy, JukeboxService, MemorySink,
    MetricsReport, NullSink, RunSpec, ServiceConfig, SimConfig, SimError, SteppedMultiDrive,
    TraceRecord, TraceSink,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};
use tapesim::{ExperimentConfig, Scale};

/// The fault substream `run_one` derives from a workload seed
/// (`sim::runner`); the traced route must draw the same faults.
const RUN_ONE_FAULT_STREAM: u64 = 0x200;

/// The entry point a scenario runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// A generated closed queue, as [`run_one`] runs it.
    Runner,
    /// [`run_multi_drive_traced`] with the workload seed as fault seed.
    Traced,
    /// [`JukeboxService`] over the external-arrival stepped core.
    SteppedService,
    /// The external-arrival stepped core under a fleet-scale burst storm.
    FleetScale,
}

struct Scenario {
    name: &'static str,
    cfg: ExperimentConfig,
    route: Route,
}

fn seed() -> u64 {
    default_seeds(1)[0]
}

/// Every scenario, in the table's row order.
fn scenarios() -> Vec<Scenario> {
    let baseline = ExperimentConfig {
        scale: Scale::Quick,
        ..ExperimentConfig::paper_baseline()
    };
    vec![
        Scenario {
            name: "engine-fifo",
            cfg: ExperimentConfig {
                algorithm: AlgorithmId::Fifo,
                process: ArrivalProcess::Closed { queue_length: 60 },
                ..baseline.clone()
            },
            route: Route::Runner,
        },
        Scenario {
            name: "envelope-heavy",
            cfg: ExperimentConfig {
                process: ArrivalProcess::Closed { queue_length: 140 },
                scale: Scale::Quick,
                ..ExperimentConfig::paper_full_replication()
            },
            route: Route::Runner,
        },
        Scenario {
            name: "multi-drive",
            cfg: ExperimentConfig {
                drives: 4,
                algorithm: AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
                process: ArrivalProcess::Closed { queue_length: 140 },
                ..baseline.clone()
            },
            route: Route::Runner,
        },
        Scenario {
            name: "faulted",
            cfg: ExperimentConfig {
                layout: LayoutKind::Vertical,
                replicas: 2,
                sp: 1.0,
                algorithm: AlgorithmId::paper_recommended(),
                process: ArrivalProcess::Closed { queue_length: 60 },
                faults: FaultConfig {
                    media_error_per_read: 0.01,
                    media_retries: 1,
                    tape_mtbf: Some(Micros::from_secs(200_000)),
                    tape_mttr: Some(Micros::from_secs(20_000)),
                    ..FaultConfig::NONE
                },
                ..baseline.clone()
            },
            route: Route::Runner,
        },
        Scenario {
            name: "traced-null-sink",
            cfg: ExperimentConfig {
                algorithm: AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
                process: ArrivalProcess::Closed { queue_length: 140 },
                ..baseline.clone()
            },
            route: Route::Traced,
        },
        Scenario {
            name: "stepped-service",
            cfg: ExperimentConfig {
                drives: 2,
                replicas: 1,
                sp: 1.0,
                algorithm: AlgorithmId::paper_recommended(),
                // Transient copy losses make retries worth their while:
                // a failed read heals, so a backed-off resubmission can
                // succeed where the first attempt failed.
                faults: FaultConfig {
                    media_error_per_read: 0.02,
                    copy_heal_mttr: Some(Micros::from_secs(2_000)),
                    ..FaultConfig::NONE
                },
                ..baseline.clone()
            },
            route: Route::SteppedService,
        },
        Scenario {
            name: "fleet-scale-serial",
            cfg: ExperimentConfig {
                geometry: JukeboxGeometry::new(200, 3_500),
                drives: 8,
                replicas: 1,
                sp: 1.0,
                // A sweeping scheduler: FIFO serves one request per tape
                // visit, which can never drain a fleet-scale burst before
                // the engine's saturation cutoff ends the run.
                algorithm: AlgorithmId::Static(TapeSelectPolicy::MaxRequests),
                // External arrivals: the process only seeds the factory.
                process: ArrivalProcess::Closed { queue_length: 1 },
                ..baseline
            },
            route: Route::FleetScale,
        },
    ]
}

/// An external-arrival engine for `cfg`, recording into `sink`.
fn external_engine<'a>(
    cfg: &'a ExperimentConfig,
    placed: &'a PlacedCatalog,
    sim: &SimConfig,
    scheduler: &'a mut dyn tapesim::sched::Scheduler,
    factory: &'a mut RequestFactory,
    sink: &'a mut dyn TraceSink,
) -> SteppedMultiDrive<'a> {
    SteppedMultiDrive::new_external(
        &placed.catalog,
        &cfg.timing,
        scheduler,
        factory,
        sim,
        cfg.drives,
        &cfg.faults,
        seed(),
        sink,
    )
    .unwrap()
}

/// `stepped-service`: 8 submissions every 2,000 simulated seconds over
/// the first 90% of the horizon, through a shed-oldest service with
/// deadlines and capped-backoff retries.
fn run_service(
    cfg: &ExperimentConfig,
    placed: &PlacedCatalog,
    sim: &SimConfig,
    sink: &mut dyn TraceSink,
) -> MetricsReport {
    let sampler = BlockSampler::from_catalog(&placed.catalog, cfg.rh_percent);
    let mut factory =
        RequestFactory::new_clustered(sampler, cfg.process, cfg.cluster_run_p, seed());
    let mut scheduler = make_scheduler(cfg.algorithm);
    let engine = external_engine(cfg, placed, sim, scheduler.as_mut(), &mut factory, sink);
    let mut svc = JukeboxService::new(
        engine,
        ServiceConfig {
            queue_capacity: 64,
            admission: AdmissionPolicy::ShedOldest,
            deadline: Some(Micros::from_secs(40_000)),
            max_retries: 2,
            backoff_base: Micros::from_secs(60),
            backoff_cap: Micros::from_secs(960),
        },
    )
    .unwrap();
    let blocks = u64::from(placed.catalog.num_blocks().max(1));
    let mut next_u64 = splitmix(seed());
    let horizon_s = sim.duration.as_micros() / 1_000_000;
    let mut at_s = 0u64;
    while at_s < horizon_s * 9 / 10 {
        for j in 0..8u64 {
            let block = BlockId(u32::try_from(next_u64() % blocks).unwrap());
            let at = SimTime::ZERO + Micros::from_secs(at_s) + Micros::from_micros(j);
            match svc.submit(block, at) {
                Ok(_) | Err(SimError::Overloaded) => {}
                Err(e) => panic!("stepped-service: {e}"),
            }
        }
        at_s += 2_000;
    }
    let (report, stats) = svc.drain().unwrap();
    assert!(stats.check_conservation(), "stepped-service: {stats:?}");
    report
}

/// `fleet-scale-serial`: one 1,800-request burst per ~16.7 ks of sim
/// time, each request on its own microsecond tick, drained by 8 drives
/// between bursts. Draws skip the replicated hot set and concentrate on
/// a few residues of the round-robin stripe, so each burst builds long
/// single-tape sweeps.
fn run_fleet(
    cfg: &ExperimentConfig,
    placed: &PlacedCatalog,
    sim: &SimConfig,
    sink: &mut dyn TraceSink,
) -> MetricsReport {
    let sampler = BlockSampler::from_catalog(&placed.catalog, cfg.rh_percent);
    let mut factory =
        RequestFactory::new_clustered(sampler, cfg.process, cfg.cluster_run_p, seed());
    let mut scheduler = make_scheduler(cfg.algorithm);
    let mut engine = external_engine(cfg, placed, sim, scheduler.as_mut(), &mut factory, sink);
    let blocks = u64::from(placed.catalog.num_blocks().max(1));
    let stride = u64::from(placed.catalog.geometry().tapes).max(1);
    let base = blocks / 10;
    let span = ((blocks - base) / stride).max(1);
    let mut next_u64 = splitmix(seed());
    let horizon_s = sim.duration.as_micros() / 1_000_000;
    // 8 drives at roughly one stop per 72 s drain ~1,850 requests per
    // gap, so each burst is gone just before the next lands.
    let burst_gap_s = 16_666u64.clamp(1, horizon_s.max(1));
    let mut at_s = 0u64;
    while at_s < horizon_s * 9 / 10 {
        let t0 = SimTime::ZERO + Micros::from_secs(at_s);
        for i in 0..1_800u64 {
            let x = next_u64();
            let block = (base + stride * ((x >> 8) % span) + x % 8) % blocks;
            let block = BlockId(u32::try_from(block).unwrap());
            match engine.submit_at(block, t0 + Micros::from_micros(i + 1)) {
                Ok(_) | Err(SimError::Overloaded) => {}
                Err(e) => panic!("fleet-scale-serial: {e}"),
            }
        }
        engine
            .step_until(t0 + Micros::from_secs(burst_gap_s))
            .unwrap();
        let _ = engine.drain_events();
        at_s += burst_gap_s;
    }
    engine.step_until(engine.horizon()).unwrap();
    let _ = engine.drain_events();
    engine.finish()
}

/// The [`RunSpec`] of a generated closed-queue scenario.
fn run_spec<'a>(cfg: &'a ExperimentConfig, placed: &'a PlacedCatalog) -> RunSpec<'a> {
    RunSpec {
        catalog: &placed.catalog,
        timing: &cfg.timing,
        algorithm: cfg.algorithm,
        process: cfg.process,
        rh_percent: cfg.rh_percent,
        cluster_run_p: cfg.cluster_run_p,
        drives: cfg.drives,
        config: Scale::Quick.sim_config(),
        faults: cfg.faults,
    }
}

/// Runs `sc` once, recording every event into `sink`.
fn run(sc: &Scenario, placed: &PlacedCatalog, sink: &mut dyn TraceSink) -> MetricsReport {
    let cfg = &sc.cfg;
    let sim = Scale::Quick.sim_config();
    let fault_seed = match sc.route {
        Route::Runner => substream(seed(), RUN_ONE_FAULT_STREAM),
        Route::Traced => seed(),
        Route::SteppedService => return run_service(cfg, placed, &sim, sink),
        Route::FleetScale => return run_fleet(cfg, placed, &sim, sink),
    };
    let sampler = BlockSampler::from_catalog(&placed.catalog, cfg.rh_percent);
    let mut factory =
        RequestFactory::new_clustered(sampler, cfg.process, cfg.cluster_run_p, seed());
    let mut scheduler = make_scheduler(cfg.algorithm);
    run_multi_drive_traced(
        &placed.catalog,
        &cfg.timing,
        scheduler.as_mut(),
        &mut factory,
        &sim,
        cfg.drives,
        &cfg.faults,
        fault_seed,
        sink,
    )
    .unwrap()
}

/// `sc`'s report and trace, recorded into a [`MemorySink`].
fn run_traced(sc: &Scenario) -> (MetricsReport, Vec<TraceRecord>) {
    let placed = sc.cfg.build_catalog().unwrap();
    let mut sink = MemorySink::default();
    let report = run(sc, &placed, &mut sink);
    (report, sink.into_events())
}

/// `sc`'s reports from the untraced entry points: the route on a
/// [`NullSink`], and [`run_one`] wherever the route generates a closed
/// queue.
fn untraced_reports(sc: &Scenario) -> Vec<MetricsReport> {
    let placed = sc.cfg.build_catalog().unwrap();
    let mut reports = vec![run(sc, &placed, &mut NullSink)];
    if matches!(sc.route, Route::Runner | Route::Traced) {
        reports.push(run_one(&run_spec(&sc.cfg, &placed), seed()).unwrap());
    }
    reports
}

const TABLE: Table<Scenario> = Table {
    file: "matrix_reports.txt",
    test: "matrix_reports",
    all: scenarios,
    name: |sc| sc.name.to_owned(),
    row: |sc| {
        let (report, trace) = run_traced(sc);
        pinned::row(sc.name, &report, &trace)
    },
};

#[test]
fn every_matrix_scenario_matches_its_pinned_report() {
    TABLE.assert_pinned(&scenarios());
}

/// Two runs of a scenario in one process record the same events and
/// report the same numbers: nothing carries over from one run to the
/// next.
#[test]
fn same_seed_runs_report_identical_work_counters() {
    for sc in scenarios() {
        let first = run_traced(&sc);
        let second = run_traced(&sc);
        assert!(first == second, "{} must be deterministic", sc.name);
    }
}

#[test]
fn untraced_runs_report_exactly_what_traced_runs_do() {
    for sc in scenarios() {
        let (traced, _) = run_traced(&sc);
        for (i, untraced) in untraced_reports(&sc).iter().enumerate() {
            assert_eq!(untraced, &traced, "{}: untraced entry point {i}", sc.name);
        }
    }
}

/// Little's law per run, with the bound derived in
/// `tests/tests/littles_law.rs`: in a closed queue of length `Q`, the `N`
/// requests completed in a window of length `T` with mean delay `W` and
/// longest delay `D_max` satisfy `|N·W − Q·T| / (Q·T) ≤ D_max / T`. A
/// single run needs no seed-averaging caveat. A request that fails
/// permanently leaves the queue short, so the bound also needs none to
/// fail.
#[test]
fn closed_queue_scenarios_obey_littles_law_per_run() {
    let mut checked = Vec::new();
    for sc in scenarios() {
        let ArrivalProcess::Closed { queue_length } = sc.cfg.process else {
            panic!("{}: every matrix scenario is closed", sc.name);
        };
        if !matches!(sc.route, Route::Runner | Route::Traced) {
            // External arrivals: the closed process only seeds the factory.
            continue;
        }
        let placed = sc.cfg.build_catalog().unwrap();
        let r = run_one(&run_spec(&sc.cfg, &placed), seed()).unwrap();
        assert_eq!(r.failed_requests, 0, "{}: requests failed", sc.name);
        let (n, q, t) = (r.completed as f64, f64::from(queue_length), r.window_secs);
        let deviation = (n * r.mean_delay_s - q * t).abs() / (q * t);
        let bound = r.max_delay_s / t;
        assert!(
            deviation <= bound,
            "{}: |N·W − Q·T| / (Q·T) = {deviation:.6} exceeds D_max / T = {bound:.6}",
            sc.name
        );
        checked.push(sc.name);
    }
    assert_eq!(
        checked,
        [
            "engine-fifo",
            "envelope-heavy",
            "multi-drive",
            "faulted",
            "traced-null-sink"
        ]
    );
}
