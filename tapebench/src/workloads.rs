//! The four benchmark workloads: their configurations, the inputs each
//! makes from the seed, and one repetition of each through the
//! simulator's public entry points.
//!
//! A repetition runs in one of two ways. *Timed* runs use the entry points
//! a user of the library calls (`run_one`, `run_with_writeback`, the
//! external-mode `SteppedMultiDrive`, `JukeboxService`) with tracing off.
//! *Stepped* runs drive the poll-driven cores call by call, so that a
//! [`Probe`] can time each call and a sink can watch the trace; their
//! simulated outcome must equal the timed one exactly.

use std::time::Duration;

use tapesim::layout::{
    build_fleet_placement, BlockId, LayoutKind, PlacedCatalog, PlacementConfig, PlacementScheme,
    ReplicaScope,
};
use tapesim::model::{
    substream, BlockSize, FaultConfig, InterLibraryModel, JukeboxGeometry, Micros, RobotModel,
    SimTime, Topology,
};
use tapesim::sched::{make_scheduler, AlgorithmId, Scheduler, TapeSelectPolicy};
use tapesim::sim::{
    run_one, run_with_writeback, AdmissionPolicy, CheckpointOpts, FlushPolicy, JukeboxService,
    MetricsReport, RunSpec, ServiceConfig, ServiceStats, SimConfig, SimError, StepOutcome,
    SteppedMultiDrive, SteppedWriteBack, TraceSink, WriteBackConfig, WriteBackReport,
};
use tapesim::workload::{generate_trace, ArrivalProcess, BlockSampler, RequestFactory};
use tapesim::ExperimentConfig;

use crate::probe::{now, Probe, Span, TimedScheduler};
use crate::stats::nearest_rank;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's best configuration: vertical layout, NR-9 full
    /// replication at the tape ends, envelope-extension max-bandwidth,
    /// one drive, a closed loop of 140 outstanding requests. Host time is
    /// almost all envelope scheduling plus the single-drive core.
    PaperEnvelope,
    /// Four libraries of two drives and one arm, 200 tapes, NR-1
    /// replicas in other libraries, static max-requests. Open loop:
    /// bursts of RH-40 bulk recalls pushed through `submit_at`. Loads the
    /// calendar queue, robot arbitration and the fleet placement build;
    /// does no envelope work.
    FleetRecall,
    /// `JukeboxService` over two drives, NR-1: Poisson arrivals, a
    /// deadline, a bounded shed-oldest queue, retries, media errors and
    /// tape failures. The only workload crossing admission, deadlines,
    /// retries and failover, and the one whose host cost grows faster
    /// than its horizon (every submission scans every ticket).
    ServiceFaults,
    /// The single-drive write-back core: Poisson reads and delta writes on
    /// the same drive, piggyback destaging. Shows a trade between read
    /// latency and write age.
    WritebackMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperEnvelope,
        Workload::FleetRecall,
        Workload::ServiceFaults,
        Workload::WritebackMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEnvelope => "paper-envelope",
            Workload::FleetRecall => "fleet-recall",
            Workload::ServiceFaults => "service-faults",
            Workload::WritebackMixed => "writeback-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Robot arms in the jukebox.
    pub fn robot_arms(self) -> u16 {
        match self {
            Workload::FleetRecall => FLEET_LIBRARIES * FLEET_ARMS_PER_LIBRARY,
            _ => 1,
        }
    }

    /// Simulated horizon of one repetition, sized so that a repetition
    /// takes about half a second of host time, and so that no workload's
    /// count of delay samples sits near a power of two, where a doubling
    /// `Vec` would make the peak heap jump between seeds.
    fn horizon_secs(self) -> u64 {
        match self {
            Workload::PaperEnvelope => 20_000_000,
            Workload::FleetRecall => 2_200_000,
            Workload::ServiceFaults => 600_000,
            Workload::WritebackMixed => 100_000_000,
        }
    }
}

/// Fleet bursts: 1,800 reads every 16,666 s. Eight drives at about one
/// stop per 72 s drain a burst just before the next one lands.
const BURST: usize = 1_800;
const BURST_GAP_S: u64 = 16_666;

const FLEET_LIBRARIES: u16 = 4;
const FLEET_DRIVES_PER_LIBRARY: u16 = 2;
const FLEET_ARMS_PER_LIBRARY: u16 = 1;
const FLEET_TAPES_PER_LIBRARY: u16 = 50;

const SERVICE_DRIVES: u16 = 2;
const SERVICE_MEAN_INTERARRIVAL_S: u64 = 40;
const SERVICE: ServiceConfig = ServiceConfig {
    queue_capacity: 64,
    admission: AdmissionPolicy::ShedOldest,
    deadline: Some(Micros::from_secs(8_000)),
    max_retries: 2,
    backoff_base: Micros::from_secs(60),
    backoff_cap: Micros::from_secs(960),
};
/// Media errors lose a copy for good, so requests for it fail and the
/// service retries them; short, repairable tape failures make requests
/// fail over to replicas. Many small faults rather than a few large ones
/// (such as losing whole tapes for good) keep the modelled metrics within
/// a few percent from seed to seed.
const SERVICE_FAULTS: FaultConfig = FaultConfig {
    media_error_per_read: 0.01,
    media_retries: 0,
    tape_mtbf: Some(Micros::from_secs(50_000)),
    tape_mttr: Some(Micros::from_secs(2_000)),
    ..FaultConfig::NONE
};

const WB_READ_INTERARRIVAL_S: u64 = 200;
const WRITEBACK: WriteBackConfig = WriteBackConfig {
    write_mean_interarrival: Micros::from_secs(100),
    flush_batch: 10,
    piggyback_min: 5,
    policy: FlushPolicy::Piggyback,
};

/// Substream offsets deriving the fault and write streams from the seed.
const FAULT_STREAM: u64 = 0x200;
const WRITE_STREAM: u64 = 0x300;

/// Percent of requests directed to hot data in every workload.
const RH_PERCENT: f64 = 40.0;

fn paper_envelope_config() -> ExperimentConfig {
    ExperimentConfig {
        process: ArrivalProcess::Closed { queue_length: 140 },
        ..ExperimentConfig::paper_full_replication()
    }
}

fn service_config() -> ExperimentConfig {
    ExperimentConfig {
        drives: SERVICE_DRIVES,
        replicas: 1,
        sp: 1.0,
        algorithm: AlgorithmId::paper_recommended(),
        faults: SERVICE_FAULTS,
        ..ExperimentConfig::paper_baseline()
    }
}

fn fleet_topology() -> Result<Topology, String> {
    Topology::uniform(
        FLEET_LIBRARIES,
        FLEET_DRIVES_PER_LIBRARY,
        FLEET_ARMS_PER_LIBRARY,
        FLEET_TAPES_PER_LIBRARY,
        RobotModel::exb210(),
        InterLibraryModel::DEFAULT,
    )
    .map_err(|e| format!("fleet topology: {e:?}"))
}

fn algorithm(w: Workload) -> AlgorithmId {
    match w {
        Workload::FleetRecall => AlgorithmId::Static(TapeSelectPolicy::MaxRequests),
        _ => AlgorithmId::paper_recommended(),
    }
}

/// Builds the workload's placement (and fleet topology), timed as the
/// layout layer.
fn place(w: Workload, probe: &Probe) -> Result<(PlacedCatalog, Option<Topology>), String> {
    let (placed, topology) = match w {
        Workload::FleetRecall => {
            let t = fleet_topology()?;
            let geometry = JukeboxGeometry::new(
                FLEET_LIBRARIES * FLEET_TAPES_PER_LIBRARY,
                JukeboxGeometry::PAPER_DEFAULT.tape_capacity_mb,
            );
            let cfg = PlacementConfig {
                layout: LayoutKind::Horizontal,
                ph_percent: 10.0,
                scheme: PlacementScheme::Replication { nr: 1 },
                sp: 0.0,
            };
            let placed = probe.span(Span::Layout, || {
                build_fleet_placement(
                    geometry,
                    BlockSize::PAPER_DEFAULT,
                    cfg,
                    &t,
                    ReplicaScope::CrossLibrary,
                )
            });
            (placed, Some(t))
        }
        Workload::PaperEnvelope => (
            probe.span(Span::Layout, || paper_envelope_config().build_catalog()),
            None,
        ),
        Workload::ServiceFaults => (
            probe.span(Span::Layout, || service_config().build_catalog()),
            None,
        ),
        Workload::WritebackMixed => (
            probe.span(Span::Layout, || {
                ExperimentConfig::paper_baseline().build_catalog()
            }),
            None,
        ),
    };
    Ok((placed.map_err(|e| format!("placement: {e}"))?, topology))
}

/// Everything one repetition needs, made once per process from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub cfg: SimConfig,
    /// External arrivals in submission order (fleet and service only).
    pub arrivals: Vec<(SimTime, BlockId)>,
    /// Stored bytes per user byte of the placement.
    pub expansion: f64,
}

impl Inputs {
    /// The workload's inputs over `1 / div` of its horizon.
    pub fn new(workload: Workload, seed: u64, div: u64) -> Result<Inputs, String> {
        let duration = Micros::from_secs(workload.horizon_secs() / div.max(1));
        let cfg = SimConfig {
            duration,
            warmup: Micros::from_micros(duration.as_micros() / 10),
            max_pending: 5_000,
        };
        let (placed, _) = place(workload, &Probe::off())?;
        let sampler = BlockSampler::from_catalog(&placed.catalog, RH_PERCENT);
        let horizon_s = duration.as_micros() / 1_000_000;
        // Arrivals stop at 90% of the horizon so the tail drains.
        let last = SimTime::ZERO + Micros::from_secs(horizon_s * 9 / 10);
        let arrivals = match workload {
            Workload::FleetRecall => {
                let bursts = (horizon_s * 9 / 10).div_ceil(BURST_GAP_S) as usize;
                let blocks = generate_trace(&sampler, bursts * BURST, seed);
                blocks
                    .chunks(BURST)
                    .enumerate()
                    .flat_map(|(k, burst)| {
                        let t0 = SimTime::ZERO + Micros::from_secs(BURST_GAP_S * k as u64);
                        burst
                            .iter()
                            .enumerate()
                            .map(move |(i, &b)| (t0 + Micros::from_micros(i as u64 + 1), b))
                    })
                    .collect()
            }
            Workload::ServiceFaults => {
                let mut factory = RequestFactory::new(
                    sampler,
                    ArrivalProcess::OpenPoisson {
                        mean_interarrival: Micros::from_secs(SERVICE_MEAN_INTERARRIVAL_S),
                    },
                    seed,
                );
                let mut at = SimTime::ZERO;
                let mut out = Vec::new();
                while let Some(gap) = factory.next_interarrival() {
                    at += gap;
                    if at >= last {
                        break;
                    }
                    out.push((at, factory.make(at).block));
                }
                out
            }
            Workload::PaperEnvelope | Workload::WritebackMixed => Vec::new(),
        };
        Ok(Inputs {
            workload,
            seed,
            cfg,
            arrivals,
            expansion: placed.expansion,
        })
    }
}

/// Write-side results of the write-back workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WbStats {
    pub deltas_flushed: u64,
    pub deltas_buffered: u64,
    pub peak_buffer: u64,
    pub mean_delta_age_s: f64,
    pub piggyback_flushes: u64,
    pub idle_flushes: u64,
}

impl WbStats {
    fn of(r: &WriteBackReport) -> WbStats {
        WbStats {
            deltas_flushed: r.deltas_flushed,
            deltas_buffered: r.deltas_buffered,
            peak_buffer: r.peak_buffer,
            mean_delta_age_s: r.mean_delta_age_s,
            piggyback_flushes: r.piggyback_flushes,
            idle_flushes: r.idle_flushes,
        }
    }
}

/// The simulated result of a repetition. Deterministic in the inputs, so
/// every repetition of a run must produce the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub report: MetricsReport,
    pub service: Option<ServiceStats>,
    pub writeback: Option<WbStats>,
}

impl SimOutcome {
    fn of(report: MetricsReport) -> SimOutcome {
        SimOutcome {
            report,
            service: None,
            writeback: None,
        }
    }

    /// Requests that reached the system: service submissions, or engine
    /// admissions.
    pub fn offered(&self) -> u64 {
        self.service.map_or(self.report.admitted, |s| s.submitted)
    }

    /// Requests served: service tickets completed within their deadline,
    /// or engine completions.
    pub fn served(&self) -> u64 {
        self.service.map_or(self.report.served, |s| s.completed)
    }

    /// Correctness gates on one outcome; each failure is described.
    pub fn check(&self) -> Vec<String> {
        let r = &self.report;
        let mut bad = Vec::new();
        if r.admitted != r.served + r.failed_requests + r.unserved + r.cancelled {
            bad.push(format!(
                "conservation: admitted {} != served {} + failed {} + unserved {} + cancelled {}",
                r.admitted, r.served, r.failed_requests, r.unserved, r.cancelled
            ));
        }
        if let Some(s) = self.service {
            if !s.check_conservation() {
                bad.push(format!("service conservation: {s:?}"));
            }
        }
        if r.saturated {
            bad.push("the run saturated".to_owned());
        }
        if self.served() == 0 {
            bad.push("nothing was served".to_owned());
        }
        let secs = |us: Option<u64>| us.map_or(0.0, |u| Micros::from_micros(u).as_secs_f64());
        let p50 = secs(nearest_rank(&r.delay_samples_us, 0.5));
        let p99 = secs(nearest_rank(&r.delay_samples_us, 0.99));
        if (p50, p99) != (r.median_delay_s, r.p99_delay_s) {
            bad.push(format!(
                "delay percentiles: report ({}, {}) but samples give ({p50}, {p99})",
                r.median_delay_s, r.p99_delay_s
            ));
        }
        bad
    }
}

/// One repetition: host time before the first call that advances
/// simulated time, host time from there until the report is in hand, and
/// the simulated outcome.
pub struct Rep {
    pub setup: Duration,
    pub run: Duration,
    pub outcome: SimOutcome,
}

/// Runs one repetition. `stepped` selects the call-by-call cores for the
/// two generated workloads (the fleet and service workloads are always
/// driven call by call). `sink` must be disabled unless `stepped`.
pub fn run(
    inp: &Inputs,
    stepped: bool,
    sink: &mut dyn TraceSink,
    probe: &Probe,
) -> Result<Rep, String> {
    let t0 = now();
    let (placed, topology) = place(inp.workload, probe)?;
    let catalog = &placed.catalog;
    let timing = tapesim::model::TimingModel::paper_default();
    let seed = inp.seed;
    let fault_seed = substream(seed, FAULT_STREAM);
    let mut inner = make_scheduler(algorithm(inp.workload));
    let mut timed;
    let sched: &mut dyn Scheduler = if probe.is_on() {
        timed = TimedScheduler::new(inner.as_mut(), probe.clone());
        &mut timed
    } else {
        inner.as_mut()
    };
    let sim = |e: SimError| format!("{}: {e}", inp.workload.name());
    let (t1, outcome) = match inp.workload {
        Workload::PaperEnvelope => {
            let pe = paper_envelope_config();
            let sampler = BlockSampler::from_catalog(catalog, RH_PERCENT);
            if stepped {
                let mut factory = RequestFactory::new_clustered(sampler, pe.process, 0.0, seed);
                let mut engine = SteppedMultiDrive::new(
                    catalog,
                    &timing,
                    sched,
                    &mut factory,
                    &inp.cfg,
                    1,
                    &FaultConfig::NONE,
                    fault_seed,
                    sink,
                    &CheckpointOpts::none(),
                )
                .map_err(sim)?;
                let t1 = now();
                while probe.span(Span::Advance, || engine.step()).map_err(sim)?
                    == StepOutcome::Running
                {}
                (
                    t1,
                    SimOutcome::of(probe.span(Span::Finish, || engine.finish())),
                )
            } else {
                let spec = RunSpec {
                    catalog,
                    timing: &timing,
                    algorithm: pe.algorithm,
                    process: pe.process,
                    rh_percent: RH_PERCENT,
                    cluster_run_p: 0.0,
                    drives: 1,
                    config: inp.cfg,
                    faults: FaultConfig::NONE,
                };
                let t1 = now();
                (t1, SimOutcome::of(run_one(&spec, seed).map_err(sim)?))
            }
        }
        Workload::FleetRecall => {
            let topology = topology.ok_or("fleet topology missing")?;
            let sampler = BlockSampler::from_catalog(catalog, RH_PERCENT);
            // External mode only fingerprints the factory.
            let mut factory =
                RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, seed);
            let mut engine = SteppedMultiDrive::new_external_with_topology(
                catalog,
                &timing,
                topology,
                sched,
                &mut factory,
                &inp.cfg,
                &FaultConfig::NONE,
                fault_seed,
                sink,
            )
            .map_err(sim)?;
            let t1 = now();
            for (k, burst) in inp.arrivals.chunks(BURST).enumerate() {
                for &(at, block) in burst {
                    probe
                        .span(Span::Submit, || engine.submit_at(block, at))
                        .map_err(sim)?;
                }
                let next = SimTime::ZERO + Micros::from_secs(BURST_GAP_S * (k as u64 + 1));
                probe
                    .span(Span::Advance, || engine.step_until(next))
                    .map_err(sim)?;
                let _ = engine.drain_events();
            }
            probe
                .span(Span::Advance, || engine.step_until(engine.horizon()))
                .map_err(sim)?;
            let _ = engine.drain_events();
            (
                t1,
                SimOutcome::of(probe.span(Span::Finish, || engine.finish())),
            )
        }
        Workload::ServiceFaults => {
            let cfg = service_config();
            let sampler = BlockSampler::from_catalog(catalog, RH_PERCENT);
            let mut factory = RequestFactory::new(sampler, cfg.process, seed);
            let engine = SteppedMultiDrive::new_external(
                catalog,
                &timing,
                sched,
                &mut factory,
                &inp.cfg,
                cfg.drives,
                &cfg.faults,
                fault_seed,
                sink,
            )
            .map_err(sim)?;
            let mut svc = JukeboxService::new(engine, SERVICE).map_err(sim)?;
            let t1 = now();
            for &(at, block) in &inp.arrivals {
                // `submit` first runs the service to `at` itself; running
                // it there beforehand changes nothing simulated, and times
                // advancing apart from admission.
                probe
                    .span(Span::Advance, || svc.run_until(at))
                    .map_err(sim)?;
                match probe.span(Span::Submit, || svc.submit(block, at)) {
                    Ok(_) | Err(SimError::Overloaded) => {}
                    Err(e) => return Err(sim(e)),
                }
            }
            let (report, stats) = probe.span(Span::Finish, || svc.drain()).map_err(sim)?;
            let outcome = SimOutcome {
                service: Some(stats),
                ..SimOutcome::of(report)
            };
            (t1, outcome)
        }
        Workload::WritebackMixed => {
            let sampler = BlockSampler::from_catalog(catalog, RH_PERCENT);
            let process = ArrivalProcess::OpenPoisson {
                mean_interarrival: Micros::from_secs(WB_READ_INTERARRIVAL_S),
            };
            let mut factory = RequestFactory::new(sampler, process, seed);
            let write_seed = substream(seed, WRITE_STREAM);
            let (t1, wb) = if stepped {
                let mut engine = SteppedWriteBack::new(
                    catalog,
                    &timing,
                    sched,
                    &mut factory,
                    &inp.cfg,
                    &WRITEBACK,
                    write_seed,
                    sink,
                    &CheckpointOpts::none(),
                )
                .map_err(sim)?;
                let t1 = now();
                while probe.span(Span::Advance, || engine.step()).map_err(sim)?
                    == StepOutcome::Running
                {}
                (t1, probe.span(Span::Finish, || engine.finish()))
            } else {
                let t1 = now();
                let wb = run_with_writeback(
                    catalog,
                    &timing,
                    sched,
                    &mut factory,
                    &inp.cfg,
                    &WRITEBACK,
                    write_seed,
                )
                .map_err(sim)?;
                (t1, wb)
            };
            let outcome = SimOutcome {
                writeback: Some(WbStats::of(&wb)),
                ..SimOutcome::of(wb.reads)
            };
            (t1, outcome)
        }
    };
    Ok(Rep {
        setup: t1 - t0,
        run: now() - t1,
        outcome,
    })
}
