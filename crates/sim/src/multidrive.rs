//! The read-path simulation core: the Section 2.2 service loop, run for
//! each of one or more tape drives.
//!
//! Each drive repeatedly cycles through the paper's four steps:
//!
//! 1. invoke the major rescheduler on the pending list;
//! 2. switch to the selected tape if it is not already loaded (rewinding
//!    the old tape first, since the drive must rewind before ejecting);
//! 3. execute the service list stop by stop; requests arriving during the
//!    sweep are handed to the incremental scheduler at the next operation
//!    boundary;
//! 4. if the pending list is empty, idle until a request arrives.
//!
//! Closed-queuing workloads regenerate a request at the instant each
//! request completes (keeping the queue length constant); open-queuing
//! workloads draw Poisson arrivals independent of the service rate.
//!
//! One drive is the paper's configuration. More drives are the paper's
//! stated future work ("future work could extend this to multiple
//! drives", Section 2): whenever a drive finishes its sweep, the major
//! rescheduler picks it a new tape — excluding tapes currently mounted in
//! (or being switched into) the other drives, which reach the scheduler
//! through [`tapesim_sched::JukeboxView::unavailable`]. One robotic arm is
//! shared: tape exchanges serialize on it, so adding drives also adds
//! robot contention, exactly the effect a real library exhibits.
//!
//! Arrivals during a sweep are handed to the incremental scheduler of the
//! drive at whose operation boundary they surface; the scheduler instance
//! (and, for the envelope algorithm, its envelope state) is shared across
//! drives, mirroring a per-jukebox scheduling daemon.
//!
//! # Fault injection
//!
//! [`run_multi_drive_with_faults`] layers the fault model of
//! [`tapesim_model::faults`] over the same loop, per drive and per tape:
//!
//! * tape failures take tapes offline (visible to schedulers through
//!   [`JukeboxView::offline`]); a failure under a mounted tape aborts the
//!   sweep and requeues its requests, which fail over to replicas on
//!   surviving tapes or wait for the repair;
//! * media errors cost extra read passes and, after the configured
//!   retries, lose the copy — requests fall back to a replica, or fail
//!   permanently when no copy survives anywhere (a transiently lost copy,
//!   [`FaultConfig::copy_heal_mttr`], keeps its requests waiting instead);
//! * load failures cost extra robot exchanges and, after the configured
//!   retries, fail the whole tape;
//! * drive failures halt that drive for the configured repair time.
//!
//! With [`FaultConfig::NONE`] the fault path is completely inert: no
//! random numbers are drawn and the run is identical to
//! [`run_multi_drive`].
//!
//! # Stepped core
//!
//! The event loop itself lives in [`SteppedMultiDrive`], a poll-driven
//! stepped core: each [`SteppedMultiDrive::step`] dispatches the drive
//! with the earliest `free_at` and executes exactly one of its events.
//! The batch entry points drive it to completion; the
//! [`crate::service::JukeboxService`] layer drives it in external-arrival
//! mode with [`SteppedMultiDrive::submit_at`], per-request cancellation,
//! and administrative drive on/offlining.
#![expect(
    clippy::cast_possible_truncation,
    reason = "drive and tape indices fit u16 by geometry construction"
)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use tapesim_layout::{BlockId, Catalog};
use tapesim_model::{
    BlockSize, FaultConfig, FaultInjector, LocateDirection, Micros, PhysicalAddr, ReadContext,
    SimTime, SlotIndex, TapeId, TimingModel, Topology,
};
use tapesim_sched::{FleetView, JukeboxView, PendingList, Scheduler, SweepPlan};
use tapesim_workload::{ArrivalProcess, Request, RequestFactory, RequestId};

use crate::error::SimError;
use crate::metrics::{MetricsCollector, MetricsReport};
use crate::stepped::{CheckpointOpts, EngineEvent, StepOutcome};
use crate::trace::{NullSink, TraceEvent, TraceSink, Tracer, SYSTEM_DRIVE};
use crate::trace_event;

/// Configuration of a single simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Total simulated time. The paper's experiments model 10 million
    /// seconds; the default is a tenth of that, which reproduces the same
    /// rankings in a fraction of the wall-clock time.
    pub duration: Micros,
    /// Initial portion excluded from the metrics window.
    pub warmup: Micros,
    /// Abort threshold on the pending-queue length: an open-queuing run
    /// whose queue grows beyond this is overloaded, and the run is marked
    /// saturated.
    pub max_pending: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration: Micros::from_secs(1_000_000),
            warmup: Micros::from_secs(100_000),
            max_pending: 5_000,
        }
    }
}

impl SimConfig {
    /// The paper's full horizon: 10 million simulated seconds.
    pub fn paper_scale() -> Self {
        SimConfig {
            duration: Micros::from_secs(10_000_000),
            warmup: Micros::from_secs(500_000),
            max_pending: 5_000,
        }
    }

    /// A short horizon for tests.
    pub fn quick() -> Self {
        SimConfig {
            duration: Micros::from_secs(100_000),
            warmup: Micros::from_secs(10_000),
            max_pending: 5_000,
        }
    }
}

/// A request waiting to become visible at its arrival instant (closed-
/// queue regenerations are minted at a *future* completion time relative
/// to the other drives' clocks, so they must not be schedulable early).
///
/// Ordered by `(at, seq)`. `seq` is unique, so the order is total and
/// arrivals at one instant pop in admission order: the tie-break every
/// golden trace depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedArrival {
    at: SimTime,
    seq: u64,
    req: tapesim_workload::Request,
}

impl Ord for QueuedArrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for QueuedArrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct DriveState {
    mounted: Option<TapeId>,
    head: SlotIndex,
    plan: Option<tapesim_sched::SweepPlan>,
    /// Phase of the last traced read in the current sweep (tracing only).
    cur_phase: Option<tapesim_sched::SweepPhase>,
    free_at: SimTime,
    /// True when `free_at` was set by the idle branch (nothing was
    /// schedulable). An idle drive's wake changes no jukebox state, so
    /// *other* idle drives must not treat it as an event to wait for —
    /// two idle drives leapfrogging each other's wake times would
    /// otherwise crawl forward a microsecond at a time.
    idle: bool,
}

/// Runs a fault-free jukebox with `drives` tape drives sharing one robot
/// arm. With `drives == 1` this is the paper's configuration.
pub fn run_multi_drive(
    catalog: &Catalog,
    timing: &TimingModel,
    scheduler: &mut dyn Scheduler,
    factory: &mut RequestFactory,
    cfg: &SimConfig,
    drives: u16,
) -> Result<MetricsReport, SimError> {
    run_multi_drive_with_faults(
        catalog,
        timing,
        scheduler,
        factory,
        cfg,
        drives,
        &FaultConfig::NONE,
        0,
    )
}

/// Runs a multi-drive jukebox under the given fault model. `fault_seed`
/// drives every fault substream, independently of the workload stream.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent run input"
)]
pub fn run_multi_drive_with_faults(
    catalog: &Catalog,
    timing: &TimingModel,
    scheduler: &mut dyn Scheduler,
    factory: &mut RequestFactory,
    cfg: &SimConfig,
    drives: u16,
    faults: &FaultConfig,
    fault_seed: u64,
) -> Result<MetricsReport, SimError> {
    run_multi_drive_traced(
        catalog,
        timing,
        scheduler,
        factory,
        cfg,
        drives,
        faults,
        fault_seed,
        &mut NullSink,
    )
}

/// Runs a multi-drive jukebox while recording every event into `sink`
/// (see [`crate::trace`]). With a [`NullSink`] this is exactly
/// [`run_multi_drive_with_faults`].
///
/// This is a thin driver over [`SteppedMultiDrive`]: construct, step to
/// completion, report.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent run input"
)]
pub fn run_multi_drive_traced(
    catalog: &Catalog,
    timing: &TimingModel,
    scheduler: &mut dyn Scheduler,
    factory: &mut RequestFactory,
    cfg: &SimConfig,
    drives: u16,
    faults: &FaultConfig,
    fault_seed: u64,
    sink: &mut dyn TraceSink,
) -> Result<MetricsReport, SimError> {
    let mut engine = SteppedMultiDrive::new(
        catalog,
        timing,
        scheduler,
        factory,
        cfg,
        drives,
        faults,
        fault_seed,
        sink,
        &CheckpointOpts::none(),
    )?;
    while engine.step()? == StepOutcome::Running {}
    Ok(engine.finish())
}

/// Runs a fleet [`Topology`] to completion:
/// [`SteppedMultiDrive::new_with_topology`] stepped to the horizon. With
/// a legacy topology (one library, one robot arm) this produces exactly
/// the report of [`run_multi_drive_with_faults`] at the topology's drive
/// count — and a byte-identical trace.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent run input"
)]
pub fn run_fleet(
    catalog: &Catalog,
    timing: &TimingModel,
    topology: Topology,
    scheduler: &mut dyn Scheduler,
    factory: &mut RequestFactory,
    cfg: &SimConfig,
    faults: &FaultConfig,
    fault_seed: u64,
) -> Result<MetricsReport, SimError> {
    run_fleet_traced(
        catalog,
        timing,
        topology,
        scheduler,
        factory,
        cfg,
        faults,
        fault_seed,
        &mut NullSink,
    )
}

/// [`run_fleet`] recording every event into `sink`.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent run input"
)]
pub fn run_fleet_traced(
    catalog: &Catalog,
    timing: &TimingModel,
    topology: Topology,
    scheduler: &mut dyn Scheduler,
    factory: &mut RequestFactory,
    cfg: &SimConfig,
    faults: &FaultConfig,
    fault_seed: u64,
    sink: &mut dyn TraceSink,
) -> Result<MetricsReport, SimError> {
    let mut engine = SteppedMultiDrive::new_with_topology(
        catalog, timing, topology, scheduler, factory, cfg, faults, fault_seed, sink,
    )?;
    while engine.step()? == StepOutcome::Running {}
    Ok(engine.finish())
}

/// The poll-driven multi-drive engine core. See the module docs; batch
/// runs use [`run_multi_drive`] and friends, service runs construct this
/// directly in external-arrival mode
/// ([`SteppedMultiDrive::new_external`]).
pub struct SteppedMultiDrive<'a> {
    catalog: &'a Catalog,
    timing: &'a TimingModel,
    scheduler: &'a mut dyn Scheduler,
    factory: &'a mut RequestFactory,
    cfg: SimConfig,
    faults: FaultConfig,
    tracer: Tracer<'a>,
    injector: FaultInjector,
    block: BlockSize,
    block_bytes: u64,
    end: SimTime,
    warmup_end: SimTime,
    closed: bool,
    external: bool,
    pending: PendingList,
    queued: BinaryHeap<Reverse<QueuedArrival>>,
    seq: u64,
    metrics: MetricsCollector,
    saturated: bool,
    /// The fleet shape; `Topology::single` (one library, one arm) unless
    /// built through a `*_with_topology` entry point.
    topology: Topology,
    /// Cached `!topology.is_legacy()`: gates every fleet-only behavior
    /// (robot queue visibility, pass-through penalties, fleet trace
    /// events) so legacy runs stay byte-identical to the pre-fleet core.
    fleet: bool,
    /// Per-robot next-free instants, indexed by global robot index.
    /// Legacy topologies have exactly one entry — the historical
    /// `robot_free` clock.
    robots_free: Vec<SimTime>,
    /// Per-library, per-tape cross-library mount penalty table handed to
    /// scheduler views; empty for legacy topologies.
    penalties: Vec<Vec<Micros>>,
    /// Owning library of each drive, precomputed.
    drive_lib: Vec<u16>,
    faulted: BTreeMap<RequestId, TapeId>,
    states: Vec<DriveState>,
    now: SimTime,
    next_arrival: Option<SimTime>,
    // Scratch buffers for the offline/held-tape snapshots handed to
    // scheduler views; refilled per event instead of allocating each
    // time.
    offline_buf: Vec<TapeId>,
    unavailable_buf: Vec<TapeId>,
    /// How far an idle drive may advance when nothing is schedulable;
    /// the horizon for batch runs, lowered by
    /// [`SteppedMultiDrive::step_until`] for external drivers.
    park: SimTime,
    done: bool,
    /// Drives taken out of service administratively (not by the fault
    /// model); they are skipped by dispatch until brought back.
    admin_offline: Vec<bool>,
    next_ext_id: u64,
    last_submit_at: SimTime,
    events: Vec<EngineEvent>,
}

impl<'a> SteppedMultiDrive<'a> {
    /// Builds a stepped multi-drive engine whose generated workload,
    /// fault schedule, and tracing exactly match
    /// [`run_multi_drive_traced`] with the same arguments. The last
    /// parameter is ignored (see [`CheckpointOpts`]).
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one independent run input"
    )]
    pub fn new(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        scheduler: &'a mut dyn Scheduler,
        factory: &'a mut RequestFactory,
        cfg: &SimConfig,
        drives: u16,
        faults: &FaultConfig,
        fault_seed: u64,
        sink: &'a mut dyn TraceSink,
        _inert: &CheckpointOpts,
    ) -> Result<Self, SimError> {
        Self::build(
            catalog, timing, scheduler, factory, cfg, drives, faults, fault_seed, sink, false, None,
        )
    }

    /// Builds a stepped multi-drive engine over an explicit fleet
    /// [`Topology`]: drives spread across one or more libraries, each
    /// library's mounts serializing on its own robot-arm pool, and
    /// cross-library mounts paying the pass-through transfer. The drive
    /// count is the topology's total; the topology's shelf total must
    /// match the catalog geometry. A legacy topology (one library, one
    /// arm) behaves byte-identically to [`SteppedMultiDrive::new`].
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one independent run input"
    )]
    pub fn new_with_topology(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        topology: Topology,
        scheduler: &'a mut dyn Scheduler,
        factory: &'a mut RequestFactory,
        cfg: &SimConfig,
        faults: &FaultConfig,
        fault_seed: u64,
        sink: &'a mut dyn TraceSink,
    ) -> Result<Self, SimError> {
        let drives = topology.total_drives();
        Self::build(
            catalog,
            timing,
            scheduler,
            factory,
            cfg,
            drives,
            faults,
            fault_seed,
            sink,
            false,
            Some(topology),
        )
    }

    /// [`SteppedMultiDrive::new_with_topology`] in external-arrival mode
    /// (see [`SteppedMultiDrive::new_external`]). As there, `factory` is
    /// inert and stays only for `tapebench`.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one independent run input"
    )]
    pub fn new_external_with_topology(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        topology: Topology,
        scheduler: &'a mut dyn Scheduler,
        factory: &'a mut RequestFactory,
        cfg: &SimConfig,
        faults: &FaultConfig,
        fault_seed: u64,
        sink: &'a mut dyn TraceSink,
    ) -> Result<Self, SimError> {
        let drives = topology.total_drives();
        Self::build(
            catalog,
            timing,
            scheduler,
            factory,
            cfg,
            drives,
            faults,
            fault_seed,
            sink,
            true,
            Some(topology),
        )
    }

    /// Builds a stepped multi-drive engine in external-arrival mode: no
    /// workload is generated, requests enter via
    /// [`submit_at`](SteppedMultiDrive::submit_at), and
    /// completions/failures surface as [`EngineEvent`]s.
    ///
    /// `factory` is inert in this mode: the engine never reads it. It
    /// stays in the signature only because the out-of-workspace
    /// `tapebench` package passes one; the next benchmark change drops it.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one independent run input"
    )]
    pub fn new_external(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        scheduler: &'a mut dyn Scheduler,
        factory: &'a mut RequestFactory,
        cfg: &SimConfig,
        drives: u16,
        faults: &FaultConfig,
        fault_seed: u64,
        sink: &'a mut dyn TraceSink,
    ) -> Result<Self, SimError> {
        Self::build(
            catalog, timing, scheduler, factory, cfg, drives, faults, fault_seed, sink, true, None,
        )
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one independent run input"
    )]
    fn build(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        scheduler: &'a mut dyn Scheduler,
        factory: &'a mut RequestFactory,
        cfg: &SimConfig,
        drives: u16,
        faults: &FaultConfig,
        fault_seed: u64,
        sink: &'a mut dyn TraceSink,
        external: bool,
        topology: Option<Topology>,
    ) -> Result<Self, SimError> {
        if drives < 1 {
            return Err(SimError::InvalidConfig("need at least one drive"));
        }
        if drives > catalog.geometry().tapes {
            return Err(SimError::InvalidConfig(
                "more drives than tapes is pointless",
            ));
        }
        if cfg.warmup >= cfg.duration {
            return Err(SimError::InvalidConfig("warmup must precede the horizon"));
        }
        // A striped (erasure) catalog stores shard cells: a generated
        // workload would sample cells as if they were logical blocks.
        // Only the erasure driver (external-arrival mode) may run one.
        if catalog.stripe().is_some() && !external {
            return Err(SimError::InvalidConfig(
                "striped catalogs require the erasure driver",
            ));
        }
        faults.validate().map_err(SimError::InvalidConfig)?;
        let topology = match topology {
            Some(t) => {
                t.check_geometry(&catalog.geometry()).map_err(|_| {
                    SimError::InvalidConfig("topology shelf total must match the geometry")
                })?;
                if t.total_drives() != drives {
                    return Err(SimError::InvalidConfig(
                        "topology drive total must match the drive count",
                    ));
                }
                t
            }
            None => Topology::single(drives, catalog.geometry().tapes, timing.robot),
        };
        let block = catalog.block_size();
        let block_bytes = block.bytes();
        let end = SimTime::ZERO + cfg.duration;
        let warmup_end = SimTime::ZERO + cfg.warmup;
        let closed = !external && matches!(factory.process(), ArrivalProcess::Closed { .. });

        let states: Vec<DriveState> = (0..drives)
            .map(|_| DriveState {
                mounted: None,
                head: SlotIndex::BOT,
                plan: None,
                cur_phase: None,
                free_at: SimTime::ZERO,
                idle: false,
            })
            .collect();

        let fleet = !topology.is_legacy();
        let robots_free = vec![SimTime::ZERO; usize::from(topology.total_robots())];
        let penalties: Vec<Vec<Micros>> = if fleet {
            (0..topology.library_count())
                .map(|lib| {
                    (0..catalog.geometry().tapes)
                        .map(|t| {
                            topology.transfer_penalty(lib, topology.library_of_tape(TapeId(t)))
                        })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let drive_lib: Vec<u16> = (0..drives).map(|d| topology.library_of_drive(d)).collect();

        let mut engine = SteppedMultiDrive {
            catalog,
            timing,
            scheduler,
            factory,
            cfg: *cfg,
            faults: *faults,
            tracer: Tracer::new(sink),
            injector: FaultInjector::new(*faults, &catalog.geometry(), drives as usize, fault_seed),
            block,
            block_bytes,
            end,
            warmup_end,
            closed,
            external,
            pending: PendingList::new(),
            queued: BinaryHeap::new(),
            seq: 0,
            metrics: MetricsCollector::new(warmup_end),
            saturated: false,
            topology,
            fleet,
            robots_free,
            penalties,
            drive_lib,
            faulted: BTreeMap::new(),
            states,
            now: SimTime::ZERO,
            next_arrival: None,
            offline_buf: Vec::new(),
            unavailable_buf: Vec::new(),
            park: end,
            done: false,
            admin_offline: vec![false; drives as usize],
            next_ext_id: 0,
            last_submit_at: SimTime::ZERO,
            events: Vec::new(),
        };

        // Seed the workload.
        if !external {
            match engine.factory.process() {
                ArrivalProcess::Closed { queue_length } => {
                    for _ in 0..queue_length {
                        let req = engine.factory.make(SimTime::ZERO);
                        trace_event!(
                            engine.tracer,
                            SimTime::ZERO,
                            SYSTEM_DRIVE,
                            TraceEvent::Arrival {
                                req: req.id,
                                block: req.block,
                            }
                        );
                        engine.pending.push(req);
                        engine.metrics.record_admission();
                    }
                }
                ArrivalProcess::OpenPoisson { .. } => {
                    let gap = engine
                        .factory
                        .next_interarrival()
                        .ok_or(SimError::ClosedArrivalStream)?;
                    engine.next_arrival = Some(SimTime::ZERO + gap);
                }
            }
        }

        Ok(engine)
    }

    /// The engine clock: the instant of the last executed event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True once the horizon was reached or the run saturated.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True when the engine was built in external-arrival mode
    /// ([`SteppedMultiDrive::new_external`]).
    pub fn is_external(&self) -> bool {
        self.external
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> SimTime {
        self.end
    }

    /// The number of drives (including administratively offline ones).
    pub fn drive_count(&self) -> usize {
        self.states.len()
    }

    /// The tape currently mounted in drive `d`, if any.
    pub fn drive_mounted(&self, d: usize) -> Option<TapeId> {
        self.states.get(d).and_then(|s| s.mounted)
    }

    /// True when the copy at `addr` has been permanently lost to a fault
    /// (its tape failed without repair, or the copy itself went bad and
    /// cannot heal). Lets an external driver — the erasure layer — make
    /// the same liveness judgement the engine makes when it fails
    /// requests.
    pub fn copy_lost_forever(&self, addr: PhysicalAddr) -> bool {
        self.injector.copy_lost_forever(addr)
    }

    /// True if drive `d` is administratively offline.
    pub fn drive_offline(&self, d: usize) -> bool {
        self.admin_offline.get(d).copied().unwrap_or(false)
    }

    /// The number of drives currently available for dispatch.
    pub fn drives_online(&self) -> usize {
        self.admin_offline.iter().filter(|&&off| !off).count()
    }

    /// Requests on the pending list (schedulable, not in any sweep).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Requests admitted but not yet visible to the schedulers (their
    /// arrival instant is still in the future, or they await delivery at
    /// the next operation boundary).
    pub fn queued_len(&self) -> usize {
        self.queued.len()
    }

    /// Requests waiting anywhere outside an active sweep: the admission
    /// backlog a service layer meters against its queue capacity.
    pub fn waiting(&self) -> usize {
        self.pending.len() + self.queued.len()
    }

    /// Requests scheduled into the drives' sweeps: admitted, no longer
    /// waiting, not yet resolved. Lets the service tests count work in
    /// flight apart from the service's own bookkeeping.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.states
            .iter()
            .filter_map(|s| s.plan.as_ref())
            .flat_map(|p| p.list.forward_stops().chain(p.list.reverse_stops()))
            .map(|stop| stop.requests.len())
            .sum()
    }

    /// True once the pending queue overflowed `max_pending`.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Takes the request outcomes produced since the last drain
    /// (external-arrival mode; always empty for generated workloads).
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.events)
    }

    /// Submits one read request at instant `at` (external-arrival mode
    /// only). `at` is clamped to be monotone and not before the engine
    /// clock; the admission is traced and counted immediately, and the
    /// request becomes schedulable at the first operation boundary at or
    /// after `at`. Returns the request's id.
    pub fn submit_at(&mut self, block: BlockId, at: SimTime) -> Result<RequestId, SimError> {
        if !self.external {
            return Err(SimError::InvalidConfig(
                "submit_at requires external-arrival mode",
            ));
        }
        let at = at.max(self.now).max(self.last_submit_at);
        self.last_submit_at = at;
        let req = Request {
            id: RequestId(self.next_ext_id),
            block,
            arrival: at,
        };
        self.next_ext_id += 1;
        trace_event!(
            self.tracer,
            at,
            SYSTEM_DRIVE,
            TraceEvent::Arrival {
                req: req.id,
                block: req.block,
            }
        );
        self.metrics.record_admission();
        self.queued.push(Reverse(QueuedArrival {
            at,
            seq: self.seq,
            req,
        }));
        self.seq += 1;
        Ok(req.id)
    }

    /// Cancels a waiting request (external-arrival mode): removes it from
    /// the pending list or the arrival queue. Returns `false` when the
    /// request is not waiting — already completed or failed, or currently
    /// scheduled in an active sweep (in-flight work is never preempted;
    /// the deterministic tie-break is that service, once scheduled, runs
    /// to completion).
    pub fn cancel(&mut self, req: RequestId) -> bool {
        let removed = self.pending.extract(|r| r.id == req);
        if !removed.is_empty() {
            self.faulted.remove(&req);
            self.metrics.record_cancellation();
            return true;
        }
        let before = self.queued.len();
        self.queued.retain(|Reverse(q)| q.req.id != req);
        if self.queued.len() < before {
            self.faulted.remove(&req);
            self.metrics.record_cancellation();
            return true;
        }
        false
    }

    /// Takes drive `d` out of service (administratively, not via the
    /// fault model) or brings it back. Going offline aborts the drive's
    /// sweep — its requests return to the pending list for the surviving
    /// drives — and releases its mounted tape. Coming back online makes
    /// the drive dispatchable from the current clock onward. Returns an
    /// error for an out-of-range drive index.
    pub fn set_drive_offline(&mut self, d: usize, offline: bool) -> Result<(), SimError> {
        if d >= self.states.len() {
            return Err(SimError::InvalidConfig("no such drive"));
        }
        if offline == self.admin_offline[d] {
            return Ok(());
        }
        self.admin_offline[d] = offline;
        if offline {
            // The drive's in-flight operation finishes before the
            // offline takes effect, so the abort records are stamped at
            // the drive's own frontier (which may be ahead of the
            // dispatch clock), keeping its trace timeline monotone.
            let at = self.states[d].free_at.max(self.now);
            if let Some(plan) = self.states[d].plan.take() {
                for stop in plan.list.forward_stops().chain(plan.list.reverse_stops()) {
                    for r in &stop.requests {
                        self.pending.push(*r);
                    }
                }
                // The abort closes the open sweep in the trace; without
                // this the drive's next sweep would violate the §2.2
                // one-open-sweep-per-drive invariant.
                trace_event!(
                    self.tracer,
                    at,
                    d as u16,
                    TraceEvent::SweepEnd { tape: plan.tape }
                );
            }
            if let Some(tape) = self.states[d].mounted.take() {
                trace_event!(self.tracer, at, d as u16, TraceEvent::Unmount { tape });
            }
            self.states[d].head = SlotIndex::BOT;
            self.states[d].cur_phase = None;
        } else {
            self.states[d].free_at = self.states[d].free_at.max(self.now);
            self.states[d].idle = false;
        }
        Ok(())
    }

    /// The drive the next step will dispatch: earliest `free_at`, lowest
    /// index on ties, skipping administratively offline drives.
    fn next_drive(&self) -> Option<usize> {
        (0..self.states.len())
            .filter(|&i| !self.admin_offline[i])
            .min_by_key(|&i| (self.states[i].free_at, i))
    }

    /// Executes one drive event: the dispatched drive services one stop,
    /// reschedules, mounts, or idles. Returns whether more work remains.
    /// With every drive administratively offline the clock parks (nothing
    /// can move) until a drive returns or the horizon is reached.
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        if self.done {
            return Ok(StepOutcome::Done);
        }
        let Some(d) = self.next_drive() else {
            self.now = self.park.max(self.now);
            if self.park >= self.end {
                self.now = self.end;
                self.done = true;
                return Ok(StepOutcome::Done);
            }
            return Ok(StepOutcome::Running);
        };
        self.step_drive(d)?;
        Ok(if self.done {
            StepOutcome::Done
        } else {
            StepOutcome::Running
        })
    }

    /// Steps until the clock reaches `until` (clamped to the horizon) or
    /// the run finishes. When nothing is schedulable the engine parks at
    /// `until` instead of idling to the horizon, so an external driver
    /// can keep submitting.
    pub fn step_until(&mut self, until: SimTime) -> Result<(), SimError> {
        self.park = until.min(self.end);
        while !self.done && self.now < self.park {
            if let Some(d) = self.next_drive() {
                if self.states[d].free_at.max(self.now) > self.park {
                    break;
                }
            }
            self.step()?;
        }
        self.park = self.end;
        Ok(())
    }

    /// The arm of library `lib` that frees earliest; ties break on the
    /// lower global robot index. Arbitration therefore depends only on
    /// the arm clocks, never on event-discovery order. For legacy
    /// topologies this is always robot 0.
    fn pick_robot(&self, lib: u16) -> usize {
        let base = usize::from(self.topology.robot_base(lib));
        let count = self
            .topology
            .libraries()
            .get(usize::from(lib))
            .map_or(1, |l| usize::from(l.robots));
        (base..base + count)
            .min_by_key(|&r| (self.robots_free.get(r).copied().unwrap_or(SimTime::ZERO), r))
            .unwrap_or(base)
    }

    /// One robot-exchange duration for library `lib`'s arms. Equals
    /// `timing.robot.exchange()` for the default single topology.
    fn lib_exchange(&self, lib: u16) -> Micros {
        self.topology
            .libraries()
            .get(usize::from(lib))
            .map_or(self.timing.robot, |l| l.robot)
            .exchange()
    }

    /// One full drive-dispatch event, translated statement for statement
    /// from the monolithic `'outer` loop this engine used to be.
    #[expect(
        clippy::too_many_lines,
        reason = "kept statement for statement as the loop it was translated from"
    )]
    fn step_drive(&mut self, d: usize) -> Result<(), SimError> {
        self.now = self.states[d].free_at.max(self.now);
        self.states[d].idle = false;
        if self.now >= self.end {
            self.done = true;
            return Ok(());
        }

        if self.injector.is_active() {
            self.injector.advance(self.now);
            // A failed drive sits out its repair; the other drives keep
            // serving.
            if let Some(repair) = self.injector.drive_outage(d, self.now) {
                self.states[d].free_at = self.now + repair;
                self.metrics.add_repair_time(self.now + repair, repair);
                trace_event!(
                    self.tracer,
                    self.now + repair,
                    d as u16,
                    TraceEvent::DriveRepair { dur: repair }
                );
                return Ok(());
            }
            // Fail out requests no surviving copy can serve any more
            // (transiently lost copies heal, so their requests keep
            // waiting).
            if self.injector.has_permanent_damage() {
                let dead = {
                    let injector = &self.injector;
                    let catalog = self.catalog;
                    self.pending.extract(|r| {
                        catalog
                            .replicas(r.block)
                            .iter()
                            .all(|a| injector.copy_lost_forever(*a))
                    })
                };
                for r in dead {
                    self.faulted.remove(&r.id);
                    self.metrics.record_permanent_failure();
                    trace_event!(
                        self.tracer,
                        self.now,
                        SYSTEM_DRIVE,
                        TraceEvent::RequestFailed { req: r.id }
                    );
                    if self.external {
                        self.events.push(EngineEvent::Failed {
                            req: r.id,
                            at: self.now,
                        });
                    }
                    if self.closed {
                        let req = self.factory.make(self.now);
                        trace_event!(
                            self.tracer,
                            self.now,
                            SYSTEM_DRIVE,
                            TraceEvent::Arrival {
                                req: req.id,
                                block: req.block,
                            }
                        );
                        self.queued.push(Reverse(QueuedArrival {
                            at: self.now,
                            seq: self.seq,
                            req,
                        }));
                        self.seq += 1;
                        self.metrics.record_admission();
                    }
                }
            }
            // The tape under this drive failed: abort the sweep and let
            // the requests fail over or wait for the repair.
            let tape_dead = self.states[d]
                .plan
                .as_ref()
                .is_some_and(|p| self.injector.is_offline(p.tape));
            if tape_dead {
                if let Some(plan) = self.states[d].plan.take() {
                    trace_event!(
                        self.tracer,
                        self.now,
                        d as u16,
                        TraceEvent::TapeOffline { tape: plan.tape }
                    );
                    abort_plan(&plan, plan.tape, &mut self.pending, &mut self.faulted);
                }
                self.states[d].mounted = None;
                self.states[d].head = SlotIndex::BOT;
                return Ok(());
            }
        }
        self.offline_buf.clear();
        self.offline_buf.extend_from_slice(self.injector.offline());

        // Deliver due arrivals (Poisson stream and queued closed-queue
        // regenerations, in time order). If drive `d` has an active sweep
        // they go through the incremental scheduler; otherwise straight to
        // the pending list.
        loop {
            // Materialize the Poisson arrival if it is the earliest event.
            if let Some(t) = self.next_arrival {
                let heap_first = self.queued.peek().map(|Reverse(q)| q.at);
                if t <= self.now && heap_first.is_none_or(|h| t <= h) {
                    let req = self.factory.make(t);
                    trace_event!(
                        self.tracer,
                        t,
                        SYSTEM_DRIVE,
                        TraceEvent::Arrival {
                            req: req.id,
                            block: req.block,
                        }
                    );
                    self.queued.push(Reverse(QueuedArrival {
                        at: t,
                        seq: self.seq,
                        req,
                    }));
                    self.seq += 1;
                    self.metrics.record_admission();
                    let gap = self
                        .factory
                        .next_interarrival()
                        .ok_or(SimError::ClosedArrivalStream)?;
                    self.next_arrival = Some(t + gap);
                    continue;
                }
            }
            let due = self
                .queued
                .peek()
                .is_some_and(|Reverse(q)| q.at <= self.now);
            if !due {
                break;
            }
            let Some(Reverse(q)) = self.queued.pop() else {
                break;
            };
            tapes_held_except_into(&self.states, d, &mut self.unavailable_buf);
            let (mounted, head) = (self.states[d].mounted, self.states[d].head);
            let fleet_view = fleet_view_for(
                self.fleet,
                &self.topology,
                &self.robots_free,
                &self.penalties,
                self.drive_lib[d],
            );
            if let Some(plan) = self.states[d].plan.as_mut() {
                let view = JukeboxView {
                    catalog: self.catalog,
                    timing: self.timing,
                    mounted,
                    head,
                    now: self.now,
                    unavailable: &self.unavailable_buf,
                    offline: &self.offline_buf,
                    fleet: fleet_view,
                };
                view.debug_assert_sorted();
                let req_id = q.req.id;
                let outcome = self.scheduler.on_arrival(
                    &view,
                    plan.tape,
                    &mut plan.list,
                    q.req,
                    &mut self.pending,
                );
                trace_event!(
                    self.tracer,
                    self.now,
                    d as u16,
                    TraceEvent::Incremental {
                        req: req_id,
                        tape: plan.tape,
                        inserted: outcome == tapesim_sched::ArrivalOutcome::Inserted,
                    }
                );
            } else {
                self.pending.push(q.req);
            }
        }
        if self.pending.len() > self.cfg.max_pending {
            self.saturated = true;
            self.done = true;
            return Ok(());
        }

        let has_stops = self.states[d]
            .plan
            .as_ref()
            .is_some_and(|p| !p.list.is_empty());
        if has_stops {
            // Execute the next stop of this drive's sweep.
            let (stop, phase, tape) = {
                let Some(plan) = self.states[d].plan.as_mut() else {
                    return Ok(());
                };
                match plan.list.pop() {
                    Some((stop, phase)) => (stop, phase, plan.tape),
                    None => return Ok(()),
                }
            };
            if self.tracer.on && self.states[d].cur_phase != Some(phase) {
                self.states[d].cur_phase = Some(phase);
                self.tracer
                    .push(self.now, d as u16, TraceEvent::PhaseStart { tape, phase });
            }
            let (lt, dir) = self
                .timing
                .drive
                .locate(self.states[d].head, stop.slot, self.block);
            let ctx = match dir {
                None => ReadContext::Streaming,
                Some(LocateDirection::Forward) => ReadContext::AfterForwardLocate,
                Some(LocateDirection::Reverse) => ReadContext::AfterReverseLocate,
            };
            let rt = self.timing.drive.read_block(self.block, ctx);
            // Drive time is attributed at the end of each segment (not
            // lumped at the stop's end), so a stop straddling the warmup
            // boundary is split segment by segment; the pinned one-drive
            // reports (`tests/golden/one_drive_reports.txt`) depend on it.
            let mut t = self.now + lt;
            self.metrics.add_locate_time(t, lt);
            trace_event!(
                self.tracer,
                t,
                d as u16,
                TraceEvent::Locate {
                    tape,
                    from: self.states[d].head,
                    to: stop.slot,
                    dur: lt,
                }
            );
            // Fault: every failed read attempt costs another pass over the
            // block; exhausting the retries loses the copy.
            let mut read_ok = true;
            if self.injector.is_active() {
                let mut tries = 0u32;
                while self.injector.media_error() {
                    t += rt;
                    self.metrics.add_read_time(t, rt);
                    trace_event!(
                        self.tracer,
                        t,
                        d as u16,
                        TraceEvent::MediaError {
                            tape,
                            slot: stop.slot,
                        }
                    );
                    if tries >= self.faults.media_retries {
                        read_ok = false;
                        break;
                    }
                    tries += 1;
                }
            }
            if !read_ok {
                let done = t;
                self.states[d].head = stop.slot.next();
                self.states[d].free_at = done;
                self.injector.mark_bad_copy(
                    PhysicalAddr {
                        tape,
                        slot: stop.slot,
                    },
                    done,
                );
                trace_event!(
                    self.tracer,
                    done,
                    d as u16,
                    TraceEvent::CopyLost {
                        tape,
                        slot: stop.slot,
                    }
                );
                for r in &stop.requests {
                    // A request survives while any replica is alive *or*
                    // only transiently lost (it waits for the heal); it
                    // fails only when every copy is gone forever.
                    let survives = self
                        .catalog
                        .replicas(r.block)
                        .iter()
                        .any(|a| !self.injector.copy_lost_forever(*a));
                    if survives {
                        self.faulted.insert(r.id, tape);
                        self.pending.push(*r);
                    } else {
                        self.faulted.remove(&r.id);
                        self.metrics.record_permanent_failure();
                        trace_event!(
                            self.tracer,
                            done,
                            d as u16,
                            TraceEvent::RequestFailed { req: r.id }
                        );
                        if self.external {
                            self.events.push(EngineEvent::Failed {
                                req: r.id,
                                at: done,
                            });
                        }
                        if self.closed {
                            let req = self.factory.make(done);
                            trace_event!(
                                self.tracer,
                                done,
                                SYSTEM_DRIVE,
                                TraceEvent::Arrival {
                                    req: req.id,
                                    block: req.block,
                                }
                            );
                            self.queued.push(Reverse(QueuedArrival {
                                at: done,
                                seq: self.seq,
                                req,
                            }));
                            self.seq += 1;
                            self.metrics.record_admission();
                        }
                    }
                }
                return Ok(());
            }
            t += rt;
            let done = t;
            self.metrics.add_read_time(done, rt);
            self.metrics.record_physical_read(done);
            self.states[d].head = stop.slot.next();
            self.states[d].free_at = done;
            trace_event!(
                self.tracer,
                done,
                d as u16,
                TraceEvent::Read {
                    tape,
                    slot: stop.slot,
                    phase,
                    dur: rt,
                }
            );
            let completions = stop.requests.len();
            for r in &stop.requests {
                self.metrics
                    .record_completion(r.arrival, done, self.block_bytes);
                if !self.faulted.is_empty() {
                    if let Some(failed_tape) = self.faulted.remove(&r.id) {
                        if failed_tape != tape {
                            self.metrics.record_replica_failover();
                            trace_event!(
                                self.tracer,
                                done,
                                d as u16,
                                TraceEvent::Failover {
                                    req: r.id,
                                    from: failed_tape,
                                    to: tape,
                                }
                            );
                        }
                    }
                }
                trace_event!(
                    self.tracer,
                    done,
                    d as u16,
                    TraceEvent::Complete {
                        req: r.id,
                        tape,
                        delay: done.duration_since(r.arrival),
                    }
                );
                if self.external {
                    self.events.push(EngineEvent::Completed {
                        req: r.id,
                        at: done,
                    });
                }
            }
            if self.closed {
                for _ in 0..completions {
                    let req = self.factory.make(done);
                    trace_event!(
                        self.tracer,
                        done,
                        SYSTEM_DRIVE,
                        TraceEvent::Arrival {
                            req: req.id,
                            block: req.block,
                        }
                    );
                    self.queued.push(Reverse(QueuedArrival {
                        at: done,
                        seq: self.seq,
                        req,
                    }));
                    self.seq += 1;
                    self.metrics.record_admission();
                }
            }
            return Ok(());
        }

        // Sweep finished (or never started): clear it and reschedule.
        if let Some(p) = self.states[d].plan.take() {
            trace_event!(
                self.tracer,
                self.now,
                d as u16,
                TraceEvent::SweepEnd { tape: p.tape }
            );
        }
        self.states[d].cur_phase = None;
        tapes_held_except_into(&self.states, d, &mut self.unavailable_buf);
        let view = JukeboxView {
            catalog: self.catalog,
            timing: self.timing,
            mounted: self.states[d].mounted,
            head: self.states[d].head,
            now: self.now,
            unavailable: &self.unavailable_buf,
            offline: &self.offline_buf,
            fleet: fleet_view_for(
                self.fleet,
                &self.topology,
                &self.robots_free,
                &self.penalties,
                self.drive_lib[d],
            ),
        };
        view.debug_assert_sorted();
        match self.scheduler.major_reschedule(&view, &mut self.pending) {
            Some(plan) => {
                trace_event!(
                    self.tracer,
                    self.now,
                    d as u16,
                    TraceEvent::SweepStart {
                        tape: plan.tape,
                        stops: plan.list.stops() as u32,
                        requests: plan.list.requests() as u32,
                    }
                );
                if self.states[d].mounted != Some(plan.tape) {
                    // Rewind + eject locally, then the (shared) robot
                    // exchange, then load. Each failed load attempt costs
                    // another robot exchange + load; exhausting the
                    // retries fails the tape itself.
                    let mut t = self.now;
                    let mut rewind = Micros::ZERO;
                    if let Some(old) = self.states[d].mounted {
                        rewind = self.timing.drive.rewind(self.states[d].head, self.block);
                        trace_event!(
                            self.tracer,
                            self.now + rewind,
                            d as u16,
                            TraceEvent::Rewind {
                                tape: old,
                                from: self.states[d].head,
                                dur: rewind,
                            }
                        );
                        trace_event!(
                            self.tracer,
                            self.now + rewind,
                            d as u16,
                            TraceEvent::Unmount { tape: old }
                        );
                        t = t + rewind + self.timing.drive.eject();
                    }
                    // Destination arm: the earliest-free arm in this
                    // drive's library (robot 0 for legacy topologies,
                    // where the arithmetic below reduces statement for
                    // statement to the historical single-clock form).
                    let lib = self.drive_lib[d];
                    let r_dst = self.pick_robot(lib);
                    let exchange = self.lib_exchange(lib);
                    let mut start = t.max(self.robots_free[r_dst]);
                    let mut transfer = Micros::ZERO;
                    let mut r_src = None;
                    if self.fleet {
                        let tape_lib = self.topology.library_of_tape(plan.tape);
                        if tape_lib != lib {
                            // Cross-library mount: the home library's arm
                            // must export the tape into the pass-through
                            // port before the destination arm can import
                            // and exchange it.
                            let src = self.pick_robot(tape_lib);
                            start = start.max(self.robots_free[src]);
                            transfer = self.topology.transfer_penalty(lib, tape_lib);
                            r_src = Some(src);
                        }
                        let wait = start.duration_since(t);
                        if wait > Micros::ZERO {
                            trace_event!(
                                self.tracer,
                                start,
                                d as u16,
                                TraceEvent::RobotBusy {
                                    robot: r_dst as u16,
                                    dur: wait,
                                }
                            );
                        }
                    }
                    if let Some(src) = r_src {
                        // The source arm is busy for the export leg only;
                        // the pass-through walk and import charge the
                        // destination arm below.
                        let export = Micros::from_secs_f64(self.topology.interlib.export_s);
                        self.robots_free[src] = start + export;
                        trace_event!(
                            self.tracer,
                            start + export,
                            d as u16,
                            TraceEvent::RobotExchange {
                                robot: src as u16,
                                tape: plan.tape,
                                dur: export,
                            }
                        );
                    }
                    self.robots_free[r_dst] = start + transfer + exchange;
                    if self.fleet {
                        trace_event!(
                            self.tracer,
                            self.robots_free[r_dst],
                            d as u16,
                            TraceEvent::RobotExchange {
                                robot: r_dst as u16,
                                tape: plan.tape,
                                dur: transfer + exchange,
                            }
                        );
                    }
                    let mut ready = self.robots_free[r_dst] + self.timing.drive.load();
                    let mut tape_failed_on_load = false;
                    if self.injector.is_active() {
                        let mut tries = 0u32;
                        while self.injector.load_fails() {
                            if tries >= self.faults.load_retries {
                                tape_failed_on_load = true;
                                break;
                            }
                            tries += 1;
                            // Retries stay on the same arm: the tape is
                            // already at the destination library.
                            self.robots_free[r_dst] = ready.max(self.robots_free[r_dst]) + exchange;
                            if self.fleet {
                                trace_event!(
                                    self.tracer,
                                    self.robots_free[r_dst],
                                    d as u16,
                                    TraceEvent::RobotExchange {
                                        robot: r_dst as u16,
                                        tape: plan.tape,
                                        dur: exchange,
                                    }
                                );
                            }
                            ready = self.robots_free[r_dst] + self.timing.drive.load();
                        }
                    }
                    self.metrics
                        .add_switch_time(ready, ready.duration_since(self.now));
                    self.metrics.record_tape_switch(ready);
                    if tape_failed_on_load {
                        self.injector.force_tape_failure(plan.tape, ready);
                        trace_event!(
                            self.tracer,
                            ready,
                            d as u16,
                            TraceEvent::LoadFailed {
                                tape: plan.tape,
                                dur: ready.duration_since(self.now) - rewind,
                            }
                        );
                        trace_event!(
                            self.tracer,
                            ready,
                            d as u16,
                            TraceEvent::TapeOffline { tape: plan.tape }
                        );
                        abort_plan(&plan, plan.tape, &mut self.pending, &mut self.faulted);
                        self.states[d].mounted = None;
                        self.states[d].head = SlotIndex::BOT;
                        self.states[d].free_at = ready;
                        return Ok(());
                    }
                    trace_event!(
                        self.tracer,
                        ready,
                        d as u16,
                        TraceEvent::Mount {
                            tape: plan.tape,
                            dur: ready.duration_since(self.now) - rewind,
                        }
                    );
                    self.states[d].mounted = Some(plan.tape);
                    self.states[d].head = SlotIndex::BOT;
                    self.states[d].free_at = ready;
                } // else: already mounted, can start immediately
                self.states[d].plan = Some(plan);
            }
            None => {
                // Nothing this drive can do: wait for the next system
                // event (another drive's action, an arrival, or a fault
                // repair that brings a tape back). External drivers lower
                // `park` below the horizon so an idle engine waits for
                // them instead of idling the run away.
                let park = self.park;
                let mut next = park;
                for (i, s) in self.states.iter().enumerate() {
                    if i != d
                        && !s.idle
                        && !self.admin_offline[i]
                        && s.free_at > self.now
                        && s.free_at < next
                    {
                        next = s.free_at;
                    }
                }
                if let Some(t) = self.next_arrival {
                    if t > self.now && t < next {
                        next = t;
                    }
                }
                if let Some(Reverse(q)) = self.queued.peek() {
                    if q.at > self.now && q.at < next {
                        next = q.at;
                    }
                }
                if let Some(t) = self.injector.next_event(self.now) {
                    if t < next {
                        next = t;
                    }
                }
                if next >= park {
                    if park >= self.end {
                        // Check whether *any* drive still has queued work.
                        let someone_busy = self
                            .states
                            .iter()
                            .any(|s| s.plan.as_ref().is_some_and(|p| !p.list.is_empty()))
                            || !self.queued.is_empty();
                        if !someone_busy {
                            let dur = self.end.duration_since(self.now);
                            self.metrics.add_idle_time(self.end, dur);
                            trace_event!(self.tracer, self.end, d as u16, TraceEvent::Idle { dur });
                            self.now = self.end;
                            self.done = true;
                            return Ok(());
                        }
                    }
                    next = park;
                }
                let dur = next.duration_since(self.now);
                if dur > Micros::ZERO || !self.external {
                    self.metrics.add_idle_time(next, dur);
                    trace_event!(self.tracer, next, d as u16, TraceEvent::Idle { dur });
                }
                self.states[d].free_at = next + Micros::from_micros(1);
                self.states[d].idle = true;
            }
        }
        Ok(())
    }

    /// Closes the run and produces its metrics report. Callable at any
    /// point; requests still queued, pending, or mid-sweep count as
    /// unserved.
    pub fn finish(mut self) -> MetricsReport {
        let window = if self.saturated || self.now < self.end {
            if self.now > self.warmup_end {
                self.now.duration_since(self.warmup_end)
            } else {
                Micros::from_micros(1)
            }
        } else {
            self.cfg.duration - self.cfg.warmup
        };
        let stranded: u64 = self
            .states
            .iter()
            .map(|s| s.plan.as_ref().map_or(0, |p| p.list.requests() as u64))
            .sum::<u64>()
            + self.queued.len() as u64
            + self.pending.len() as u64;
        if self.injector.is_active() {
            self.injector.advance(self.now);
            self.metrics.set_fault_accounting(
                self.injector.media_errors(),
                self.injector.tape_downtime(self.now),
                self.injector.degraded_time(self.now),
                stranded,
            );
        } else {
            self.metrics
                .set_fault_accounting(0, Vec::new(), Micros::ZERO, stranded);
        }
        self.metrics.report(window, self.saturated)
    }
}

/// The scheduler's view of robot contention for drives in library `lib`:
/// the earliest-free arm's clock plus the library's cross-library mount
/// penalty row. Legacy topologies see [`FleetView::SINGLE`] — zero added
/// cost everywhere, keeping scheduler decisions byte-identical to the
/// pre-fleet core. Takes fields (not `&self`) so callers can hold
/// disjoint mutable borrows of the engine.
fn fleet_view_for<'v>(
    fleet: bool,
    topology: &Topology,
    robots_free: &[SimTime],
    penalties: &'v [Vec<Micros>],
    lib: u16,
) -> FleetView<'v> {
    if !fleet {
        return FleetView::SINGLE;
    }
    let base = usize::from(topology.robot_base(lib));
    let count = topology
        .libraries()
        .get(usize::from(lib))
        .map_or(1, |l| usize::from(l.robots));
    let robot_free = robots_free
        .iter()
        .skip(base)
        .take(count)
        .copied()
        .min()
        .unwrap_or(SimTime::ZERO);
    FleetView {
        robot_free,
        mount_penalty: penalties.get(usize::from(lib)).map_or(&[], Vec::as_slice),
    }
}

/// Tapes mounted in (or reserved by) every drive other than `except`,
/// collected into a reusable scratch buffer — sorted, because
/// `JukeboxView` binary-searches its `unavailable` slice.
fn tapes_held_except_into(states: &[DriveState], except: usize, out: &mut Vec<TapeId>) {
    out.clear();
    out.extend(
        states
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != except)
            .filter_map(|(_, s)| s.mounted),
    );
    out.sort_unstable();
}

/// Requeues every request still scheduled in `plan` after its tape
/// failed, marking each as disrupted by `failed_tape` for failover
/// attribution.
fn abort_plan(
    plan: &SweepPlan,
    failed_tape: TapeId,
    pending: &mut PendingList,
    faulted: &mut BTreeMap<RequestId, TapeId>,
) {
    for stop in plan.list.forward_stops().chain(plan.list.reverse_stops()) {
        for r in &stop.requests {
            faulted.insert(r.id, failed_tape);
            pending.push(*r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::{build_placement, LayoutKind, PlacementConfig, PlacementScheme};
    use tapesim_model::{BlockSize, JukeboxGeometry};
    use tapesim_sched::{make_scheduler, AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
    use tapesim_workload::BlockSampler;

    fn paper_catalog(nr: u32, sp: f64, layout: LayoutKind) -> Catalog {
        build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig {
                layout,
                ph_percent: 10.0,
                scheme: PlacementScheme::Replication { nr },
                sp,
            },
        )
        .unwrap()
        .catalog
    }

    fn run(drives: u16, alg: AlgorithmId, queue: u32, seed: u64) -> MetricsReport {
        run_faulty(drives, alg, queue, seed, &FaultConfig::NONE)
    }

    fn run_faulty(
        drives: u16,
        alg: AlgorithmId,
        queue: u32,
        seed: u64,
        faults: &FaultConfig,
    ) -> MetricsReport {
        let catalog = if faults.is_inert() {
            paper_catalog(0, 0.0, LayoutKind::Horizontal)
        } else {
            paper_catalog(1, 0.5, LayoutKind::Vertical)
        };
        let process = ArrivalProcess::Closed {
            queue_length: queue,
        };
        run_on(
            &catalog,
            drives,
            alg,
            process,
            seed,
            &SimConfig::quick(),
            faults,
        )
    }

    /// Runs `drives` drives over `catalog` at RH-40; the fault seed is the
    /// workload seed.
    fn run_on(
        catalog: &Catalog,
        drives: u16,
        alg: AlgorithmId,
        process: ArrivalProcess,
        seed: u64,
        cfg: &SimConfig,
        faults: &FaultConfig,
    ) -> MetricsReport {
        let timing = TimingModel::paper_default();
        let sampler = BlockSampler::from_catalog(catalog, 40.0);
        let mut factory = RequestFactory::new(sampler, process, seed);
        let mut sched = make_scheduler(alg);
        run_multi_drive_with_faults(
            catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            cfg,
            drives,
            faults,
            seed,
        )
        .expect("simulation failed")
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn closed_queue_fifo_makes_progress() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let r = run_on(
            &catalog,
            1,
            AlgorithmId::Fifo,
            ArrivalProcess::Closed { queue_length: 20 },
            1,
            &SimConfig::quick(),
            &FaultConfig::NONE,
        );
        assert!(r.completed > 50, "completed {}", r.completed);
        assert!(r.throughput_kb_per_s > 0.0);
        assert!(r.mean_delay_s > 0.0);
        assert!(!r.saturated);
        // FIFO switches tapes for almost every request.
        assert!(2 * r.tape_switches > r.completed);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn dynamic_max_bandwidth_beats_fifo() {
        let fifo = run(1, AlgorithmId::Fifo, 60, 1);
        let dyn_bw = run(
            1,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            60,
            1,
        );
        assert!(
            dyn_bw.throughput_kb_per_s > 2.0 * fifo.throughput_kb_per_s,
            "dynamic {} vs fifo {}",
            dyn_bw.throughput_kb_per_s,
            fifo.throughput_kb_per_s
        );
        assert!(dyn_bw.tape_switches < fifo.tape_switches);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn envelope_runs_with_full_replication() {
        let catalog = paper_catalog(9, 1.0, LayoutKind::Vertical);
        let r = run_on(
            &catalog,
            1,
            AlgorithmId::Envelope(EnvelopePolicy::MaxBandwidth),
            ArrivalProcess::Closed { queue_length: 60 },
            3,
            &SimConfig::quick(),
            &FaultConfig::NONE,
        );
        assert!(r.completed > 100, "completed {}", r.completed);
        assert!(!r.saturated);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn open_queue_low_load_is_mostly_idle() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let r = run_on(
            &catalog,
            1,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            ArrivalProcess::OpenPoisson {
                mean_interarrival: Micros::from_secs(2_000),
            },
            5,
            &SimConfig::quick(),
            &FaultConfig::NONE,
        );
        assert!(r.completed > 5);
        assert!(!r.saturated);
        assert!(r.idle_frac > 0.5, "idle {}", r.idle_frac);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn open_queue_overload_saturates() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let cfg = SimConfig {
            duration: Micros::from_secs(2_000_000),
            warmup: Micros::from_secs(1_000),
            max_pending: 200,
        };
        // One request per second vastly exceeds the ~1 req/30s capacity.
        let r = run_on(
            &catalog,
            1,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            ArrivalProcess::OpenPoisson {
                mean_interarrival: Micros::from_secs(1),
            },
            5,
            &cfg,
            &FaultConfig::NONE,
        );
        assert!(r.saturated);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn time_accounting_covers_the_window() {
        let r = run(1, AlgorithmId::Static(TapeSelectPolicy::MaxRequests), 60, 2);
        let total = r.locate_frac + r.read_frac + r.switch_frac + r.idle_frac;
        // Closed queue never idles; boundary effects keep this near 1.
        assert!((total - 1.0).abs() < 0.05, "time fractions sum to {total}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn higher_queue_length_gives_higher_throughput_and_delay() {
        let alg = AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth);
        let q20 = run(1, alg, 20, 1);
        let q140 = run(1, alg, 140, 1);
        assert!(q140.throughput_kb_per_s > q20.throughput_kb_per_s);
        assert!(q140.mean_delay_s > q20.mean_delay_s);
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let timing = TimingModel::paper_default();
        let sampler = BlockSampler::from_catalog(&catalog, 40.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 5 }, 1);
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let bad = SimConfig {
            duration: Micros::from_secs(10),
            warmup: Micros::from_secs(10),
            max_pending: 100,
        };
        let err = run_multi_drive(&catalog, &timing, sched.as_mut(), &mut factory, &bad, 1);
        assert!(matches!(err, Err(SimError::InvalidConfig(_))));
        let bad_faults = FaultConfig {
            media_error_per_read: 2.0,
            ..FaultConfig::NONE
        };
        let err = run_multi_drive_with_faults(
            &catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            1,
            &bad_faults,
            1,
        );
        assert!(matches!(err, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn inert_faults_match_the_plain_entry_point() {
        let catalog = paper_catalog(1, 0.5, LayoutKind::Vertical);
        let cfg = SimConfig::quick();
        let alg = AlgorithmId::paper_recommended();
        let timing = TimingModel::paper_default();
        let sampler = BlockSampler::from_catalog(&catalog, 40.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 40 }, 11);
        let mut sched = make_scheduler(alg);
        let plain = run_multi_drive(&catalog, &timing, sched.as_mut(), &mut factory, &cfg, 1)
            .expect("simulation failed");
        let inert = run_on(
            &catalog,
            1,
            alg,
            ArrivalProcess::Closed { queue_length: 40 },
            11,
            &cfg,
            &FaultConfig::NONE,
        );
        assert_eq!(plain, inert);
        assert_eq!(plain.failed_requests, 0);
        assert_eq!(plain.media_errors, 0);
        assert_eq!(plain.degraded_frac, 0.0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn same_seed_is_deterministic() {
        let alg = AlgorithmId::Dynamic(TapeSelectPolicy::MaxRequests);
        let a = run(1, alg, 40, 7);
        let b = run(1, alg, 40, 7);
        assert_eq!(a, b);
        let c = run(1, alg, 40, 8);
        assert_ne!(a, c);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn same_seed_same_faults_is_deterministic() {
        let faults = FaultConfig {
            media_error_per_read: 0.02,
            media_retries: 1,
            load_failure_p: 0.02,
            load_retries: 2,
            tape_mtbf: Some(Micros::from_secs(400_000)),
            tape_mttr: Some(Micros::from_secs(20_000)),
            drive_mtbf: Some(Micros::from_secs(300_000)),
            drive_mttr: Micros::from_secs(5_000),
            ..FaultConfig::NONE
        };
        let alg = AlgorithmId::paper_recommended();
        let a = run_faulty(1, alg, 40, 13, &faults);
        let b = run_faulty(1, alg, 40, 13, &faults);
        assert_eq!(a, b);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn request_conservation_holds_under_faults() {
        let faults = FaultConfig {
            media_error_per_read: 0.05,
            media_retries: 0,
            tape_mtbf: Some(Micros::from_secs(200_000)),
            tape_mttr: None, // permanent failures
            ..FaultConfig::NONE
        };
        for alg in [
            AlgorithmId::Fifo,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            AlgorithmId::paper_recommended(),
        ] {
            let r = run_faulty(1, alg, 40, 17, &faults);
            assert_eq!(
                r.admitted,
                r.served + r.failed_requests + r.unserved,
                "conservation violated for {}",
                alg.name()
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn repairable_tape_failures_degrade_but_do_not_lose_requests() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let faults = FaultConfig {
            tape_mtbf: Some(Micros::from_secs(150_000)),
            tape_mttr: Some(Micros::from_secs(10_000)),
            ..FaultConfig::NONE
        };
        let r = run_on(
            &catalog,
            1,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            ArrivalProcess::Closed { queue_length: 40 },
            19,
            &SimConfig::quick(),
            &faults,
        );
        assert_eq!(r.failed_requests, 0, "repairable faults lose nothing");
        assert!(r.degraded_frac > 0.0, "expected degraded time");
        assert!(
            r.tape_downtime_s.iter().any(|&d| d > 0.0),
            "expected tape downtime"
        );
        assert!(r.completed > 50, "service continued: {}", r.completed);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn replication_reduces_permanent_failures() {
        // Permanent (unrepaired) tape failures: without replication every
        // request stranded on a dead tape is lost; with full replication
        // of the hot data, hot requests fail over to surviving copies.
        // Cold blocks have a single copy under every NR, so losses do not
        // drop to zero — but they must drop strictly.
        let faults = FaultConfig {
            tape_mtbf: Some(Micros::from_secs(300_000)),
            tape_mttr: None,
            ..FaultConfig::NONE
        };
        let cfg = SimConfig::quick();
        let proc = ArrivalProcess::Closed { queue_length: 40 };
        let alg = AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth);
        let bare = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let replicated = paper_catalog(9, 1.0, LayoutKind::Vertical);
        let r0 = run_on(&bare, 1, alg, proc, 23, &cfg, &faults);
        let r9 = run_on(&replicated, 1, alg, proc, 23, &cfg, &faults);
        assert!(r0.failed_requests > 0, "expected losses without replicas");
        assert!(
            r9.failed_requests < r0.failed_requests,
            "replication must reduce losses: NR=9 lost {} vs NR=0 lost {}",
            r9.failed_requests,
            r0.failed_requests
        );
        assert!(r9.completed > 100);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn media_errors_fail_over_to_replicas() {
        let catalog = paper_catalog(1, 1.0, LayoutKind::Vertical);
        let faults = FaultConfig {
            media_error_per_read: 0.2,
            media_retries: 0,
            ..FaultConfig::NONE
        };
        let r = run_on(
            &catalog,
            1,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            ArrivalProcess::Closed { queue_length: 40 },
            29,
            &SimConfig::quick(),
            &faults,
        );
        assert!(r.media_errors > 0, "expected media errors");
        assert!(
            r.replica_failovers > 0,
            "expected failovers, got {} (media errors {})",
            r.replica_failovers,
            r.media_errors
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn transient_copy_loss_heals_instead_of_failing() {
        // No replicas: a permanently lost copy kills its requests, but a
        // healing copy keeps them waiting — with healing enabled the same
        // fault schedule must lose strictly fewer (here: zero) requests.
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let permanent = FaultConfig {
            media_error_per_read: 0.05,
            media_retries: 0,
            ..FaultConfig::NONE
        };
        let healing = FaultConfig {
            copy_heal_mttr: Some(Micros::from_secs(5_000)),
            ..permanent
        };
        let alg = AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth);
        let proc = ArrivalProcess::Closed { queue_length: 40 };
        let cfg = SimConfig::quick();
        let lossy = run_on(&catalog, 1, alg, proc, 41, &cfg, &permanent);
        let healed = run_on(&catalog, 1, alg, proc, 41, &cfg, &healing);
        assert!(lossy.failed_requests > 0, "expected permanent losses");
        assert_eq!(healed.failed_requests, 0, "healing copies lose nothing");
        assert_eq!(
            healed.admitted,
            healed.served + healed.failed_requests + healed.unserved,
            "conservation under transient faults"
        );
        assert!(healed.completed > 50);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn single_drive_matches_scale_of_engine() {
        let r = run(
            1,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            60,
            1,
        );
        assert!(r.completed > 200, "completed {}", r.completed);
        assert!(r.throughput_kb_per_s > 100.0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn more_drives_give_more_throughput() {
        let alg = AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth);
        let one = run(1, alg, 120, 2);
        let two = run(2, alg, 120, 2);
        let four = run(4, alg, 120, 2);
        assert!(
            two.throughput_kb_per_s > one.throughput_kb_per_s * 1.4,
            "2 drives {:.1} vs 1 drive {:.1}",
            two.throughput_kb_per_s,
            one.throughput_kb_per_s
        );
        assert!(
            four.throughput_kb_per_s > two.throughput_kb_per_s * 1.2,
            "4 drives {:.1} vs 2 drives {:.1}",
            four.throughput_kb_per_s,
            two.throughput_kb_per_s
        );
        // Delay improves with parallel service.
        assert!(two.mean_delay_s < one.mean_delay_s);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn drives_never_share_a_tape() {
        // Indirectly validated by the envelope/selection availability
        // filters; here we run every algorithm family briefly to shake
        // out conflicts (a shared tape would corrupt head positions and
        // show up as nonsense metrics or panics).
        for alg in [
            AlgorithmId::Fifo,
            AlgorithmId::Static(TapeSelectPolicy::RoundRobin),
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            AlgorithmId::paper_recommended(),
        ] {
            let r = run(3, alg, 60, 3);
            assert!(r.completed > 50, "{} completed {}", alg.name(), r.completed);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn multi_drive_is_deterministic() {
        let alg = AlgorithmId::paper_recommended();
        let a = run(3, alg, 60, 9);
        let b = run(3, alg, 60, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn too_many_drives_rejected() {
        let placed = build_placement(
            JukeboxGeometry::new(2, 1024),
            BlockSize::PAPER_DEFAULT,
            PlacementConfig {
                layout: LayoutKind::Horizontal,
                ph_percent: 0.0,
                scheme: PlacementScheme::Replication { nr: 0 },
                sp: 0.0,
            },
        )
        .unwrap();
        let timing = TimingModel::paper_default();
        let sampler = BlockSampler::from_catalog(&placed.catalog, 0.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 5 }, 1);
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let err = run_multi_drive(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            3,
        );
        assert!(matches!(err, Err(SimError::InvalidConfig(_))));
        let err = run_multi_drive(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            0,
        );
        assert!(matches!(err, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn multi_drive_conserves_requests_under_faults() {
        let faults = FaultConfig {
            media_error_per_read: 0.05,
            media_retries: 0,
            load_failure_p: 0.02,
            load_retries: 1,
            tape_mtbf: Some(Micros::from_secs(200_000)),
            tape_mttr: Some(Micros::from_secs(15_000)),
            drive_mtbf: Some(Micros::from_secs(250_000)),
            drive_mttr: Micros::from_secs(4_000),
            ..FaultConfig::NONE
        };
        for drives in [1, 3] {
            let r = run_faulty(drives, AlgorithmId::paper_recommended(), 60, 31, &faults);
            assert_eq!(
                r.admitted,
                r.served + r.failed_requests + r.unserved,
                "conservation violated with {drives} drives"
            );
            assert!(r.completed > 50, "progress with {drives} drives");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn multi_drive_faults_are_deterministic() {
        let faults = FaultConfig {
            media_error_per_read: 0.02,
            media_retries: 1,
            tape_mtbf: Some(Micros::from_secs(300_000)),
            tape_mttr: Some(Micros::from_secs(10_000)),
            ..FaultConfig::NONE
        };
        let a = run_faulty(2, AlgorithmId::paper_recommended(), 60, 37, &faults);
        let b = run_faulty(2, AlgorithmId::paper_recommended(), 60, 37, &faults);
        assert_eq!(a, b);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn stepped_multi_drive_matches_batch() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let alg = AlgorithmId::paper_recommended();
        let batch = run(3, alg, 60, 9);

        let sampler = BlockSampler::from_catalog(&catalog, 40.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 60 }, 9);
        let mut sched = make_scheduler(alg);
        let mut sink = NullSink;
        let mut engine = SteppedMultiDrive::new(
            &catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &cfg,
            3,
            &FaultConfig::NONE,
            9,
            &mut sink,
            &CheckpointOpts::none(),
        )
        .unwrap();
        engine
            .step_until(SimTime::ZERO + Micros::from_secs(40_000))
            .unwrap();
        assert!(!engine.is_done());
        assert_eq!(engine.drive_count(), 3);
        while engine.step().unwrap() == StepOutcome::Running {}
        assert_eq!(engine.finish(), batch);
    }

    #[test]
    fn external_multi_serves_submissions_and_survives_drive_loss() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let sampler = BlockSampler::from_catalog(&catalog, 40.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, 1);
        let mut sched = make_scheduler(AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth));
        let mut sink = NullSink;
        let mut engine = SteppedMultiDrive::new_external(
            &catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &cfg,
            2,
            &FaultConfig::NONE,
            1,
            &mut sink,
        )
        .unwrap();
        let blocks: Vec<BlockId> = (0..20).map(|i| BlockId(i * 53)).collect();
        for (i, b) in blocks.iter().enumerate() {
            engine
                .submit_at(*b, SimTime::ZERO + Micros::from_secs(i as u64 * 50))
                .unwrap();
        }
        // Take a drive away mid-run: the survivor keeps serving.
        engine
            .step_until(SimTime::ZERO + Micros::from_secs(500))
            .unwrap();
        engine.set_drive_offline(1, true).unwrap();
        assert_eq!(engine.drives_online(), 1);
        engine.step_until(SimTime::ZERO + cfg.duration).unwrap();
        let completed = engine
            .drain_events()
            .iter()
            .filter(|e| matches!(e, EngineEvent::Completed { .. }))
            .count() as u64;
        assert_eq!(completed, blocks.len() as u64, "all submissions served");
        let report = engine.finish();
        assert_eq!(report.served, completed);
        assert_eq!(report.unserved, 0);
    }

    #[test]
    fn cancel_removes_waiting_requests_only() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let sampler = BlockSampler::from_catalog(&catalog, 40.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, 1);
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut sink = NullSink;
        let mut engine = SteppedMultiDrive::new_external(
            &catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &cfg,
            1,
            &FaultConfig::NONE,
            1,
            &mut sink,
        )
        .unwrap();
        let a = engine.submit_at(BlockId(0), SimTime::ZERO).unwrap();
        let b = engine
            .submit_at(BlockId(999), SimTime::ZERO + Micros::from_secs(90_000))
            .unwrap();
        assert_eq!(engine.waiting(), 2);
        // `b` is still queued (future arrival): cancellable.
        assert!(engine.cancel(b));
        assert!(!engine.cancel(b), "double cancel is a no-op");
        assert_eq!(engine.waiting(), 1);
        engine.step_until(SimTime::ZERO + cfg.duration).unwrap();
        // `a` completed long ago: no longer cancellable.
        assert!(!engine.cancel(a));
        let completed = engine
            .drain_events()
            .iter()
            .filter(|e| matches!(e, EngineEvent::Completed { .. }))
            .count();
        assert_eq!(completed, 1);
        let report = engine.finish();
        assert_eq!(report.admitted, 2);
        assert_eq!(report.served, 1);
        assert_eq!(report.cancelled, 1);
        assert_eq!(report.unserved, 0);
        assert_eq!(
            report.admitted,
            report.served + report.failed_requests + report.unserved + report.cancelled
        );
    }

    /// Arrivals at one instant must reach the scheduler in admission
    /// order. Under FIFO on one drive every request is its own sweep, so
    /// the completion order is the order the arrival queue popped them
    /// in. The horizon is short so the test runs under Miri, where the
    /// full-horizon tests above are ignored.
    #[test]
    fn equal_instant_arrivals_pop_in_admission_order() {
        let catalog = paper_catalog(0, 0.0, LayoutKind::Horizontal);
        let timing = TimingModel::paper_default();
        let cfg = SimConfig {
            duration: Micros::from_secs(20_000),
            warmup: Micros::from_secs(500),
            max_pending: 5_000,
        };
        let sampler = BlockSampler::from_catalog(&catalog, 40.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, 1);
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut sink = NullSink;
        let mut engine = SteppedMultiDrive::new_external(
            &catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &cfg,
            1,
            &FaultConfig::NONE,
            1,
            &mut sink,
        )
        .unwrap();
        let blocks = catalog.num_blocks().max(1);
        let mut submitted = Vec::new();
        for (burst, at_s) in [(0u32, 0u64), (1, 600)] {
            for i in 0..7u32 {
                let block = BlockId(((burst * 7 + i) * 97) % blocks);
                let at = SimTime::ZERO + Micros::from_secs(at_s);
                submitted.push(engine.submit_at(block, at).unwrap());
            }
        }
        // The later burst is still in the arrival queue: cancel its
        // middle request.
        let cancelled = submitted[10];
        assert!(engine.cancel(cancelled));
        assert_eq!(engine.queued_len(), submitted.len() - 1);
        engine.step_until(SimTime::ZERO + cfg.duration).unwrap();

        let completed: Vec<RequestId> = engine
            .drain_events()
            .iter()
            .filter_map(|e| match *e {
                EngineEvent::Completed { req, .. } => Some(req),
                EngineEvent::Failed { .. } => None,
            })
            .collect();
        let expected: Vec<RequestId> = submitted
            .iter()
            .copied()
            .filter(|&r| r != cancelled)
            .collect();
        assert_eq!(completed, expected, "completions out of admission order");
        let report = engine.finish();
        assert_eq!(report.admitted, submitted.len() as u64);
        assert_eq!(report.cancelled, 1);
        assert_eq!(
            report.admitted,
            report.served + report.failed_requests + report.unserved + report.cancelled
        );
    }
}
