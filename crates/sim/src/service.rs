//! `JukeboxService`: a long-running request service over the stepped
//! multi-drive engine core.
//!
//! The batch entry points answer "what would this workload have done";
//! the service layer answers "what does this system do to the requests I
//! hand it": a bounded admission queue with typed backpressure, optional
//! per-request deadlines with typed timeout expiry, retry with capped
//! exponential backoff after permanent read failures, and graceful
//! degradation when drives are taken offline.
//!
//! ## Lifecycle
//!
//! Construct a [`SteppedMultiDrive`] in external-arrival mode, wrap it in
//! a [`JukeboxService`], then interleave [`JukeboxService::submit`] and
//! [`JukeboxService::run_until`] calls as simulated time advances;
//! [`JukeboxService::drain`] runs the engine to its horizon, resolves
//! every open ticket, and returns the final [`MetricsReport`] plus
//! [`ServiceStats`].
//!
//! ## Conservation
//!
//! Every submission resolves to **exactly one** of completed / rejected /
//! expired:
//! - *completed*: the block was delivered no later than the deadline;
//! - *rejected*: backpressure refused admission (the queue was full under
//!   [`AdmissionPolicy::RejectNew`], or the ticket was the shed victim
//!   under [`AdmissionPolicy::ShedOldest`]), or no drive was online;
//! - *expired*: the deadline passed while waiting, the block was
//!   delivered after the deadline, retries ran out, or the run drained
//!   with the ticket unresolved.
//!
//! `ServiceStats::check_conservation` asserts the sum; the random-op
//! property test of this module asserts it, per ticket too, across
//! random fault, overload and drive-flip schedules.

use std::collections::BTreeMap;

use tapesim_layout::BlockId;
use tapesim_model::{Micros, SimTime};
use tapesim_workload::RequestId;

use crate::error::SimError;
use crate::metrics::MetricsReport;
use crate::multidrive::SteppedMultiDrive;
use crate::stepped::EngineEvent;

/// What the admission layer does when the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the new submission with [`SimError::Overloaded`].
    RejectNew,
    /// Cancel the oldest still-waiting ticket to make room; if nothing
    /// is cancellable (everything is in-flight), refuse the new
    /// submission instead.
    ShedOldest,
}

/// Configuration of a [`JukeboxService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum number of tickets waiting for service (queued in the
    /// engine or awaiting a retry). Submissions beyond this are subject
    /// to the admission policy.
    pub queue_capacity: usize,
    /// Behavior when the queue is full.
    pub admission: AdmissionPolicy,
    /// Per-request deadline, measured from the submission instant.
    /// `None` disables expiry.
    pub deadline: Option<Micros>,
    /// How many times a permanently failed read is resubmitted before
    /// the ticket expires. Each resubmission lets the scheduler fail
    /// over to any replica that is alive (or has healed) by then.
    pub max_retries: u32,
    /// Backoff before the first retry; doubled per attempt.
    pub backoff_base: Micros,
    /// Upper bound on the per-attempt backoff.
    pub backoff_cap: Micros,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            admission: AdmissionPolicy::RejectNew,
            deadline: None,
            max_retries: 2,
            backoff_base: Micros::from_secs(60),
            backoff_cap: Micros::from_secs(960),
        }
    }
}

impl ServiceConfig {
    fn validate(&self) -> Result<(), SimError> {
        if self.queue_capacity == 0 {
            return Err(SimError::InvalidConfig("queue_capacity must be positive"));
        }
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return Err(SimError::InvalidConfig("deadline must be positive"));
        }
        if self.max_retries > 0 && self.backoff_base.is_zero() {
            return Err(SimError::InvalidConfig(
                "backoff_base must be positive when retries are enabled",
            ));
        }
        if self.backoff_cap < self.backoff_base {
            return Err(SimError::InvalidConfig(
                "backoff_cap must be at least backoff_base",
            ));
        }
        Ok(())
    }
}

/// Handle to one submission, returned by [`JukeboxService::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// Externally observable state of a ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketState {
    /// Waiting for or receiving service in the engine.
    Queued,
    /// A read attempt failed permanently; the ticket waits out its
    /// backoff before resubmission.
    AwaitingRetry,
    /// Delivered no later than its deadline.
    Completed,
    /// Refused admission (backpressure or no drive online), or shed.
    Rejected,
    /// Timed out: deadline passed, retries exhausted, or unresolved at
    /// drain.
    Expired,
}

/// Counters over every submission the service has seen. Conservation:
/// `submitted == completed + rejected + expired` once
/// [`JukeboxService::drain`] has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Submissions, including rejected ones.
    pub submitted: u64,
    /// Tickets delivered within their deadline.
    pub completed: u64,
    /// Tickets refused admission or shed.
    pub rejected: u64,
    /// Tickets that timed out (waiting, late delivery, or retries
    /// exhausted).
    pub expired: u64,
    /// Resubmissions performed (not counted in `submitted`).
    pub retries: u64,
}

impl ServiceStats {
    /// True when every submission is accounted for exactly once.
    pub fn check_conservation(&self) -> bool {
        self.submitted == self.completed + self.rejected + self.expired
    }
}

#[derive(Debug, Clone, Copy)]
enum TicketPhase {
    /// Live in the engine under this request id.
    Active(RequestId),
    /// Backing off; resubmit at the instant.
    Retry(SimTime),
    Completed,
    Rejected,
    Expired,
}

impl TicketPhase {
    /// Unresolved: live in the engine or backing off.
    fn is_open(self) -> bool {
        matches!(self, TicketPhase::Active(_) | TicketPhase::Retry(_))
    }

    fn state(self) -> TicketState {
        match self {
            TicketPhase::Active(_) => TicketState::Queued,
            TicketPhase::Retry(_) => TicketState::AwaitingRetry,
            TicketPhase::Completed => TicketState::Completed,
            TicketPhase::Rejected => TicketState::Rejected,
            TicketPhase::Expired => TicketState::Expired,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TicketRecord {
    block: BlockId,
    deadline: Option<SimTime>,
    attempts: u32,
    phase: TicketPhase,
}

/// The resilient service facade over a [`SteppedMultiDrive`] in
/// external-arrival mode. See the module docs for semantics.
pub struct JukeboxService<'a> {
    engine: SteppedMultiDrive<'a>,
    cfg: ServiceConfig,
    tickets: Vec<TicketRecord>,
    /// Indices of the open tickets (active or backing off), ascending.
    /// Every per-call pass walks this instead of `tickets`, so its cost
    /// follows the backlog and the work in flight, not the run's length;
    /// ascending order keeps the passes' `cancel`/`submit_at` sequence
    /// (hence request ids and trace bytes) that of a full scan.
    open: Vec<usize>,
    /// Engine request id → ticket index (retries mint fresh engine ids).
    by_request: BTreeMap<RequestId, usize>,
    stats: ServiceStats,
    /// Service-side clock: the latest instant the caller has driven the
    /// run to. Never behind the engine clock, but can be ahead of it when
    /// the engine parked with nothing schedulable.
    clock: SimTime,
}

impl<'a> JukeboxService<'a> {
    /// Wraps an external-arrival stepped engine. Fails when the engine
    /// generates its own workload or the config is inconsistent.
    pub fn new(engine: SteppedMultiDrive<'a>, cfg: ServiceConfig) -> Result<Self, SimError> {
        if !engine.is_external() {
            return Err(SimError::InvalidConfig(
                "JukeboxService requires an external-arrival engine",
            ));
        }
        cfg.validate()?;
        Ok(JukeboxService {
            engine,
            cfg,
            tickets: Vec::new(),
            open: Vec::new(),
            by_request: BTreeMap::new(),
            stats: ServiceStats::default(),
            clock: SimTime::ZERO,
        })
    }

    /// Counters so far (final only after [`JukeboxService::drain`]).
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The service clock (the latest instant driven to).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// State of a ticket, if it exists.
    pub fn state(&self, t: Ticket) -> Option<TicketState> {
        let idx = usize::try_from(t.0).ok()?;
        self.tickets.get(idx).map(|r| r.phase.state())
    }

    /// Tickets waiting for service: live in the engine's admission
    /// backlog or backing off before a retry. This is the quantity
    /// metered against [`ServiceConfig::queue_capacity`].
    pub fn backlog(&self) -> usize {
        let retrying = self
            .open
            .iter()
            .filter(|&&i| matches!(self.tickets[i].phase, TicketPhase::Retry(_)))
            .count();
        self.engine.waiting() + retrying
    }

    /// Takes a drive out of service or brings it back (administrative,
    /// not the fault model). With survivors remaining the service
    /// degrades gracefully — the victims' requests re-queue onto the
    /// other drives. Losing the *last* drive drains the backlog: every
    /// waiting ticket expires and new submissions are rejected until a
    /// drive returns.
    pub fn set_drive_offline(&mut self, d: usize, offline: bool) -> Result<(), SimError> {
        self.engine.set_drive_offline(d, offline)?;
        if self.engine.drives_online() == 0 {
            self.expire_where(|_| true);
        }
        self.debug_check_open();
        Ok(())
    }

    /// Number of drives currently available.
    pub fn drives_online(&self) -> usize {
        self.engine.drives_online()
    }

    /// Submits one block read at instant `at` (not before the service
    /// clock). Applies backpressure per the admission policy and starts
    /// the deadline clock at `at`. Returns the ticket, or
    /// [`SimError::Overloaded`] when the submission was rejected (the
    /// rejection is still counted in the stats).
    pub fn submit(&mut self, block: BlockId, at: SimTime) -> Result<Ticket, SimError> {
        self.run_until(at)?;
        let at = at.max(self.clock);
        self.stats.submitted += 1;
        if self.engine.drives_online() == 0 {
            self.stats.rejected += 1;
            return Err(SimError::Overloaded);
        }
        if self.backlog() >= self.cfg.queue_capacity {
            let made_room = match self.cfg.admission {
                AdmissionPolicy::RejectNew => false,
                AdmissionPolicy::ShedOldest => self.shed_oldest(),
            };
            if !made_room {
                self.stats.rejected += 1;
                return Err(SimError::Overloaded);
            }
        }
        let req = self.engine.submit_at(block, at)?;
        let idx = self.tickets.len();
        self.tickets.push(TicketRecord {
            block,
            deadline: self.cfg.deadline.map(|d| at + d),
            attempts: 0,
            phase: TicketPhase::Active(req),
        });
        self.by_request.insert(req, idx);
        self.open.push(idx);
        self.debug_check_open();
        Ok(Ticket(idx as u64))
    }

    /// Advances the run to instant `t` (clamped to the horizon):
    /// services requests, resolves completions and failures, expires
    /// deadlines, and performs due retries.
    pub fn run_until(&mut self, t: SimTime) -> Result<(), SimError> {
        let t = t.min(self.engine.horizon()).max(self.clock);
        loop {
            // Perform retries due before the target so resubmission
            // happens at the backoff instant, not late at `t`.
            let due_retry = self
                .open
                .iter()
                .filter_map(|&i| match self.tickets[i].phase {
                    TicketPhase::Retry(when) if when <= t => Some(when),
                    _ => None,
                })
                .min();
            let stop_at = due_retry.unwrap_or(t);
            self.engine.step_until(stop_at)?;
            self.clock = self.clock.max(stop_at);
            self.pump()?;
            if due_retry.is_none() {
                break;
            }
        }
        self.debug_check_open();
        Ok(())
    }

    /// Runs the engine to its horizon and resolves every open ticket
    /// (unresolved ones expire). Returns the engine's metrics report —
    /// with the service-level rejected/expired counters installed — and
    /// the service stats.
    pub fn drain(self) -> Result<(MetricsReport, ServiceStats), SimError> {
        let (report, stats, _) = self.drain_with_tickets()?;
        Ok((report, stats))
    }

    /// [`JukeboxService::drain`], additionally returning the final state
    /// of every ticket in submission order. After draining, each ticket
    /// is exactly one of completed / rejected / expired — the per-ticket
    /// conservation invariant the random-op property test asserts.
    pub fn drain_with_tickets(
        mut self,
    ) -> Result<(MetricsReport, ServiceStats, Vec<TicketState>), SimError> {
        let end = self.engine.horizon();
        self.run_until(end)?;
        // Let the engine run down whatever is still in flight past the
        // park point (it stops at the horizon regardless).
        while self.engine.step()? == crate::stepped::StepOutcome::Running {}
        self.clock = end;
        self.pump()?;
        self.expire_where(|_| true);
        // A ticket can survive `expire_where` only when its request was
        // still inside an active sweep when the horizon hit (cancel
        // refuses in-flight work). The run is over, so it was not
        // delivered: it expires unresolved.
        for idx in std::mem::take(&mut self.open) {
            if let TicketPhase::Active(req) = self.tickets[idx].phase {
                self.by_request.remove(&req);
                self.tickets[idx].phase = TicketPhase::Expired;
                self.stats.expired += 1;
            }
        }
        self.debug_check_open();
        let states = self.tickets.iter().map(|r| r.phase.state()).collect();
        let mut report = self.engine.finish();
        report.rejected = self.stats.rejected;
        report.expired = self.stats.expired;
        Ok((report, self.stats, states))
    }

    /// Drains engine events and applies deadline expiry at the current
    /// clock.
    fn pump(&mut self) -> Result<(), SimError> {
        for ev in self.engine.drain_events() {
            match ev {
                EngineEvent::Completed { req, at } => {
                    let Some(idx) = self.by_request.remove(&req) else {
                        continue;
                    };
                    // Deadline tie-break: a completion at *exactly* the
                    // deadline instant counts as served — the contract is
                    // "delivered no later than the deadline", so expiry
                    // requires `deadline < completion`. The symmetric
                    // rule below expires waiting tickets only once the
                    // clock is strictly past the deadline.
                    let met = self.tickets[idx].deadline.is_none_or(|d| at <= d);
                    if met {
                        self.tickets[idx].phase = TicketPhase::Completed;
                        self.stats.completed += 1;
                    } else {
                        self.tickets[idx].phase = TicketPhase::Expired;
                        self.stats.expired += 1;
                    }
                }
                EngineEvent::Failed { req, at } => {
                    let Some(idx) = self.by_request.remove(&req) else {
                        continue;
                    };
                    self.schedule_retry(idx, at);
                }
            }
        }
        // Expire tickets whose deadline is strictly past while they are
        // still cancellable (waiting in the engine, or backing off). A
        // ticket already scheduled into a sweep runs to completion and is
        // classified by its completion instant above.
        let clock = self.clock;
        self.expire_where(|r| r.deadline.is_some_and(|d| d < clock));
        // Resubmit due retries.
        for k in 0..self.open.len() {
            let idx = self.open[k];
            if let TicketPhase::Retry(when) = self.tickets[idx].phase {
                if when <= self.clock {
                    let block = self.tickets[idx].block;
                    let req = self.engine.submit_at(block, when)?;
                    self.tickets[idx].phase = TicketPhase::Active(req);
                    self.by_request.insert(req, idx);
                    self.stats.retries += 1;
                }
            }
        }
        Ok(())
    }

    /// Moves a failed ticket into backoff, or expires it when retries
    /// are exhausted or the backoff could not beat the deadline.
    fn schedule_retry(&mut self, idx: usize, failed_at: SimTime) {
        let rec = &mut self.tickets[idx];
        if rec.attempts >= self.cfg.max_retries {
            rec.phase = TicketPhase::Expired;
            self.stats.expired += 1;
            return;
        }
        let shift = rec.attempts.min(63);
        let backoff = self
            .cfg
            .backoff_base
            .as_micros()
            .saturating_mul(1u64 << shift)
            .min(self.cfg.backoff_cap.as_micros());
        let retry_at = failed_at + Micros::from_micros(backoff);
        // A retry submitted at or after the deadline can never complete
        // in time (completion is strictly after submission), so expire
        // immediately instead of burning the attempt.
        let viable = rec.deadline.is_none_or(|d| retry_at < d);
        if !viable {
            rec.phase = TicketPhase::Expired;
            self.stats.expired += 1;
            return;
        }
        rec.attempts += 1;
        rec.phase = TicketPhase::Retry(retry_at);
    }

    /// Expires every matching ticket that is still cancellable: waiting
    /// in the engine (cancel succeeds) or backing off. In-flight work is
    /// never preempted. Then drops every resolved ticket, including those
    /// resolved since the last pass, from the open index.
    fn expire_where<F: Fn(&TicketRecord) -> bool>(&mut self, pred: F) {
        for k in 0..self.open.len() {
            let idx = self.open[k];
            if !pred(&self.tickets[idx]) {
                continue;
            }
            match self.tickets[idx].phase {
                TicketPhase::Active(req) if self.engine.cancel(req) => {
                    self.by_request.remove(&req);
                    self.tickets[idx].phase = TicketPhase::Expired;
                    self.stats.expired += 1;
                }
                TicketPhase::Retry(_) => {
                    self.tickets[idx].phase = TicketPhase::Expired;
                    self.stats.expired += 1;
                }
                _ => {}
            }
        }
        self.prune_open();
    }

    /// Sheds the oldest cancellable waiting ticket (lowest index =
    /// earliest submission). Returns whether room was made.
    fn shed_oldest(&mut self) -> bool {
        for k in 0..self.open.len() {
            let idx = self.open[k];
            match self.tickets[idx].phase {
                TicketPhase::Active(req) if self.engine.cancel(req) => {
                    self.by_request.remove(&req);
                }
                TicketPhase::Retry(_) => {}
                _ => continue,
            }
            self.tickets[idx].phase = TicketPhase::Rejected;
            self.stats.rejected += 1;
            self.open.remove(k);
            return true;
        }
        false
    }

    /// Drops resolved tickets from the open index.
    fn prune_open(&mut self) {
        let tickets = &self.tickets;
        self.open.retain(|&i| tickets[i].phase.is_open());
    }

    /// Debug builds: the open index is exactly the unresolved tickets, in
    /// ascending order.
    fn debug_check_open(&self) {
        debug_assert!(
            self.open
                .iter()
                .copied()
                .eq((0..self.tickets.len()).filter(|&i| self.tickets[i].phase.is_open())),
            "open-ticket index out of sync"
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::multidrive::SimConfig;
    use crate::trace::{MemorySink, NullSink};
    use proptest::prelude::*;
    use proptest::test_runner::{StubRng, TestCaseError};
    use tapesim_layout::{build_placement, Catalog, LayoutKind, PlacementConfig, PlacementScheme};
    use tapesim_model::{BlockSize, FaultConfig, JukeboxGeometry, TimingModel};
    use tapesim_sched::{make_scheduler, AlgorithmId, EnvelopePolicy, Scheduler, TapeSelectPolicy};
    use tapesim_workload::{ArrivalProcess, BlockSampler, RequestFactory};

    fn catalog() -> Catalog {
        build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig {
                layout: LayoutKind::Horizontal,
                ph_percent: 10.0,
                scheme: PlacementScheme::Replication { nr: 0 },
                sp: 0.0,
            },
        )
        .unwrap()
        .catalog
    }

    fn factory(catalog: &Catalog) -> RequestFactory {
        let sampler = BlockSampler::from_catalog(catalog, 40.0);
        RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, 1)
    }

    fn engine<'a>(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        sched: &'a mut dyn Scheduler,
        fac: &'a mut RequestFactory,
        cfg: &SimConfig,
        drives: u16,
        sink: &'a mut NullSink,
    ) -> SteppedMultiDrive<'a> {
        SteppedMultiDrive::new_external(
            catalog,
            timing,
            sched,
            fac,
            cfg,
            drives,
            &FaultConfig::NONE,
            7,
            sink,
        )
        .unwrap()
    }

    #[test]
    fn happy_path_conserves_and_completes() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth));
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 2, &mut sink);
        let mut svc = JukeboxService::new(eng, ServiceConfig::default()).unwrap();
        let mut tickets = Vec::new();
        for i in 0..25u32 {
            let t = svc
                .submit(
                    BlockId(i * 41),
                    SimTime::ZERO + Micros::from_secs(u64::from(i) * 40),
                )
                .unwrap();
            tickets.push(t);
        }
        let (report, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert_eq!(stats.submitted, 25);
        assert_eq!(stats.completed, 25);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.expired, 0);
        assert_eq!(report.served, 25);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.expired, 0);
    }

    #[test]
    fn reject_new_applies_backpressure() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
        let mut svc = JukeboxService::new(
            eng,
            ServiceConfig {
                queue_capacity: 4,
                admission: AdmissionPolicy::RejectNew,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // A burst at t=0 overwhelms the 4-slot queue.
        let mut rejected = 0u64;
        for i in 0..12u32 {
            match svc.submit(BlockId(i * 17), SimTime::ZERO) {
                Ok(_) => {}
                Err(SimError::Overloaded) => rejected += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected > 0, "burst should trip backpressure");
        let (report, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert_eq!(stats.rejected, rejected);
        assert_eq!(report.rejected, rejected);
        // Admitted work is eventually served.
        assert_eq!(stats.completed, stats.submitted - rejected);
    }

    #[test]
    fn shed_oldest_prefers_new_work() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
        let mut svc = JukeboxService::new(
            eng,
            ServiceConfig {
                queue_capacity: 4,
                admission: AdmissionPolicy::ShedOldest,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let mut tickets = Vec::new();
        for i in 0..12u32 {
            // Under shed-oldest the burst is admitted by evicting the
            // head of the queue; nothing should error.
            tickets.push(svc.submit(BlockId(i * 17), SimTime::ZERO).unwrap());
        }
        // The earliest cancellable submissions were shed.
        assert_eq!(svc.state(tickets[1]), Some(TicketState::Rejected));
        let (_, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert!(stats.rejected > 0, "shedding counts as rejection");
        assert!(stats.completed > 0);
    }

    #[test]
    fn deadlines_expire_waiting_work() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let blocks: Vec<BlockId> = (0..40u32).map(|i| BlockId(i * 17)).collect();

        // Calibrate: learn the completion-delay spread of this burst
        // without deadlines, then set the deadline to the midpoint so
        // the head of the burst completes in time and the tail cannot.
        let (min_delay, max_delay) = {
            let mut sched = make_scheduler(AlgorithmId::Fifo);
            let mut fac = factory(&cat);
            let mut sink = NullSink;
            let mut eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
            for b in &blocks {
                eng.submit_at(*b, SimTime::ZERO).unwrap();
            }
            eng.step_until(eng.horizon()).unwrap();
            let delays: Vec<u64> = eng
                .drain_events()
                .iter()
                .map(|e| match e {
                    EngineEvent::Completed { at, .. } => at.as_micros(),
                    EngineEvent::Failed { .. } => panic!("fault-free run failed a request"),
                })
                .collect();
            assert_eq!(delays.len(), blocks.len());
            (*delays.iter().min().unwrap(), *delays.iter().max().unwrap())
        };
        assert!(min_delay < max_delay);

        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
        let mut svc = JukeboxService::new(
            eng,
            ServiceConfig {
                deadline: Some(Micros::from_micros((min_delay + max_delay) / 2)),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        for b in &blocks {
            let _ = svc.submit(*b, SimTime::ZERO);
        }
        let (report, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert!(stats.expired > 0, "tail of the burst must time out");
        assert_eq!(report.expired, stats.expired);
        assert!(stats.completed > 0, "head of the burst is served in time");
    }

    #[test]
    fn deadline_equal_to_completion_counts_served() {
        // Tie-break coverage: learn the exact completion instant of a
        // lone request, then re-run with the deadline set to exactly that
        // instant (must complete) and to one microsecond earlier (must
        // expire). Determinism makes the twin runs comparable.
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let block = BlockId(123);
        let submit_at = SimTime::ZERO + Micros::from_secs(10);

        let completion = {
            let mut sched = make_scheduler(AlgorithmId::Fifo);
            let mut fac = factory(&cat);
            let mut sink = NullSink;
            let mut eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
            eng.submit_at(block, submit_at).unwrap();
            eng.step_until(eng.horizon()).unwrap();
            let evs = eng.drain_events();
            match evs.as_slice() {
                [EngineEvent::Completed { at, .. }] => *at,
                other => panic!("expected one completion, got {other:?}"),
            }
        };
        let deadline_exact = completion.duration_since(submit_at);

        for (deadline, expect_completed) in [
            (deadline_exact, true),
            (deadline_exact - Micros::from_micros(1), false),
        ] {
            let mut sched = make_scheduler(AlgorithmId::Fifo);
            let mut fac = factory(&cat);
            let mut sink = NullSink;
            let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
            let mut svc = JukeboxService::new(
                eng,
                ServiceConfig {
                    deadline: Some(deadline),
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let t = svc.submit(block, submit_at).unwrap();
            let (_, stats) = svc.drain().unwrap();
            assert!(stats.check_conservation(), "{stats:?}");
            if expect_completed {
                assert_eq!(stats.completed, 1, "exact-deadline completion is served");
            } else {
                assert_eq!(stats.expired, 1, "one microsecond short must expire");
            }
            let _ = t;
        }
    }

    #[test]
    fn last_drive_loss_drains_and_rejects() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 2, &mut sink);
        let mut svc = JukeboxService::new(eng, ServiceConfig::default()).unwrap();
        for i in 0..10u32 {
            svc.submit(
                BlockId(i * 29),
                SimTime::ZERO + Micros::from_secs(u64::from(i)),
            )
            .unwrap();
        }
        svc.run_until(SimTime::ZERO + Micros::from_secs(200))
            .unwrap();
        // One drive down: keep serving on the survivor.
        svc.set_drive_offline(0, true).unwrap();
        assert_eq!(svc.drives_online(), 1);
        svc.run_until(SimTime::ZERO + Micros::from_secs(400))
            .unwrap();
        // Last drive down: backlog drains (expires), new work bounces.
        svc.set_drive_offline(1, true).unwrap();
        assert_eq!(svc.drives_online(), 0);
        assert_eq!(
            svc.submit(BlockId(1), SimTime::ZERO + Micros::from_secs(401)),
            Err(SimError::Overloaded)
        );
        let (_, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert_eq!(stats.submitted, 11);
        assert_eq!(stats.rejected, 1);
        assert!(stats.expired > 0, "backlog expired on last-drive loss");
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
        assert!(JukeboxService::new(
            eng,
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            }
        )
        .is_err());
    }

    /// One operation of the random service driver.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `n` submissions, or the queue capacity plus `n` when `flood`,
        /// from `after_s` past the clock, `gap_us` apart (0: all at one
        /// instant).
        Burst {
            n: u32,
            flood: bool,
            after_s: u64,
            gap_us: u64,
        },
        /// One submission past the horizon.
        PastHorizon,
        /// Advances the run by this many seconds.
        Run(u64),
        /// Takes drive `d` (modulo the drive count) offline, or brings it
        /// back; every drive can be down at once.
        Flip(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..20, 1u32..=24, 0u64..600, 0usize..3).prop_map(|(kind, n, s, g)| match kind {
            0 => Op::PastHorizon,
            1..=3 => Op::Flip((n % 4) as usize),
            4..=8 => Op::Run(s * 5),
            9 | 10 => Op::Burst {
                n,
                flood: true,
                after_s: s,
                gap_us: 1,
            },
            _ => Op::Burst {
                n,
                flood: false,
                after_s: s,
                gap_us: [0, 1, 250_000][g],
            },
        })
    }

    fn service_config() -> impl Strategy<Value = ServiceConfig> {
        (
            2usize..=48,
            0u32..2,
            proptest::option::of(300u64..4_000),
            0u32..=3,
        )
            .prop_map(
                |(queue_capacity, shed, deadline_s, max_retries)| ServiceConfig {
                    queue_capacity,
                    admission: if shed == 1 {
                        AdmissionPolicy::ShedOldest
                    } else {
                        AdmissionPolicy::RejectNew
                    },
                    deadline: deadline_s.map(Micros::from_secs),
                    max_retries,
                    backoff_base: Micros::from_secs(60),
                    backoff_cap: Micros::from_secs(960),
                },
            )
    }

    /// The shape of one driven run.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        drives: u16,
        algorithm: AlgorithmId,
        /// Vertical rather than horizontal NR-1 placement.
        vertical: bool,
        /// Mean heal time of a copy lost to a media error; `None` loses
        /// the copy for good.
        heal: Option<Micros>,
        svc: ServiceConfig,
    }

    fn case() -> impl Strategy<Value = Case> {
        const ALGORITHMS: [AlgorithmId; 3] = [
            AlgorithmId::Fifo,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            AlgorithmId::Envelope(EnvelopePolicy::MaxBandwidth),
        ];
        (
            2u16..=4,
            0usize..3,
            0u32..2,
            proptest::option::of(500u64..4_000),
            service_config(),
        )
            .prop_map(|(drives, algorithm, vertical, heal_s, svc)| Case {
                drives,
                algorithm: ALGORITHMS[algorithm],
                vertical: vertical == 1,
                heal: heal_s.map(Micros::from_secs),
                svc,
            })
    }

    /// The inputs of one driven run: its shape and its ops.
    fn inputs() -> impl Strategy<Value = (Case, Vec<Op>)> {
        (case(), proptest::collection::vec(op(), 1..40))
    }

    /// Everything observable about one driven run.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Driven {
        report: MetricsReport,
        pub(crate) stats: ServiceStats,
        states: Vec<TicketState>,
        pub(crate) trace: Vec<crate::TraceRecord>,
    }

    /// Checks the open-ticket index against the engine after an op:
    /// every open ticket is either in the backlog or in flight, and the
    /// index never outgrows the queue capacity plus the most work seen in
    /// flight so far (admission is the only way in, and it needs a
    /// backlog below capacity).
    fn check_open_bound(
        svc: &JukeboxService<'_>,
        peak_in_flight: &mut usize,
    ) -> Result<(), TestCaseError> {
        let in_flight = svc.engine.in_flight();
        *peak_in_flight = (*peak_in_flight).max(in_flight);
        prop_assert_eq!(svc.open.len(), svc.backlog() + in_flight);
        prop_assert!(
            svc.open.len() <= svc.cfg.queue_capacity + *peak_in_flight,
            "{} open tickets, capacity {}, peak in flight {}",
            svc.open.len(),
            svc.cfg.queue_capacity,
            *peak_in_flight
        );
        Ok(())
    }

    /// Drives a faulted service of `case`'s shape through `ops`,
    /// checking the admission bounds after every operation and
    /// conservation, the report's counters and the trace after the drain.
    fn drive(cat: &Catalog, case: Case, ops: &[Op]) -> Result<Driven, TestCaseError> {
        let timing = TimingModel::paper_default();
        let cfg = SimConfig {
            duration: Micros::from_secs(20_000),
            warmup: Micros::ZERO,
            max_pending: 5_000,
        };
        let faults = FaultConfig {
            media_error_per_read: 0.05,
            media_retries: 0,
            copy_heal_mttr: case.heal,
            tape_mtbf: Some(Micros::from_secs(5_000)),
            tape_mttr: Some(Micros::from_secs(1_000)),
            ..FaultConfig::NONE
        };
        let svc_cfg = case.svc;
        let mut sched = make_scheduler(case.algorithm);
        let mut fac = factory(cat);
        let mut blocks = factory(cat);
        let mut sink = MemorySink::new();
        let eng = SteppedMultiDrive::new_external(
            cat,
            &timing,
            sched.as_mut(),
            &mut fac,
            &cfg,
            case.drives,
            &faults,
            3,
            &mut sink,
        )
        .unwrap();
        let mut svc = JukeboxService::new(eng, svc_cfg).unwrap();
        let mut offline = vec![false; usize::from(case.drives)];
        let mut bounced = 0u64;
        let mut peak_in_flight = 0;
        for &op in ops {
            match op {
                Op::Burst {
                    n,
                    flood,
                    after_s,
                    gap_us,
                } => {
                    let overfill = if flood { svc_cfg.queue_capacity } else { 0 };
                    let t0 = svc.now() + Micros::from_secs(after_s);
                    for i in 0..u64::from(n) + overfill as u64 {
                        let at = t0 + Micros::from_micros(i * gap_us);
                        // Every other submission runs to its instant
                        // first, so the backlog its admission sees can be
                        // read; the rest let `submit` advance the run.
                        let before = (i % 2 == 0).then(|| {
                            svc.run_until(at).unwrap();
                            svc.backlog()
                        });
                        match svc.submit(blocks.make(at).block, at) {
                            Ok(_) => {}
                            Err(SimError::Overloaded) => bounced += 1,
                            Err(e) => panic!("submit failed: {e}"),
                        }
                        // Admission never grows the backlog past the
                        // capacity: failed reads and aborted sweeps can
                        // push it over, but only from in flight.
                        if let Some(before) = before {
                            prop_assert!(
                                svc.backlog() <= svc_cfg.queue_capacity.max(before),
                                "backlog {} after admission from {before}",
                                svc.backlog()
                            );
                        }
                        check_open_bound(&svc, &mut peak_in_flight)?;
                    }
                }
                Op::PastHorizon => {
                    let at = svc.engine.horizon() + Micros::from_secs(1_000);
                    match svc.submit(blocks.make(at).block, at) {
                        Ok(_) => {}
                        Err(SimError::Overloaded) => bounced += 1,
                        Err(e) => panic!("submit failed: {e}"),
                    }
                }
                Op::Run(s) => svc.run_until(svc.now() + Micros::from_secs(s)).unwrap(),
                Op::Flip(d) => {
                    let d = d % offline.len();
                    offline[d] = !offline[d];
                    svc.set_drive_offline(d, offline[d]).unwrap();
                }
            }
            check_open_bound(&svc, &mut peak_in_flight)?;
        }
        let (report, stats, states) = svc.drain_with_tickets().unwrap();
        prop_assert!(stats.check_conservation(), "{stats:?}");
        let count = |want: TicketState| states.iter().filter(|&&s| s == want).count() as u64;
        prop_assert_eq!(
            count(TicketState::Queued) + count(TicketState::AwaitingRetry),
            0,
            "tickets left open after drain"
        );
        prop_assert_eq!(count(TicketState::Completed), stats.completed);
        prop_assert_eq!(count(TicketState::Expired), stats.expired);
        prop_assert_eq!(count(TicketState::Rejected) + bounced, stats.rejected);
        prop_assert_eq!(states.len() as u64 + bounced, stats.submitted);
        prop_assert_eq!(
            (report.rejected, report.expired),
            (stats.rejected, stats.expired),
            "the report's rejected/expired against {:?}",
            stats
        );
        prop_assert_eq!(
            report.admitted,
            report.served + report.failed_requests + report.unserved + report.cancelled,
            "admitted {} != served {} + failed {} + unserved {} + cancelled {}",
            report.admitted,
            report.served,
            report.failed_requests,
            report.unserved,
            report.cancelled
        );
        let trace = sink.into_events();
        prop_assert!(crate::check_trace(&trace).is_ok(), "trace invariants");
        Ok(Driven {
            report,
            stats,
            states,
            trace,
        })
    }

    fn replicated_catalog(layout: LayoutKind) -> Catalog {
        build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig {
                layout,
                ph_percent: 10.0,
                scheme: PlacementScheme::Replication { nr: 1 },
                sp: 1.0,
            },
        )
        .unwrap()
        .catalog
    }

    /// One seeded soak of the service: the first inputs a generator
    /// seeded with `seed` draws, driven with every check of `drive`.
    pub(crate) fn soak(seed: u64) -> Driven {
        let (case, ops) = inputs().generate(&mut StubRng::new(seed));
        let layout = if case.vertical {
            LayoutKind::Vertical
        } else {
            LayoutKind::Horizontal
        };
        drive(&replicated_catalog(layout), case, &ops)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{case:?}\n{ops:?}"))
    }

    /// Random op sequences over random service shapes. Every case keeps
    /// the open-ticket index bounded, conserves its tickets, passes the
    /// trace checker and replays identically; across the cases the
    /// service rejects, expires and retries, so no outcome goes
    /// untested. The case count is fixed rather than read from
    /// `PROPTEST_CASES`, since that last check needs the whole set.
    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn random_ops_keep_open_index_bounded_and_deterministic() {
        let catalogs = [
            replicated_catalog(LayoutKind::Horizontal),
            replicated_catalog(LayoutKind::Vertical),
        ];
        let inputs = inputs();
        let mut rng = StubRng::new(0x5E41_11CE);
        let mut seen = ServiceStats::default();
        for n in 0..256 {
            let (case, ops) = inputs.generate(&mut rng);
            let cat = &catalogs[usize::from(case.vertical)];
            let run = || {
                drive(cat, case, &ops)
                    .unwrap_or_else(|e| panic!("case {n}: {e}\n{case:?}\n{ops:?}"))
            };
            let first = run();
            assert!(
                first == run(),
                "case {n}: two runs of the same ops differ\n{case:?}\n{ops:?}"
            );
            seen.rejected += first.stats.rejected;
            seen.expired += first.stats.expired;
            seen.retries += first.stats.retries;
        }
        assert!(
            seen.rejected > 0 && seen.expired > 0 && seen.retries > 0,
            "an outcome never occurred across the cases: {seen:?}"
        );
    }
}
