//! The envelope-extension algorithm (Section 3.2).
//!
//! Simple algorithms greedily service every request on the chosen tape,
//! even when a replicated block could be fetched far more cheaply from
//! another tape. The envelope-extension algorithm takes a global view:
//!
//! 1. the requests for **non-replicated** blocks pin down an *envelope* —
//!    a set of tape prefixes that must be traversed no matter what;
//! 2. replicated requests whose copies already fall inside the envelope
//!    are absorbed at no extra cost;
//! 3. the remaining requests are scheduled by repeatedly extending the
//!    envelope along the prefix with the highest *incremental bandwidth*
//!    (bytes gained per second of extra locate/read/switch time),
//!    shrinking it back wherever a newly enclosed replica makes an
//!    earlier extension redundant.
//!
//! The resulting *upper envelope* covers all requests. A tape-switch
//! policy (oldest request / max requests / max bandwidth) then chooses
//! which tape to visit first, and the sweep services every request
//! satisfiable inside the chosen tape's envelope.
//!
//! Scheduling an optimal extension is NP-hard (Theorem 1); the greedy
//! extension is within a harmonic factor of optimal (Theorem 2, tested
//! against a brute-force oracle in `optimal.rs`).
//!
//! A major reschedule costs what its unassigned requests cost: the
//! scheduler keeps one workspace of buffers across calls, the extension
//! loop walks only the requests no envelope covers yet, and every locate
//! and read is looked up in a table by slot distance. DESIGN.md ("The
//! envelope workspace") gives the rules.
#![expect(
    clippy::cast_precision_loss,
    reason = "request counts used for ranking stay far below 2^53"
)]

use tapesim_model::{
    BlockSize, DriveModel, LocateDirection, Micros, ReadContext, SlotIndex, TapeId,
};
use tapesim_workload::Request;

use crate::api::{ArrivalOutcome, JukeboxView, PendingList, Scheduler, ServiceList, SweepPlan};
use crate::cost::{mount_cost, split_sweep, start_head, walk_cost};

/// Tape-switch policies applicable to the envelope algorithm
/// (Section 3.2: "oldest request envelope", "max requests envelope",
/// "max bandwidth envelope").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvelopePolicy {
    /// Visit a tape that can satisfy the oldest request (by max requests
    /// among those).
    OldestRequest,
    /// Visit the tape whose envelope satisfies the most requests.
    MaxRequests,
    /// Visit the tape whose in-envelope schedule has the highest effective
    /// bandwidth.
    MaxBandwidth,
}

impl EnvelopePolicy {
    /// All three envelope tape-switch policies.
    pub const ALL: [EnvelopePolicy; 3] = [
        EnvelopePolicy::OldestRequest,
        EnvelopePolicy::MaxRequests,
        EnvelopePolicy::MaxBandwidth,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            EnvelopePolicy::OldestRequest => "oldest-request",
            EnvelopePolicy::MaxRequests => "max-requests",
            EnvelopePolicy::MaxBandwidth => "max-bandwidth",
        }
    }
}

/// The upper envelope: per tape, the first slot *outside* the envelope
/// (0 = empty envelope). A copy at slot `s` on tape `t` is inside the
/// envelope iff `s < env[t]`.
pub type Envelope = Vec<u32>;

/// The result of the upper-envelope computation: the envelope itself plus
/// the per-request tape assignment (indices into the pending snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct UpperEnvelope {
    /// First-slot-outside boundary per tape.
    pub env: Envelope,
    /// Assigned tape per request (same order as the input snapshot).
    pub assigned: Vec<TapeId>,
    /// Number of requests assigned per tape.
    pub counts: Vec<u32>,
}

/// The envelope-extension scheduler.
#[derive(Debug, Clone)]
pub struct EnvelopeScheduler {
    policy: EnvelopePolicy,
    name: String,
    /// Envelope from the most recent major reschedule, consulted and
    /// extended by the incremental scheduler during the sweep.
    env: Envelope,
    /// The plannable part of the pending list, rebuilt by each major
    /// reschedule into the same buffer.
    snapshot: Vec<Request>,
    /// Buffers of the major reschedule, cleared per call.
    ws: Workspace,
    /// Locate and read times of the drive model last seen.
    table: Option<TimingTable>,
}

impl EnvelopeScheduler {
    /// Creates an envelope scheduler with the given tape-switch policy.
    pub fn new(policy: EnvelopePolicy) -> Self {
        EnvelopeScheduler {
            policy,
            name: format!("envelope {}", policy.name()),
            env: Vec::new(),
            snapshot: Vec::new(),
            ws: Workspace::default(),
            table: None,
        }
    }

    /// The tape-switch policy.
    pub fn policy(&self) -> EnvelopePolicy {
        self.policy
    }

    /// The envelope from the most recent major reschedule (for tests and
    /// diagnostics).
    pub fn current_envelope(&self) -> &Envelope {
        &self.env
    }
}

/// The timing table for `view`'s drive model and block size, rebuilt
/// only when either changes.
fn table_for<'t>(table: &'t mut Option<TimingTable>, view: &JukeboxView<'_>) -> &'t TimingTable {
    let block = view.catalog.block_size();
    let slots = view.catalog.geometry().slots_per_tape(block);
    if !table
        .as_ref()
        .is_some_and(|t| t.matches(&view.timing.drive, block, slots))
    {
        *table = None;
    }
    table.get_or_insert_with(|| TimingTable::new(&view.timing.drive, block, slots))
}

impl Scheduler for EnvelopeScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn major_reschedule(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &mut PendingList,
    ) -> Option<SweepPlan> {
        if pending.is_empty() {
            return None;
        }
        // Only requests with a copy on an available tape can be planned
        // now (others wait for another drive to release their tape).
        self.snapshot.clear();
        self.snapshot.extend(pending.iter().filter(|r| {
            view.catalog
                .replicas(r.block)
                .iter()
                .any(|a| view.is_available(a.tape))
        }));
        if self.snapshot.is_empty() {
            return None;
        }
        let table = table_for(&mut self.table, view);
        self.ws.compute(view, &self.snapshot, table);
        let tape = self.ws.select(self.policy, view, &self.snapshot, table)?;
        let env_t = self.ws.env[tape.index()];
        let taken = pending.extract(|r| {
            view.catalog
                .copy_on_tape(r.block, tape)
                .is_some_and(|a| a.slot.0 < env_t)
        });
        debug_assert!(!taken.is_empty(), "chosen tape must satisfy something");
        // The workspace takes the previous envelope's buffer in exchange.
        std::mem::swap(&mut self.env, &mut self.ws.env);
        Some(SweepPlan {
            tape,
            list: split_sweep(view.catalog, tape, start_head(view, tape), taken),
        })
    }

    fn on_arrival(
        &mut self,
        view: &JukeboxView<'_>,
        sweep_tape: TapeId,
        sweep: &mut ServiceList,
        request: Request,
        pending: &mut PendingList,
    ) -> ArrivalOutcome {
        if self.env.len() != view.catalog.geometry().tapes as usize {
            // No envelope computed yet (no major reschedule has run).
            pending.push(request);
            return ArrivalOutcome::Deferred;
        }
        // Case 1: satisfiable by the current tape within the envelope.
        if let Some(addr) = view.catalog.copy_on_tape(request.block, sweep_tape) {
            if addr.slot.0 < self.env[sweep_tape.index()] {
                if addr.slot >= view.head {
                    sweep.insert_forward(addr.slot, request);
                } else {
                    // Behind the head but inside the envelope: read it in
                    // the reverse phase on the way back down the tape.
                    sweep.insert_reverse(addr.slot, request);
                }
                return ArrivalOutcome::Inserted;
            }
        }
        // Case 2: satisfiable inside another tape's envelope at no extra
        // envelope cost -> it will be picked up by a later sweep; defer.
        let inside_elsewhere = view.catalog.replicas(request.block).iter().any(|a| {
            a.tape != sweep_tape && view.is_available(a.tape) && a.slot.0 < self.env[a.tape.index()]
        });
        if inside_elsewhere {
            pending.push(request);
            return ArrivalOutcome::Deferred;
        }
        // Case 3: outside the envelope everywhere. Apply the extension
        // rule (steps 3-4) for this single request: extend the envelope
        // along the copy with the highest incremental bandwidth.
        let block = view.catalog.block_size();
        let table = table_for(&mut self.table, view);
        let mut best: Option<(f64, TapeId, SlotIndex)> = None;
        for a in view.catalog.replicas(request.block) {
            if !view.is_available(a.tape) {
                continue;
            }
            let env_a = SlotIndex(self.env[a.tape.index()]);
            // `prefix_cost(view, env_a, &[a.slot])`, from the table.
            let mut cost = table.step(env_a, a.slot) + table.locate(a.slot.next(), env_a).0;
            if env_a == SlotIndex::BOT && view.mounted != Some(a.tape) {
                cost += view.timing.switch_time();
            }
            let bw = cost.bytes_per_sec(block.bytes());
            let better = match &best {
                None => true,
                Some((b, t, _)) => bw > *b || (bw == *b && a.tape < *t),
            };
            if better {
                best = Some((bw, a.tape, a.slot));
            }
        }
        let Some((_, tape, slot)) = best else {
            // Every copy is on a tape held by another drive; wait.
            pending.push(request);
            return ArrivalOutcome::Deferred;
        };
        self.env[tape.index()] = self.env[tape.index()].max(slot.0 + 1);
        if tape == sweep_tape {
            // The envelope on the mounted tape always starts at or beyond
            // the head, so an extension is ahead of the head.
            sweep.insert_forward(slot, request);
            ArrivalOutcome::Inserted
        } else {
            pending.push(request);
            ArrivalOutcome::Deferred
        }
    }
}

/// Cost of walking from the envelope boundary `start` through `slots`
/// (ascending) and locating back to `start` — the incremental cost of an
/// envelope extension, excluding any tape-switch charge.
pub fn prefix_cost(view: &JukeboxView<'_>, start: SlotIndex, slots: &[SlotIndex]) -> Micros {
    let block = view.catalog.block_size();
    let mut total = walk_cost(view.timing, block, start, slots.iter().copied());
    if let Some(&last) = slots.last() {
        let (back, _) = view.timing.drive.locate(last.next(), start, block);
        total += back;
    }
    total
}

/// Computes the schedule `S1` of Section 3.3: the envelope and assignment
/// after steps 1-2 only (initial envelope from non-replicated requests,
/// then absorption). Requests left `None` are the ones an extension must
/// still schedule. Used by the Theorem 2 oracle in [`crate::optimal`].
pub fn envelope_after_absorb(
    view: &JukeboxView<'_>,
    pending: &[Request],
) -> (Envelope, Vec<Option<TapeId>>) {
    let mut ws = Workspace::default();
    ws.start(view, pending);
    (ws.env, ws.assigned)
}

/// Computes the upper envelope over a snapshot of the pending list,
/// following Section 3.2's six steps.
#[expect(
    clippy::expect_used,
    reason = "the absorb/extend loop exits only once every request is assigned"
)]
pub fn compute_upper_envelope(view: &JukeboxView<'_>, pending: &[Request]) -> UpperEnvelope {
    let block = view.catalog.block_size();
    let slots = view.catalog.geometry().slots_per_tape(block);
    let table = TimingTable::new(&view.timing.drive, block, slots);
    let mut ws = Workspace::default();
    ws.compute(view, pending, &table);
    UpperEnvelope {
        env: ws.env,
        assigned: ws
            .assigned
            .into_iter()
            .map(|a| a.expect("loop exits with all requests assigned"))
            .collect(),
        counts: ws.counts,
    }
}

/// [`DriveModel::locate`] and [`DriveModel::read_block`] by slot
/// distance, for one drive model and block size.
///
/// A locate's time depends only on its direction, its distance and
/// whether it ends at the beginning of tape, so three vectors indexed by
/// distance hold every locate within one tape. Each entry is the model's
/// own value, so sums over the table are bit-identical to sums over the
/// model. A head can rest past the last slot (a write-back flush may
/// leave it there); a distance beyond the table asks the model.
#[derive(Debug, Clone)]
struct TimingTable {
    drive: DriveModel,
    block: BlockSize,
    /// `forward[d]`: a locate `d` slots toward the end of tape.
    forward: Vec<Micros>,
    /// `reverse[d]`: a locate `d` slots back, not to the beginning.
    reverse: Vec<Micros>,
    /// `to_bot[d]`: a locate from slot `d` back to the beginning.
    to_bot: Vec<Micros>,
    /// A block read after a forward locate, after a reverse locate, and
    /// streaming on from the previous block.
    read: [Micros; 3],
}

impl TimingTable {
    /// The table for `drive` and `block` up to a distance of `slots`.
    fn new(drive: &DriveModel, block: BlockSize, slots: u32) -> TimingTable {
        let locate = |from: u32, to: u32| drive.locate(SlotIndex(from), SlotIndex(to), block).0;
        TimingTable {
            drive: drive.clone(),
            block,
            forward: (0..=slots).map(|d| locate(0, d)).collect(),
            reverse: (0..=slots).map(|d| locate(d + 1, 1)).collect(),
            to_bot: (0..=slots).map(|d| locate(d, 0)).collect(),
            read: [
                drive.read_block(block, ReadContext::AfterForwardLocate),
                drive.read_block(block, ReadContext::AfterReverseLocate),
                drive.read_block(block, ReadContext::Streaming),
            ],
        }
    }

    /// True when this table was built for `drive`, `block` and `slots`.
    fn matches(&self, drive: &DriveModel, block: BlockSize, slots: u32) -> bool {
        self.block == block && self.forward.len() == slots as usize + 1 && self.drive == *drive
    }

    /// [`DriveModel::locate`] from `from` to `to`.
    fn locate(&self, from: SlotIndex, to: SlotIndex) -> (Micros, Option<LocateDirection>) {
        let (by_distance, distance, dir) = if to > from {
            (&self.forward, to.0 - from.0, LocateDirection::Forward)
        } else if to == from {
            return (Micros::ZERO, None);
        } else if to == SlotIndex::BOT {
            (&self.to_bot, from.0, LocateDirection::Reverse)
        } else {
            (&self.reverse, from.0 - to.0, LocateDirection::Reverse)
        };
        match by_distance.get(distance as usize) {
            Some(&t) => (t, Some(dir)),
            None => self.drive.locate(from, to, self.block),
        }
    }

    /// A locate from `from` to `to` and the read of the block there: one
    /// stop of [`walk_cost`].
    fn step(&self, from: SlotIndex, to: SlotIndex) -> Micros {
        let (locate, dir) = self.locate(from, to);
        let read = match dir {
            Some(LocateDirection::Forward) => self.read[0],
            Some(LocateDirection::Reverse) => self.read[1],
            None => self.read[2],
        };
        locate + read
    }
}

/// The buffers of one major reschedule, kept by the scheduler across
/// calls so that steady state allocates nothing. [`Workspace::start`]
/// clears and resizes every one of them.
#[derive(Debug, Clone, Default)]
struct Workspace {
    env: Envelope,
    /// Assigned tape per snapshot request.
    assigned: Vec<Option<TapeId>>,
    /// Requests assigned per tape.
    counts: Vec<u32>,
    /// Snapshot indices of the requests no envelope covers yet,
    /// ascending.
    unassigned: Vec<usize>,
    /// The boundaries the extension lists were last checked against.
    checked_env: Envelope,
    cache: ExtensionCache,
    /// Shrink: per tape, the first request in snapshot order assigned to
    /// it with its copy at the tape's outer edge.
    edge_request: Vec<Option<usize>>,
    /// Selection: per tape, the slots of every snapshot request with a
    /// copy inside the tape's envelope.
    in_env: Vec<Vec<SlotIndex>>,
}

impl Workspace {
    /// Steps 1-2: the initial envelope from the non-replicated requests
    /// and the head, then absorption. Leaves `unassigned` listing the
    /// requests an extension must still schedule.
    fn start(&mut self, view: &JukeboxView<'_>, pending: &[Request]) {
        let catalog = view.catalog;
        let tapes = catalog.geometry().tapes as usize;
        reset(&mut self.env, tapes, 0);
        reset(&mut self.counts, tapes, 0);
        reset(&mut self.assigned, pending.len(), None);
        for r in pending {
            if let [a] = catalog.replicas(r.block) {
                if view.is_available(a.tape) {
                    let boundary = &mut self.env[a.tape.index()];
                    *boundary = (*boundary).max(a.slot.0 + 1);
                }
            }
        }
        if let Some(m) = view.mounted {
            self.env[m.index()] = self.env[m.index()].max(view.head.0);
        }
        self.unassigned.clear();
        self.unassigned.extend(0..pending.len());
        absorb(
            view,
            pending,
            &self.unassigned,
            &mut self.assigned,
            &mut self.counts,
            &self.env,
        );
        let assigned = &self.assigned;
        self.unassigned.retain(|&i| assigned[i].is_none());
    }

    /// Section 3.2's six steps over the snapshot `pending`, in which
    /// every request has a copy on an available tape.
    fn compute(&mut self, view: &JukeboxView<'_>, pending: &[Request], table: &TimingTable) {
        let catalog = view.catalog;
        debug_assert!(
            pending.iter().all(|r| catalog
                .replicas(r.block)
                .iter()
                .any(|a| view.is_available(a.tape))),
            "snapshot contains a request with no available copy"
        );
        self.start(view, pending);
        // Steps 3-6: extend along the best prefix, shrink, iterate. A
        // tape's extension list stays valid while its unassigned set and
        // its boundary stay the same. Assignments only ever go from
        // `None` to `Some` (shrink moves keep a request assigned), so the
        // requests that leave `unassigned` in an iteration are exactly
        // the ones whose tapes' lists went stale.
        self.cache.reset(catalog.geometry().tapes as usize);
        self.checked_env.clone_from(&self.env);
        while !self.unassigned.is_empty() {
            self.cache
                .refresh(view, pending, &self.unassigned, &self.env, table);
            extend_once(
                view,
                &mut self.assigned,
                &mut self.counts,
                &mut self.env,
                &self.cache,
            );
            self.shrink(view, pending);
            absorb(
                view,
                pending,
                &self.unassigned,
                &mut self.assigned,
                &mut self.counts,
                &self.env,
            );
            let (assigned, cache) = (&self.assigned, &mut self.cache);
            self.unassigned.retain(|&i| {
                if assigned[i].is_none() {
                    return true;
                }
                for a in catalog.replicas(pending[i].block) {
                    cache.invalidate(a.tape);
                }
                false
            });
            for (tape, checked) in catalog.geometry().tape_ids().zip(&mut self.checked_env) {
                if self.env[tape.index()] != *checked {
                    *checked = self.env[tape.index()];
                    self.cache.invalidate(tape);
                }
            }
        }
    }

    /// Step 5: shrink the envelope wherever the block scheduled at a
    /// tape's outer edge is replicated inside another tape's envelope.
    /// Shrinks the tape with the fewest scheduled requests first,
    /// breaking ties toward the lowest tape in jukebox order, and repeats
    /// until no envelope can shrink further. Each round makes one pass
    /// over the snapshot to find every tape's edge request and one to
    /// move the chosen tape's edge requests.
    fn shrink(&mut self, view: &JukeboxView<'_>, pending: &[Request]) {
        let catalog = view.catalog;
        let geometry = catalog.geometry();
        let anchor = view.mounted.unwrap_or(TapeId(0));
        let Workspace {
            env,
            assigned,
            counts,
            edge_request,
            ..
        } = self;
        loop {
            // The first request (in snapshot order) assigned to each tape
            // with its copy at that tape's edge slot.
            reset(edge_request, geometry.tapes as usize, None);
            for (i, r) in pending.iter().enumerate() {
                let Some(t) = assigned[i] else { continue };
                if edge_request[t.index()].is_some() {
                    continue;
                }
                let edge = env[t.index()];
                if catalog
                    .copy_on_tape(r.block, t)
                    .is_some_and(|a| a.slot.0 + 1 == edge)
                {
                    edge_request[t.index()] = Some(i);
                }
            }
            // Collect shrink candidates: (count, tape a, target tape b).
            let mut candidate: Option<(u32, TapeId, TapeId)> = None;
            for a in geometry.tape_ids() {
                // The head position pins the mounted tape's envelope:
                // there is nothing to gain by moving the edge block
                // elsewhere.
                if view.mounted == Some(a) && view.head.0 >= env[a.index()] {
                    continue;
                }
                let Some(i) = edge_request[a.index()] else {
                    continue; // no edge, or one pinned by the head
                };
                let replicas = catalog.replicas(pending[i].block);
                if replicas.len() < 2 {
                    continue; // non-replicated blocks cannot move
                }
                // Candidate target: a copy inside another tape's envelope.
                let mut target: Option<(u32, u16, TapeId)> = None;
                for c in replicas {
                    if c.tape == a || !view.is_available(c.tape) || c.slot.0 >= env[c.tape.index()]
                    {
                        continue;
                    }
                    if view.mounted == Some(c.tape) {
                        target = Some((u32::MAX, 0, c.tape));
                        break;
                    }
                    let cnt = counts[c.tape.index()];
                    let dist = geometry.circular_distance(anchor, c.tape);
                    let better = match &target {
                        None => true,
                        Some((bc, bd, _)) => cnt > *bc || (cnt == *bc && dist < *bd),
                    };
                    if better {
                        target = Some((cnt, dist, c.tape));
                    }
                }
                let Some((_, _, b)) = target else { continue };
                let cnt_a = counts[a.index()];
                let better = match &candidate {
                    None => true,
                    Some((bc, ba, _)) => cnt_a < *bc || (cnt_a == *bc && a < *ba),
                };
                if better {
                    candidate = Some((cnt_a, a, b));
                }
            }
            let Some((_, a, b)) = candidate else { break };

            // Move every request reading the edge block from a to b, and
            // shrink a's envelope back to its next scheduled request (or
            // to the head position on the mounted tape, or to zero).
            let edge = env[a.index()];
            let mut new_edge: u32 = 0;
            for (i, r) in pending.iter().enumerate() {
                if assigned[i] != Some(a) {
                    continue;
                }
                let Some(x) = catalog.copy_on_tape(r.block, a) else {
                    continue;
                };
                if x.slot.0 + 1 == edge {
                    assigned[i] = Some(b);
                    counts[a.index()] -= 1;
                    counts[b.index()] += 1;
                } else {
                    new_edge = new_edge.max(x.slot.0 + 1);
                }
            }
            if view.mounted == Some(a) {
                new_edge = new_edge.max(view.head.0);
            }
            debug_assert!(new_edge < edge, "shrink must make progress");
            env[a.index()] = new_edge;
        }
    }

    /// Applies the envelope tape-switch policy to the computed envelope:
    /// for each tape, the candidate set is every snapshot request
    /// satisfiable inside that tape's envelope (in general a superset of
    /// the per-tape assignment).
    fn select(
        &mut self,
        policy: EnvelopePolicy,
        view: &JukeboxView<'_>,
        pending: &[Request],
        table: &TimingTable,
    ) -> Option<TapeId> {
        let catalog = view.catalog;
        let geometry = catalog.geometry();
        let anchor = view.mounted.unwrap_or(TapeId(0));
        let block = catalog.block_size();
        let env = &self.env;

        // OldestRequest only considers the tapes whose envelope holds the
        // oldest request.
        let oldest = match policy {
            EnvelopePolicy::OldestRequest => Some(pending.first()?),
            _ => None,
        };

        // One pass over the snapshot builds every tape's in-envelope
        // candidate set (a replica appears at most once per tape).
        let tapes = geometry.tapes as usize;
        self.in_env.resize_with(tapes, Vec::new);
        self.in_env.truncate(tapes);
        for slots in &mut self.in_env {
            slots.clear();
        }
        for r in pending {
            for a in catalog.replicas(r.block) {
                if a.slot.0 < env[a.tape.index()] {
                    self.in_env[a.tape.index()].push(a.slot);
                }
            }
        }

        let mut best: Option<(f64, u16, TapeId)> = None;
        for tape in geometry.tape_ids() {
            if !view.is_available(tape) {
                continue;
            }
            if let Some(r) = oldest {
                let holds_oldest = catalog
                    .copy_on_tape(r.block, tape)
                    .is_some_and(|a| a.slot.0 < env[tape.index()]);
                if !holds_oldest {
                    continue;
                }
            }
            let slots = &mut self.in_env[tape.index()];
            if slots.is_empty() {
                continue;
            }
            let score = match policy {
                EnvelopePolicy::MaxBandwidth => {
                    slots.sort_unstable();
                    slots.dedup();
                    let mut pos = start_head(view, tape);
                    let mut cost = mount_cost(view, tape);
                    for &s in slots.iter() {
                        cost += table.step(pos, s);
                        pos = s.next();
                    }
                    cost.bytes_per_sec(slots.len() as u64 * block.bytes())
                }
                // OldestRequest restricts eligibility and then ranks by
                // request count, like the basic oldest-request policies.
                EnvelopePolicy::MaxRequests | EnvelopePolicy::OldestRequest => slots.len() as f64,
            };
            let dist = geometry.circular_distance(anchor, tape);
            let better = match &best {
                None => true,
                Some((bs, bd, _)) => score > *bs || (score == *bs && dist < *bd),
            };
            if better {
                best = Some((score, dist, tape));
            }
        }
        best.map(|(_, _, t)| t)
    }
}

/// Clears `v` and refills it with `len` copies of `value`, keeping its
/// allocation.
fn reset<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Per-call cache of the per-tape extension lists and their prefix cost
/// sums.
///
/// Every iteration of the extension loop needs, for each available tape,
/// the sorted list of slots holding copies of still-unassigned requests
/// and the cumulative locate/read/locate-back cost of each prefix. The
/// extension loop keeps this cache and invalidates only the tapes whose
/// unassigned set or envelope boundary actually changed since the list
/// was built; [`ExtensionCache::refresh`] rebuilds every stale available
/// tape in one pass over the unassigned requests' replicas.
///
/// All cached quantities are exact integer [`Micros`] sums of the same
/// locate and read times the model gives, so a cache hit is bit-identical
/// to a fresh recomputation — the property tests below assert cached
/// prefix costs equal [`prefix_cost`], and the integration tests compare
/// whole envelopes with a reference computation.
#[derive(Debug, Clone, Default)]
struct ExtensionCache {
    tapes: Vec<TapeExtension>,
}

/// One tape's cached extension list.
#[derive(Debug, Clone, Default)]
struct TapeExtension {
    valid: bool,
    /// Set while [`ExtensionCache::refresh`] refills this tape's list.
    refilling: bool,
    /// `(slot, pending index)` for every unassigned request with a copy
    /// on this tape, sorted by `(slot, index)`.
    entries: Vec<(SlotIndex, usize)>,
    /// Distinct slots, ascending — the extension list of Section 3.2.
    slots: Vec<SlotIndex>,
    /// Envelope boundary the cached walk started from.
    start: SlotIndex,
    /// Tape-switch charge applied to every prefix (nonzero only when the
    /// envelope was empty and the tape is not the mounted one).
    switch: Micros,
    /// `costs[k]`: switch charge + walk through `slots[..=k]` + locate
    /// back to `start`.
    costs: Vec<Micros>,
    /// `bws[k]`: `costs[k]` as bytes/second for a `(k + 1)`-block prefix.
    bws: Vec<f64>,
}

impl ExtensionCache {
    /// Marks every tape of a jukebox with `tapes` tapes stale, keeping
    /// the lists' allocations.
    fn reset(&mut self, tapes: usize) {
        self.tapes.resize_with(tapes, TapeExtension::default);
        self.tapes.truncate(tapes);
        for t in &mut self.tapes {
            t.valid = false;
        }
    }

    /// Marks one tape's cached extension list stale.
    fn invalidate(&mut self, tape: TapeId) {
        self.tapes[tape.index()].valid = false;
    }

    /// Distinct extension slots cached for `tape`, ascending.
    #[cfg(test)]
    fn slots(&self, tape: TapeId) -> &[SlotIndex] {
        &self.tapes[tape.index()].slots
    }

    /// Cached per-prefix extension costs for `tape`: entry `k` equals the
    /// tape-switch charge plus [`prefix_cost`] over `slots()[..=k]`.
    #[cfg(test)]
    fn prefix_costs(&self, tape: TapeId) -> &[Micros] {
        &self.tapes[tape.index()].costs
    }

    /// The envelope boundary the cached walk for `tape` started from.
    #[cfg(test)]
    fn start(&self, tape: TapeId) -> SlotIndex {
        self.tapes[tape.index()].start
    }

    /// The tape-switch charge folded into every cached prefix cost.
    #[cfg(test)]
    fn switch_charge(&self, tape: TapeId) -> Micros {
        self.tapes[tape.index()].switch
    }

    /// Rebuilds the list of every stale available tape from the requests
    /// in `unassigned`, in one pass over their replicas. A block has at
    /// most one copy per tape, so each list gets each request at most
    /// once, and sorting by `(slot, index)` gives the same list as a scan
    /// of the whole snapshot would.
    fn refresh(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &[Request],
        unassigned: &[usize],
        env: &Envelope,
        table: &TimingTable,
    ) {
        let mut any = false;
        for (tape, ext) in view.catalog.geometry().tape_ids().zip(&mut self.tapes) {
            ext.refilling = !ext.valid && view.is_available(tape);
            if ext.refilling {
                ext.entries.clear();
                any = true;
            }
        }
        if !any {
            return;
        }
        for &i in unassigned {
            for a in view.catalog.replicas(pending[i].block) {
                let ext = &mut self.tapes[a.tape.index()];
                if ext.refilling {
                    debug_assert!(
                        a.slot.0 >= env[a.tape.index()],
                        "unscheduled inside envelope"
                    );
                    ext.entries.push((a.slot, i));
                }
            }
        }
        for (tape, ext) in view.catalog.geometry().tape_ids().zip(&mut self.tapes) {
            if ext.refilling {
                ext.refilling = false;
                ext.rebuild(view, SlotIndex(env[tape.index()]), tape, table);
            }
        }
    }
}

impl TapeExtension {
    /// Sorts the refilled entries and walks each prefix from `start`,
    /// exactly as [`prefix_cost`] would for the slots seen so far.
    fn rebuild(
        &mut self,
        view: &JukeboxView<'_>,
        start: SlotIndex,
        tape: TapeId,
        table: &TimingTable,
    ) {
        self.slots.clear();
        self.costs.clear();
        self.bws.clear();
        self.start = start;
        self.switch = if start == SlotIndex::BOT && view.mounted != Some(tape) {
            view.timing.switch_time()
        } else {
            Micros::ZERO
        };
        self.valid = true;
        self.entries.sort_unstable();
        let block_bytes = view.catalog.block_size().bytes();
        let mut pos = start;
        let mut out_time = Micros::ZERO;
        for &(slot, _) in &self.entries {
            if self.slots.last() == Some(&slot) {
                continue; // several requests for the same block
            }
            self.slots.push(slot);
            out_time += table.step(pos, slot);
            pos = slot.next();
            let cost = self.switch + out_time + table.locate(pos, start).0;
            self.costs.push(cost);
            self.bws
                .push(cost.bytes_per_sec(self.slots.len() as u64 * block_bytes));
        }
    }
}

/// Step 2: absorb the requests of `unassigned` (ascending snapshot
/// indices) that are inside the envelope and not yet assigned. When
/// several replicas are inside, prefer the currently mounted tape, then
/// the tape with the most scheduled requests that is first in jukebox
/// order after the mounted tape.
fn absorb(
    view: &JukeboxView<'_>,
    pending: &[Request],
    unassigned: &[usize],
    assigned: &mut [Option<TapeId>],
    counts: &mut [u32],
    env: &Envelope,
) {
    let geometry = view.catalog.geometry();
    let anchor = view.mounted.unwrap_or(TapeId(0));
    for &i in unassigned {
        if assigned[i].is_some() {
            continue;
        }
        let mut choice: Option<(u32, u16, TapeId)> = None; // (count, dist, tape)
        for a in view.catalog.replicas(pending[i].block) {
            if a.slot.0 >= env[a.tape.index()] || !view.is_available(a.tape) {
                continue;
            }
            if view.mounted == Some(a.tape) {
                choice = Some((u32::MAX, 0, a.tape));
                break;
            }
            let c = counts[a.tape.index()];
            let dist = geometry.circular_distance(anchor, a.tape);
            let better = match &choice {
                None => true,
                Some((bc, bd, _)) => c > *bc || (c == *bc && dist < *bd),
            };
            if better {
                choice = Some((c, dist, a.tape));
            }
        }
        if let Some((_, _, tape)) = choice {
            assigned[i] = Some(tape);
            counts[tape.index()] += 1;
        }
    }
}

/// Steps 3-4: compute the incremental bandwidth of every extension-list
/// prefix and extend the envelope along the best one, scheduling its
/// requests.
fn extend_once(
    view: &JukeboxView<'_>,
    assigned: &mut [Option<TapeId>],
    counts: &mut [u32],
    env: &mut Envelope,
    cache: &ExtensionCache,
) {
    let geometry = view.catalog.geometry();

    // Best = (bandwidth, scheduled-count on tape, tape, prefix length).
    struct Best {
        bw: f64,
        count: u32,
        tape: TapeId,
        prefix: usize,
    }
    let mut best: Option<Best> = None;
    for tape in geometry.tape_ids() {
        if !view.is_available(tape) {
            continue;
        }
        let ext = &cache.tapes[tape.index()];
        debug_assert!(ext.valid, "extension list scored while stale");
        let count = counts[tape.index()];
        for (k, &bw) in ext.bws.iter().enumerate() {
            let better = match &best {
                None => true,
                Some(b) => {
                    bw > b.bw
                        || (bw == b.bw && (count > b.count || (count == b.count && tape < b.tape)))
                }
            };
            if better {
                best = Some(Best {
                    bw,
                    count,
                    tape,
                    prefix: k + 1,
                });
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "the caller loops only while unscheduled requests remain, so some prefix was scored"
    )]
    let best = best.expect("extend_once called with unscheduled requests remaining");
    // Apply the chosen prefix from the winner's cached extension list:
    // every unassigned request with a copy at or before the prefix's
    // outermost slot joins the winner tape.
    let tape = best.tape;
    let ext = &cache.tapes[tape.index()];
    let edge = ext.slots[best.prefix - 1];
    for &(slot, i) in &ext.entries {
        if slot > edge {
            break;
        }
        assigned[i] = Some(tape);
        counts[tape.index()] += 1;
    }
    env[tape.index()] = env[tape.index()].max(edge.0 + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tapesim_layout::{BlockId, Catalog, CatalogBuilder};
    use tapesim_model::{BlockSize, JukeboxGeometry, PhysicalAddr, SimTime, TimingModel};
    use tapesim_workload::RequestId;

    fn req(id: u64, blockid: u32) -> Request {
        Request {
            id: RequestId(id),
            block: BlockId(blockid),
            arrival: SimTime::ZERO,
        }
    }

    fn place(b: &mut CatalogBuilder, blk: u32, t: u16, s: u32) {
        b.place(
            BlockId(blk),
            PhysicalAddr {
                tape: TapeId(t),
                slot: SlotIndex(s),
            },
        )
        .unwrap();
    }

    fn view<'a>(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        mounted: Option<TapeId>,
        head: SlotIndex,
    ) -> JukeboxView<'a> {
        JukeboxView {
            catalog,
            timing,
            mounted,
            head,
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: crate::api::FleetView::SINGLE,
        }
    }

    /// The paper's Figure 2: tape 1 holds A, B and a far copy of D; tape 0
    /// holds C with the other copy of D right after it. With the head at
    /// the beginning of tape 1, the envelope algorithm must fetch D from
    /// tape 0 (extending past C) instead of running to the end of tape 1.
    fn figure2_catalog() -> Catalog {
        let g = JukeboxGeometry::new(2, 500);
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 4, 0);
        // Blocks: 0 = A, 1 = B, 2 = C, 3 = D.
        place(&mut b, 0, 1, 10); // A on tape 1
        place(&mut b, 1, 1, 20); // B on tape 1
        place(&mut b, 2, 0, 30); // C on tape 0
        place(&mut b, 3, 0, 31); // D replica right after C
        place(&mut b, 3, 1, 450); // D replica at the far end of tape 1
        b.build().unwrap()
    }

    #[test]
    fn figure2_example_fetches_d_from_tape0() {
        let c = figure2_catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(1)), SlotIndex(0));
        let pending = [req(0, 0), req(1, 1), req(2, 2), req(3, 3)];
        let upper = compute_upper_envelope(&v, &pending);
        // Non-replicated: A, B pin tape 1 to 21; C pins tape 0 to 31.
        // D extends tape 0 to 32 (cheap) rather than tape 1 to 451.
        assert_eq!(upper.env, vec![32, 21]);
        assert_eq!(
            upper.assigned,
            vec![TapeId(1), TapeId(1), TapeId(0), TapeId(0)]
        );
        assert_eq!(upper.counts, vec![2, 2]);
    }

    #[test]
    fn greedy_would_have_gone_to_the_tape_end() {
        // Sanity check of the scenario: without the envelope's global
        // view, tape 1's own schedule for {A, B, D} runs to slot 450.
        let c = figure2_catalog();
        let d_on_tape1 = c.copy_on_tape(BlockId(3), TapeId(1)).unwrap();
        assert_eq!(d_on_tape1.slot, SlotIndex(450));
    }

    /// Shrink scenario: X is extended onto tape 0 first (cheap, envelope
    /// already open there); a later extension of tape 1 encloses X's
    /// other copy, so step 5 moves X to tape 1 and shrinks tape 0.
    #[test]
    fn shrink_moves_edge_block_and_contracts_envelope() {
        let g = JukeboxGeometry::new(3, 500);
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 4, 0);
        place(&mut b, 0, 0, 9); // N0: non-replicated, pins tape 0 to 10
        place(&mut b, 1, 0, 10); // X on tape 0, just past N0
        place(&mut b, 1, 1, 30); // X's replica on tape 1
        place(&mut b, 2, 1, 60); // Z on tape 1 ...
        place(&mut b, 2, 2, 300); // ... and far out on tape 2
        place(&mut b, 3, 2, 490); // filler so the catalog has a block 3
        let c = b.build().unwrap();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, None, SlotIndex(0));
        let pending = [req(0, 0), req(1, 1), req(2, 2)];
        let upper = compute_upper_envelope(&v, &pending);
        // X ends up on tape 1 (its copy at 30 is inside tape 1's envelope
        // once Z extends it to 61), and tape 0 shrinks back to N0.
        assert_eq!(upper.env, vec![10, 61, 0]);
        assert_eq!(upper.assigned, vec![TapeId(0), TapeId(1), TapeId(1)]);
        assert_eq!(upper.counts, vec![1, 2, 0]);
    }

    #[test]
    fn no_replication_envelope_covers_exactly_the_requests() {
        // With single-copy blocks the upper envelope is just the initial
        // envelope, and every request is absorbed onto its only tape.
        let g = JukeboxGeometry::new(2, 500);
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 4, 0);
        place(&mut b, 0, 0, 100);
        place(&mut b, 1, 0, 200);
        place(&mut b, 2, 1, 50);
        place(&mut b, 3, 1, 400);
        let c = b.build().unwrap();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, None, SlotIndex(0));
        let pending = [req(0, 0), req(1, 1), req(2, 2), req(3, 3)];
        let upper = compute_upper_envelope(&v, &pending);
        assert_eq!(upper.env, vec![201, 401]);
        assert_eq!(
            upper.assigned,
            vec![TapeId(0), TapeId(0), TapeId(1), TapeId(1)]
        );
    }

    #[test]
    fn major_reschedule_extracts_only_in_envelope_requests() {
        let c = figure2_catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(1)), SlotIndex(0));
        let mut pending: PendingList = vec![req(0, 0), req(1, 1), req(2, 2), req(3, 3)]
            .into_iter()
            .collect();
        let mut s = EnvelopeScheduler::new(EnvelopePolicy::MaxBandwidth);
        let plan = s.major_reschedule(&v, &mut pending).unwrap();
        // Mounted tape 1 has A and B cheap (no switch); the envelope on
        // tape 1 is only 21 slots, so D@450 is NOT part of tape 1's sweep.
        assert_eq!(plan.tape, TapeId(1));
        let slots: Vec<u32> = plan.list.forward_stops().map(|r| r.slot.0).collect();
        assert_eq!(slots, vec![10, 20]);
        // C and D remain pending for the tape 0 sweep.
        assert_eq!(pending.len(), 2);
        assert_eq!(s.current_envelope(), &vec![32, 21]);
    }

    #[test]
    fn incremental_inserts_inside_envelope_ahead_of_head() {
        let c = figure2_catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(1)), SlotIndex(0));
        let mut pending: PendingList = vec![req(0, 0), req(1, 1), req(2, 2), req(3, 3)]
            .into_iter()
            .collect();
        let mut s = EnvelopeScheduler::new(EnvelopePolicy::MaxBandwidth);
        let mut plan = s.major_reschedule(&v, &mut pending).unwrap();
        // New request for B (tape 1 slot 20, inside envelope 21, ahead of
        // head 11 after reading A).
        let v2 = view(&c, &t, Some(TapeId(1)), SlotIndex(11));
        let out = s.on_arrival(&v2, TapeId(1), &mut plan.list, req(9, 1), &mut pending);
        assert_eq!(out, ArrivalOutcome::Inserted);
    }

    #[test]
    fn incremental_reverse_inserts_behind_head() {
        let c = figure2_catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(1)), SlotIndex(0));
        let mut pending: PendingList = vec![req(0, 0), req(1, 1), req(2, 2), req(3, 3)]
            .into_iter()
            .collect();
        let mut s = EnvelopeScheduler::new(EnvelopePolicy::MaxBandwidth);
        let mut plan = s.major_reschedule(&v, &mut pending).unwrap();
        // Head has passed slot 10; a new request for A (slot 10) lands in
        // the reverse phase.
        let v2 = view(&c, &t, Some(TapeId(1)), SlotIndex(15));
        let out = s.on_arrival(&v2, TapeId(1), &mut plan.list, req(9, 0), &mut pending);
        assert_eq!(out, ArrivalOutcome::Inserted);
        let rev: Vec<u32> = plan.list.reverse_stops().map(|r| r.slot.0).collect();
        assert_eq!(rev, vec![10]);
    }

    #[test]
    fn incremental_defers_requests_inside_other_envelopes() {
        let c = figure2_catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(1)), SlotIndex(0));
        let mut pending: PendingList = vec![req(0, 0), req(1, 1), req(2, 2), req(3, 3)]
            .into_iter()
            .collect();
        let mut s = EnvelopeScheduler::new(EnvelopePolicy::MaxBandwidth);
        let mut plan = s.major_reschedule(&v, &mut pending).unwrap();
        // New request for C: inside tape 0's envelope, not on tape 1 at
        // all -> deferred, envelope untouched.
        let before = s.current_envelope().clone();
        let out = s.on_arrival(&v, TapeId(1), &mut plan.list, req(9, 2), &mut pending);
        assert_eq!(out, ArrivalOutcome::Deferred);
        assert_eq!(s.current_envelope(), &before);
        assert_eq!(pending.len(), 3);
    }

    #[test]
    fn incremental_extends_envelope_for_uncovered_requests() {
        // A fresh block far out on the mounted tape: the envelope extends
        // and the request joins the sweep.
        let g = JukeboxGeometry::new(2, 500);
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 3, 0);
        place(&mut b, 0, 0, 10);
        place(&mut b, 1, 0, 50);
        place(&mut b, 2, 1, 100);
        let c = b.build().unwrap();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(0)), SlotIndex(0));
        let mut pending: PendingList = vec![req(0, 0)].into_iter().collect();
        let mut s = EnvelopeScheduler::new(EnvelopePolicy::MaxBandwidth);
        let mut plan = s.major_reschedule(&v, &mut pending).unwrap();
        assert_eq!(s.current_envelope(), &vec![11, 0]);
        let out = s.on_arrival(&v, TapeId(0), &mut plan.list, req(9, 1), &mut pending);
        assert_eq!(out, ArrivalOutcome::Inserted);
        assert_eq!(s.current_envelope(), &vec![51, 0]);
        // And an off-tape block is deferred but still extends its tape.
        let out2 = s.on_arrival(&v, TapeId(0), &mut plan.list, req(10, 2), &mut pending);
        assert_eq!(out2, ArrivalOutcome::Deferred);
        assert_eq!(s.current_envelope(), &vec![51, 101]);
    }

    #[test]
    fn empty_pending_returns_none() {
        let c = figure2_catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, None, SlotIndex(0));
        let mut s = EnvelopeScheduler::new(EnvelopePolicy::MaxRequests);
        assert!(s.major_reschedule(&v, &mut PendingList::new()).is_none());
    }

    #[test]
    fn policy_names() {
        assert_eq!(
            EnvelopeScheduler::new(EnvelopePolicy::OldestRequest).name(),
            "envelope oldest-request"
        );
        assert_eq!(EnvelopePolicy::ALL.len(), 3);
    }

    #[test]
    fn envelope_after_absorb_leaves_extensions_unassigned() {
        let c = figure2_catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(1)), SlotIndex(0));
        let pending = [req(0, 0), req(1, 1), req(2, 2), req(3, 3)];
        let (env, assigned) = envelope_after_absorb(&v, &pending);
        assert_eq!(env, vec![31, 21]);
        // D (index 3) is outside both initial envelopes.
        assert_eq!(assigned[3], None);
        assert!(assigned[..3].iter().all(Option::is_some));
    }

    // The extension cache's internals: every cached prefix cost must
    // equal an independent `prefix_cost` (exact equality, no tolerance),
    // and a list is rebuilt only once invalidated. Whole envelopes are
    // compared with a reference computation in the integration tests
    // (`tests/tests/envelope_reference.rs`).

    const TAPES: u16 = 3;
    const SLOTS: u32 = 500;

    /// Builds a random catalog on `TAPES` tapes x `SLOTS` slots (1 MB
    /// blocks), each block with the requested number of copies at random
    /// slots. Returns `None` when the placement stream runs dry.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "at most 8 blocks per generated case"
    )]
    fn random_catalog(
        placements: &[(u16, u32)],
        copies_per_block: &[usize],
    ) -> Option<(Catalog, Vec<BlockId>)> {
        let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
        let blocks = copies_per_block.len() as u32;
        let mut builder = Catalog::builder(g, BlockSize::from_mb(1), blocks, 0);
        let mut it = placements.iter();
        let mut ids = Vec::new();
        for (b, &copies) in copies_per_block.iter().enumerate() {
            let id = BlockId(b as u32);
            ids.push(id);
            let mut placed_tapes = Vec::new();
            let mut placed = 0;
            while placed < copies {
                let &(t, s) = it.next()?;
                let tape = TapeId(t % TAPES);
                if placed_tapes.contains(&tape) {
                    continue;
                }
                let addr = PhysicalAddr {
                    tape,
                    slot: SlotIndex(s % SLOTS),
                };
                if builder.place(id, addr).is_ok() {
                    placed_tapes.push(tape);
                    placed += 1;
                }
            }
        }
        builder.build().ok().map(|c| (c, ids))
    }

    fn one_request_per_block(ids: &[BlockId]) -> Vec<Request> {
        ids.iter()
            .enumerate()
            .map(|(i, b)| req(i as u64, b.0))
            .collect()
    }

    fn table_for_view(v: &JukeboxView<'_>) -> TimingTable {
        let block = v.catalog.block_size();
        TimingTable::new(
            &v.timing.drive,
            block,
            v.catalog.geometry().slots_per_tape(block),
        )
    }

    fn fresh_cache() -> ExtensionCache {
        let mut cache = ExtensionCache::default();
        cache.reset(TAPES as usize);
        cache
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn cached_prefix_costs_match_fresh_prefix_cost(
            placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 60),
            copies in proptest::collection::vec(1usize..=3, 2..=8),
            mounted in proptest::option::of(0u16..TAPES),
        ) {
            let Some((catalog, ids)) = random_catalog(&placements, &copies) else {
                return Ok(());
            };
            let timing = TimingModel::paper_default();
            let v = view(&catalog, &timing, mounted.map(TapeId), SlotIndex(0));
            let pending = one_request_per_block(&ids);
            // Drive the cache exactly as the extension loop does: from the
            // post-absorption envelope and assignment.
            let (env, assigned) = envelope_after_absorb(&v, &pending);
            let unassigned: Vec<usize> =
                (0..pending.len()).filter(|&i| assigned[i].is_none()).collect();
            let mut cache = fresh_cache();
            cache.refresh(&v, &pending, &unassigned, &env, &table_for_view(&v));
            for t in 0..TAPES {
                let tape = TapeId(t);
                prop_assert_eq!(cache.start(tape), SlotIndex(env[tape.index()]));
                let slots = cache.slots(tape).to_vec();
                let costs = cache.prefix_costs(tape).to_vec();
                prop_assert_eq!(slots.len(), costs.len());
                for k in 0..slots.len() {
                    let expect =
                        cache.switch_charge(tape) + prefix_cost(&v, cache.start(tape), &slots[..=k]);
                    prop_assert_eq!(
                        costs[k],
                        expect,
                        "tape {} prefix {} diverges from fresh recomputation",
                        t,
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn refresh_after_invalidate_reflects_new_assignments() {
        // Two replicated blocks on tape 1; assigning one elsewhere and
        // invalidating must shrink tape 1's extension list, while a refresh
        // without invalidation keeps serving the cached (stale) list — the
        // contract the extension loop relies on.
        let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 2, 0);
        place(&mut b, 0, 0, 10);
        place(&mut b, 0, 1, 50);
        place(&mut b, 1, 0, 300);
        place(&mut b, 1, 1, 70);
        let catalog = b.build().unwrap();
        let timing = TimingModel::paper_default();
        let v = view(&catalog, &timing, None, SlotIndex(0));
        let table = table_for_view(&v);
        let pending = one_request_per_block(&[BlockId(0), BlockId(1)]);
        let env = vec![0, 0, 0];
        let mut cache = fresh_cache();
        cache.refresh(&v, &pending, &[0, 1], &env, &table);
        assert_eq!(cache.slots(TapeId(1)), &[SlotIndex(50), SlotIndex(70)]);

        // Request 0 is now assigned to tape 0: only request 1 is left.
        cache.refresh(&v, &pending, &[1], &env, &table);
        assert_eq!(
            cache.slots(TapeId(1)),
            &[SlotIndex(50), SlotIndex(70)],
            "without invalidation the cached list is served as-is"
        );

        cache.invalidate(TapeId(1));
        cache.refresh(&v, &pending, &[1], &env, &table);
        assert_eq!(cache.slots(TapeId(1)), &[SlotIndex(70)]);
        assert_eq!(cache.prefix_costs(TapeId(1)).len(), 1);
        assert_eq!(
            cache.prefix_costs(TapeId(1))[0],
            cache.switch_charge(TapeId(1)) + prefix_cost(&v, SlotIndex(0), &[SlotIndex(70)])
        );
    }

    /// Every lookup equals the model's own value, up to 64 slots past the
    /// last slot (where a head parked by a write-back flush can rest), on
    /// both drive models.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn timing_table_equals_the_drive_model() {
        let block = BlockSize::PAPER_DEFAULT;
        let slots = JukeboxGeometry::PAPER_DEFAULT.slots_per_tape(block);
        for drive in [DriveModel::exb8505xl(), DriveModel::hypothetical_fast()] {
            let table = TimingTable::new(&drive, block, slots);
            assert!(table.matches(&drive, block, slots));
            for from in (0..slots + 64).map(SlotIndex) {
                for to in (0..slots + 64).map(SlotIndex) {
                    let model = drive.locate(from, to, block);
                    assert_eq!(
                        table.locate(from, to),
                        model,
                        "{}: {from} -> {to}",
                        drive.name
                    );
                    let ctx = match model.1 {
                        None => ReadContext::Streaming,
                        Some(LocateDirection::Forward) => ReadContext::AfterForwardLocate,
                        Some(LocateDirection::Reverse) => ReadContext::AfterReverseLocate,
                    };
                    assert_eq!(
                        table.step(from, to),
                        model.0 + drive.read_block(block, ctx),
                        "{}: {from} -> {to}",
                        drive.name
                    );
                }
            }
        }
        let paper = DriveModel::exb8505xl();
        let table = TimingTable::new(&paper, block, slots);
        assert!(!table.matches(&DriveModel::hypothetical_fast(), block, slots));
        assert!(!table.matches(&paper, BlockSize::from_mb(1), slots));
    }

    /// Step 5 on a hand-built state where two tapes tie on their count
    /// and the order of their shrinks changes the result. Tape 0's edge
    /// block X0 (slot 20) has a copy inside tape 2's envelope, and tape
    /// 1's edge block X1 (slot 30) one inside tape 0's, at slot 10.
    /// Shrinking tape 0 first pulls its boundary back to 4, past X1's
    /// copy, so tape 1 keeps X1: envelope [4, 31, 8]. Shrinking tape 1
    /// first would move X1 onto tape 0 and end at [11, 3, 8].
    #[test]
    fn shrink_breaks_count_ties_toward_the_lowest_tape() {
        let g = JukeboxGeometry::new(3, 500);
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 5, 0);
        place(&mut b, 0, 0, 20); // X0
        place(&mut b, 0, 2, 5);
        place(&mut b, 1, 1, 30); // X1
        place(&mut b, 1, 0, 10);
        place(&mut b, 2, 0, 3); // non-replicated, one per tape
        place(&mut b, 3, 1, 2);
        place(&mut b, 4, 2, 7);
        let c = b.build().unwrap();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, None, SlotIndex(0));
        let pending: Vec<Request> = (0..5).map(|i| req(u64::from(i), i)).collect();
        let mut ws = Workspace {
            env: vec![21, 31, 8],
            assigned: [0, 1, 0, 1, 2].map(|t| Some(TapeId(t))).to_vec(),
            counts: vec![2, 2, 1],
            ..Workspace::default()
        };
        ws.shrink(&v, &pending);
        assert_eq!(ws.env, vec![4, 31, 8]);
        assert_eq!(
            ws.assigned,
            [2, 1, 0, 1, 2].map(|t| Some(TapeId(t))).to_vec()
        );
        assert_eq!(ws.counts, vec![1, 2, 2]);
    }

    /// A scheduler reused across calls plans exactly what a new one
    /// plans: nothing of one call's workspace leaks into the next.
    #[test]
    fn reused_scheduler_plans_like_a_fresh_one() {
        let c = figure2_catalog();
        let t = TimingModel::paper_default();
        let requests = [req(0, 0), req(1, 1), req(2, 2), req(3, 3)];
        let mut reused = EnvelopeScheduler::new(EnvelopePolicy::MaxBandwidth);
        for (k, (mounted, head)) in [(Some(1), 0), (Some(0), 0), (None, 0), (Some(1), 15)]
            .into_iter()
            .enumerate()
        {
            let v = view(&c, &t, mounted.map(TapeId), SlotIndex(head));
            let pending = || -> PendingList { requests[k % 2..].iter().copied().collect() };
            let (mut a, mut b) = (pending(), pending());
            let mut fresh = EnvelopeScheduler::new(EnvelopePolicy::MaxBandwidth);
            let reused_plan = reused.major_reschedule(&v, &mut a);
            let fresh_plan = fresh.major_reschedule(&v, &mut b);
            assert_eq!(reused_plan, fresh_plan, "call {k}");
            assert_eq!(
                reused.current_envelope(),
                fresh.current_envelope(),
                "call {k}"
            );
            assert_eq!(a.len(), b.len(), "call {k}");
        }
    }
}
