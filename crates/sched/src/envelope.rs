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
#![allow(clippy::cast_precision_loss)] // request counts used for ranking stay far below 2^53

use tapesim_model::{Micros, ReadContext, SlotIndex, TapeId};
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
}

impl EnvelopeScheduler {
    /// Creates an envelope scheduler with the given tape-switch policy.
    pub fn new(policy: EnvelopePolicy) -> Self {
        EnvelopeScheduler {
            policy,
            name: format!("envelope {}", policy.name()),
            env: Vec::new(),
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
        let snapshot: Vec<Request> = pending
            .iter()
            .filter(|r| {
                view.catalog
                    .replicas(r.block)
                    .iter()
                    .any(|a| view.is_available(a.tape))
            })
            .copied()
            .collect();
        if snapshot.is_empty() {
            return None;
        }
        let upper = compute_upper_envelope(view, &snapshot);
        let tape = select_envelope_tape(self.policy, view, &snapshot, &upper.env)?;
        let env_t = upper.env[tape.index()];
        let taken = pending.extract(|r| {
            view.catalog
                .copy_on_tape(r.block, tape)
                .is_some_and(|a| a.slot.0 < env_t)
        });
        debug_assert!(!taken.is_empty(), "chosen tape must satisfy something");
        self.env = upper.env;
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
        let mut best: Option<(f64, TapeId, SlotIndex)> = None;
        for a in view.catalog.replicas(request.block) {
            if !view.is_available(a.tape) {
                continue;
            }
            let env_a = SlotIndex(self.env[a.tape.index()]);
            let mut cost = prefix_cost(view, env_a, &[a.slot]);
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

    /// The per-tape envelope boundaries as a comma-separated list (empty
    /// string before the first major reschedule).
    fn checkpoint_state(&self) -> Option<String> {
        let s = self
            .env
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        Some(s)
    }

    fn restore_state(&mut self, state: &str) -> Result<(), &'static str> {
        if state.is_empty() {
            self.env = Vec::new();
            return Ok(());
        }
        let mut env = Vec::new();
        for part in state.split(',') {
            let v: u32 = part
                .parse()
                .map_err(|_| "malformed envelope boundary in checkpoint")?;
            env.push(v);
        }
        self.env = env;
        Ok(())
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
    let catalog = view.catalog;
    let tapes = catalog.geometry().tapes as usize;
    let mut env: Envelope = vec![0; tapes];
    for r in pending {
        if let [a] = catalog.replicas(r.block) {
            if view.is_available(a.tape) {
                let boundary = &mut env[a.tape.index()];
                *boundary = (*boundary).max(a.slot.0 + 1);
            }
        }
    }
    if let Some(m) = view.mounted {
        env[m.index()] = env[m.index()].max(view.head.0);
    }
    let mut assigned: Vec<Option<TapeId>> = vec![None; pending.len()];
    let mut counts: Vec<u32> = vec![0; tapes];
    absorb(view, pending, &mut assigned, &mut counts, &env);
    (env, assigned)
}

/// Per-call cache of the per-tape extension lists and their prefix cost
/// sums.
///
/// Every iteration of the extension loop needs, for each available tape,
/// the sorted list of slots holding copies of still-unassigned requests
/// and the cumulative locate/read/locate-back cost of each prefix.
/// Rebuilding those lists on every iteration costs O(tapes x requests)
/// plus a sort per tape; the driver loop instead keeps this cache and
/// invalidates only the tapes whose unassigned set or envelope boundary
/// actually changed since the list was built.
///
/// All cached quantities are exact integer [`Micros`] sums produced by
/// the same incremental walk the uncached code performs, so a cache hit
/// is bit-identical to a fresh recomputation — the property tests below
/// assert cached prefix costs equal [`prefix_cost`] and that the cached
/// and always-rebuild drivers agree.
#[derive(Debug, Clone, Default)]
struct ExtensionCache {
    tapes: Vec<TapeExtension>,
}

/// One tape's cached extension list.
#[derive(Debug, Clone, Default)]
struct TapeExtension {
    valid: bool,
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
    /// An empty (all-stale) cache for a jukebox with `tapes` tapes.
    fn new(tapes: usize) -> ExtensionCache {
        ExtensionCache {
            tapes: vec![TapeExtension::default(); tapes],
        }
    }

    /// Marks one tape's cached extension list stale.
    fn invalidate(&mut self, tape: TapeId) {
        self.tapes[tape.index()].valid = false;
    }

    /// Marks every tape stale (used by the fresh-recomputation reference
    /// driver the property tests compare against).
    fn invalidate_all(&mut self) {
        for t in &mut self.tapes {
            t.valid = false;
        }
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

    /// Rebuilds `tape`'s extension list if it is stale.
    fn refresh(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &[Request],
        assigned: &[Option<TapeId>],
        env: &Envelope,
        tape: TapeId,
    ) {
        if !self.tapes[tape.index()].valid {
            self.rebuild(view, pending, assigned, env, tape);
        }
    }

    fn rebuild(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &[Request],
        assigned: &[Option<TapeId>],
        env: &Envelope,
        tape: TapeId,
    ) {
        let catalog = view.catalog;
        let ext = &mut self.tapes[tape.index()];
        ext.entries.clear();
        ext.slots.clear();
        ext.costs.clear();
        ext.bws.clear();
        for (i, r) in pending.iter().enumerate() {
            if assigned[i].is_some() {
                continue;
            }
            if let Some(a) = catalog.copy_on_tape(r.block, tape) {
                debug_assert!(a.slot.0 >= env[tape.index()], "unscheduled inside envelope");
                ext.entries.push((a.slot, i));
            }
        }
        ext.start = SlotIndex(env[tape.index()]);
        ext.switch = if ext.start == SlotIndex::BOT && view.mounted != Some(tape) {
            view.timing.switch_time()
        } else {
            Micros::ZERO
        };
        ext.valid = true;
        if ext.entries.is_empty() {
            return;
        }
        ext.entries.sort_unstable();

        // Walk each prefix incrementally, exactly as `prefix_cost` would
        // for the slots seen so far.
        let block = catalog.block_size();
        let start = ext.start;
        let mut pos = start;
        let mut out_time = Micros::ZERO;
        for &(slot, _) in &ext.entries {
            if ext.slots.last() == Some(&slot) {
                continue; // several requests for the same block
            }
            ext.slots.push(slot);
            let (lt, dir) = view.timing.drive.locate(pos, slot, block);
            let ctx = match dir {
                None => ReadContext::Streaming,
                Some(tapesim_model::LocateDirection::Forward) => ReadContext::AfterForwardLocate,
                Some(tapesim_model::LocateDirection::Reverse) => ReadContext::AfterReverseLocate,
            };
            out_time += lt + view.timing.drive.read_block(block, ctx);
            pos = slot.next();
            let (back, _) = view.timing.drive.locate(pos, start, block);
            let cost = ext.switch + out_time + back;
            ext.costs.push(cost);
            ext.bws
                .push(cost.bytes_per_sec(ext.slots.len() as u64 * block.bytes()));
        }
    }
}

/// Computes the upper envelope over a snapshot of the pending list,
/// following Section 3.2's six steps. Reuses cached extension lists
/// across iterations of the extension loop.
pub fn compute_upper_envelope(view: &JukeboxView<'_>, pending: &[Request]) -> UpperEnvelope {
    compute_upper_envelope_impl(view, pending, false)
}

/// Reference variant of [`compute_upper_envelope`] that rebuilds every
/// extension list on every iteration instead of reusing the cache. Only
/// exists so tests can assert the cached and fresh computations agree;
/// schedulers always use the cached driver.
#[cfg(test)]
fn compute_upper_envelope_fresh(view: &JukeboxView<'_>, pending: &[Request]) -> UpperEnvelope {
    compute_upper_envelope_impl(view, pending, true)
}

fn compute_upper_envelope_impl(
    view: &JukeboxView<'_>,
    pending: &[Request],
    always_rebuild: bool,
) -> UpperEnvelope {
    let catalog = view.catalog;
    let tapes = catalog.geometry().tapes as usize;
    let n = pending.len();
    let mut env: Envelope = vec![0; tapes];

    // Step 1: initial envelope from non-replicated requests; include the
    // current head position on the mounted tape. In the multi-drive
    // extension, every request in `pending` must have a copy on an
    // available tape (the caller filters), and unavailable tapes are
    // never part of the envelope.
    for r in pending {
        debug_assert!(
            catalog
                .replicas(r.block)
                .iter()
                .any(|a| view.is_available(a.tape)),
            "snapshot contains a request with no available copy"
        );
        if let [a] = catalog.replicas(r.block) {
            let boundary = &mut env[a.tape.index()];
            *boundary = (*boundary).max(a.slot.0 + 1);
        }
    }
    if let Some(m) = view.mounted {
        env[m.index()] = env[m.index()].max(view.head.0);
    }

    let mut assigned: Vec<Option<TapeId>> = vec![None; n];
    let mut counts: Vec<u32> = vec![0; tapes];

    // Step 2 (and re-absorption at each iteration): schedule every
    // request satisfiable inside the current envelope.
    absorb(view, pending, &mut assigned, &mut counts, &env);

    // Steps 3-6: extend along the best prefix, shrink, iterate. The
    // cached extension lists stay valid for any tape whose unassigned
    // set and envelope boundary did not change; after each iteration the
    // diff below invalidates exactly the tapes they did change for (a
    // request's assignment flip dirties every tape holding a replica of
    // its block; assignment *moves* during shrink keep the request
    // assigned and so never touch the unassigned extension lists).
    let mut cache = ExtensionCache::new(tapes);
    let mut was_assigned: Vec<bool> = assigned.iter().map(Option::is_some).collect();
    let mut prev_env = env.clone();
    while assigned.iter().any(Option::is_none) {
        if always_rebuild {
            cache.invalidate_all();
        }
        extend_once(
            view,
            pending,
            &mut assigned,
            &mut counts,
            &mut env,
            &mut cache,
        );
        shrink(view, pending, &mut assigned, &mut counts, &mut env);
        absorb(view, pending, &mut assigned, &mut counts, &env);
        for (i, was) in was_assigned.iter_mut().enumerate() {
            let now = assigned[i].is_some();
            if now != *was {
                *was = now;
                for a in catalog.replicas(pending[i].block) {
                    cache.invalidate(a.tape);
                }
            }
        }
        for (tape, prev) in catalog.geometry().tape_ids().zip(prev_env.iter_mut()) {
            if env[tape.index()] != *prev {
                *prev = env[tape.index()];
                cache.invalidate(tape);
            }
        }
    }

    UpperEnvelope {
        env,
        assigned: assigned
            .into_iter()
            // simlint: allow(panic, the absorb/extend loop above exits only once every request is assigned)
            .map(|a| a.expect("loop exits with all requests assigned"))
            .collect(),
        counts,
    }
}

/// Step 2: absorb unscheduled requests that are inside the envelope. When
/// several replicas are inside, prefer the currently mounted tape, then
/// the tape with the most scheduled requests that is first in jukebox
/// order after the mounted tape.
fn absorb(
    view: &JukeboxView<'_>,
    pending: &[Request],
    assigned: &mut [Option<TapeId>],
    counts: &mut [u32],
    env: &Envelope,
) {
    let geometry = view.catalog.geometry();
    let anchor = view.mounted.unwrap_or(TapeId(0));
    for (i, r) in pending.iter().enumerate() {
        if assigned[i].is_some() {
            continue;
        }
        let mut choice: Option<(u32, u16, TapeId)> = None; // (count, dist, tape)
        for a in view.catalog.replicas(r.block) {
            if !view.is_available(a.tape) || a.slot.0 >= env[a.tape.index()] {
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
    pending: &[Request],
    assigned: &mut [Option<TapeId>],
    counts: &mut [u32],
    env: &mut Envelope,
    cache: &mut ExtensionCache,
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
        cache.refresh(view, pending, assigned, env, tape);
        let ext = &cache.tapes[tape.index()];
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

    // simlint: allow(panic, the caller loops only while unscheduled requests remain, so some prefix was scored)
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

/// Step 5: shrink the envelope wherever the block scheduled at a tape's
/// outer edge is replicated inside another tape's envelope. Shrinks the
/// tape with the fewest scheduled requests first, breaking ties toward
/// the lowest tape in jukebox order, and repeats until no envelope can
/// shrink further.
fn shrink(
    view: &JukeboxView<'_>,
    pending: &[Request],
    assigned: &mut [Option<TapeId>],
    counts: &mut [u32],
    env: &mut Envelope,
) {
    let catalog = view.catalog;
    let geometry = catalog.geometry();
    let anchor = view.mounted.unwrap_or(TapeId(0));
    loop {
        // Collect shrink candidates: (count, tape a, target tape b).
        let mut candidate: Option<(u32, TapeId, TapeId)> = None;
        for a in geometry.tape_ids() {
            // The outer edge must be defined by a scheduled request.
            let edge = env[a.index()];
            if edge == 0 {
                continue;
            }
            // The head position pins the mounted tape's envelope: there is
            // nothing to gain by moving the edge block elsewhere.
            if view.mounted == Some(a) && view.head.0 >= edge {
                continue;
            }
            // Find the requests assigned to `a` at the edge slot.
            let edge_slot = SlotIndex(edge - 1);
            let mut edge_block = None;
            for (i, r) in pending.iter().enumerate() {
                if assigned[i] != Some(a) {
                    continue;
                }
                if catalog.copy_on_tape(r.block, a).map(|x| x.slot) == Some(edge_slot) {
                    edge_block = Some(r.block);
                    break;
                }
            }
            let Some(block) = edge_block else {
                continue; // edge pinned by the head position, not a request
            };
            let replicas = catalog.replicas(block);
            if replicas.len() < 2 {
                continue; // non-replicated blocks cannot move
            }
            // Candidate target: a copy inside another tape's envelope.
            let mut target: Option<(u32, u16, TapeId)> = None;
            for c in replicas {
                if c.tape == a || !view.is_available(c.tape) || c.slot.0 >= env[c.tape.index()] {
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

        // Move every request reading the edge block from a to b.
        let edge_slot = SlotIndex(env[a.index()] - 1);
        for (i, r) in pending.iter().enumerate() {
            if assigned[i] == Some(a)
                && catalog.copy_on_tape(r.block, a).map(|x| x.slot) == Some(edge_slot)
            {
                assigned[i] = Some(b);
                counts[a.index()] -= 1;
                counts[b.index()] += 1;
            }
        }
        // Shrink a's envelope back to its next scheduled request (or to
        // the head position on the mounted tape, or to zero).
        let mut new_edge: u32 = 0;
        for (i, r) in pending.iter().enumerate() {
            if assigned[i] == Some(a) {
                if let Some(x) = catalog.copy_on_tape(r.block, a) {
                    new_edge = new_edge.max(x.slot.0 + 1);
                }
            }
        }
        if view.mounted == Some(a) {
            new_edge = new_edge.max(view.head.0);
        }
        debug_assert!(new_edge < env[a.index()], "shrink must make progress");
        env[a.index()] = new_edge;
    }
}

/// Applies the envelope tape-switch policy: for each tape, the candidate
/// set is every pending request satisfiable inside that tape's envelope
/// (in general a superset of the per-tape assignment).
fn select_envelope_tape(
    policy: EnvelopePolicy,
    view: &JukeboxView<'_>,
    pending: &[Request],
    env: &Envelope,
) -> Option<TapeId> {
    let catalog = view.catalog;
    let geometry = catalog.geometry();
    let anchor = view.mounted.unwrap_or(TapeId(0));
    let block = catalog.block_size();

    // In-envelope candidate sets per tape.
    let in_env = |r: &Request, tape: TapeId| -> Option<SlotIndex> {
        catalog
            .copy_on_tape(r.block, tape)
            .filter(|a| a.slot.0 < env[tape.index()])
            .map(|a| a.slot)
    };

    let eligible: Option<Vec<TapeId>> = match policy {
        EnvelopePolicy::OldestRequest => {
            let oldest = pending.first()?;
            Some(
                geometry
                    .tape_ids()
                    .filter(|&t| in_env(oldest, t).is_some())
                    .collect(),
            )
        }
        _ => None,
    };

    // One pass over the pending list builds every tape's in-envelope
    // candidate set (a replica appears at most once per tape, so this is
    // exactly the per-tape scan it replaces).
    let mut slots_by_tape: Vec<Vec<SlotIndex>> = vec![Vec::new(); geometry.tapes as usize];
    let mut count_by_tape: Vec<usize> = vec![0; geometry.tapes as usize];
    for r in pending {
        for a in catalog.replicas(r.block) {
            if a.slot.0 < env[a.tape.index()] {
                slots_by_tape[a.tape.index()].push(a.slot);
                count_by_tape[a.tape.index()] += 1;
            }
        }
    }

    let mut best: Option<(f64, u16, TapeId)> = None;
    for tape in geometry.tape_ids() {
        if !view.is_available(tape) {
            continue;
        }
        if let Some(list) = &eligible {
            if !list.contains(&tape) {
                continue;
            }
        }
        let slots = &mut slots_by_tape[tape.index()];
        let request_count = count_by_tape[tape.index()];
        if slots.is_empty() {
            continue;
        }
        slots.sort_unstable();
        slots.dedup();
        let score = match policy {
            EnvelopePolicy::MaxBandwidth => {
                let cost = mount_cost(view, tape)
                    + walk_cost(
                        view.timing,
                        block,
                        start_head(view, tape),
                        slots.iter().copied(),
                    );
                cost.bytes_per_sec(slots.len() as u64 * block.bytes())
            }
            // OldestRequest restricts eligibility and then ranks by
            // request count, like the basic oldest-request policies.
            EnvelopePolicy::MaxRequests | EnvelopePolicy::OldestRequest => request_count as f64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tapesim_layout::{build_placement, BlockId, Catalog, CatalogBuilder, PlacementConfig};
    use tapesim_model::{BlockSize, JukeboxGeometry, PhysicalAddr, SimTime, TimingModel};
    use tapesim_workload::{generate_trace, BlockSampler, RequestId};

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

    // Property suite for the extension cache: the cached driver must be
    // bit-identical to the fresh recomputation, and every cached prefix
    // cost must equal an independent `prefix_cost` — exact equality, no
    // tolerance.

    const TAPES: u16 = 3;
    const SLOTS: u32 = 500;

    /// Builds a random catalog on `TAPES` tapes x `SLOTS` slots (1 MB
    /// blocks), each block with the requested number of copies at random
    /// slots. Returns `None` when the placement stream runs dry.
    #[allow(clippy::cast_possible_truncation)] // at most 8 blocks per generated case
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

    /// The availability filter a major reschedule applies.
    fn available_snapshot(v: &JukeboxView<'_>, requests: &[Request]) -> Vec<Request> {
        requests
            .iter()
            .filter(|r| {
                v.catalog
                    .replicas(r.block)
                    .iter()
                    .any(|a| v.is_available(a.tape))
            })
            .copied()
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn cached_envelope_equals_fresh_recomputation(
            placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 60),
            copies in proptest::collection::vec(1usize..=3, 2..=8),
            mounted in proptest::option::of(0u16..TAPES),
            head in 0u32..SLOTS,
        ) {
            let Some((catalog, ids)) = random_catalog(&placements, &copies) else {
                return Ok(());
            };
            let timing = TimingModel::paper_default();
            let v = view(&catalog, &timing, mounted.map(TapeId), SlotIndex(head));
            let pending = one_request_per_block(&ids);
            let cached = compute_upper_envelope(&v, &pending);
            let fresh = compute_upper_envelope_fresh(&v, &pending);
            prop_assert_eq!(cached, fresh);
        }

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
            let mut cache = ExtensionCache::new(TAPES as usize);
            for t in 0..TAPES {
                let tape = TapeId(t);
                cache.refresh(&v, &pending, &assigned, &env, tape);
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

        /// Membership churn (arrivals, completions/cancels, fault/fail-back
        /// availability flips): the cached driver matches a from-scratch
        /// computation at every step. The only property case with
        /// unavailable tapes and with several requests for one block.
        #[test]
        fn cached_envelope_equals_fresh_across_membership_churn(
            placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 80),
            copies in proptest::collection::vec(1usize..=3, 3..=8),
            mounted in proptest::option::of(0u16..TAPES),
            head in 0u32..SLOTS,
            ops in proptest::collection::vec((0u16..4, 0u32..1000), 1..40),
        ) {
            let Some((catalog, ids)) = random_catalog(&placements, &copies) else {
                return Ok(());
            };
            let timing = TimingModel::paper_default();
            let mounted = mounted.map(TapeId);
            let mut live: Vec<Request> = Vec::new();
            let mut next_id: u64 = 0;
            let mut unavailable: Vec<TapeId> = Vec::new();
            for &(kind, payload) in &ops {
                match kind {
                    // Arrival (twice as likely as the other events).
                    0 | 3 => {
                        live.push(req(next_id, ids[payload as usize % ids.len()].0));
                        next_id += 1;
                    }
                    // Completion or cancellation: one request leaves.
                    1 => {
                        if !live.is_empty() {
                            live.remove(payload as usize % live.len());
                        }
                    }
                    // Fault or fail-back: flip one tape's availability (the
                    // mounted tape stays available, as in the simulator).
                    // The view's contract keeps `unavailable` sorted.
                    2 => {
                        let tape =
                            TapeId(u16::try_from(payload % u32::from(TAPES)).expect("reduced mod TAPES"));
                        if mounted != Some(tape) {
                            match unavailable.binary_search(&tape) {
                                Ok(p) => {
                                    unavailable.remove(p);
                                }
                                Err(p) => unavailable.insert(p, tape),
                            }
                        }
                    }
                    _ => unreachable!(),
                }
                let v = JukeboxView {
                    unavailable: &unavailable,
                    ..view(&catalog, &timing, mounted, SlotIndex(head))
                };
                let snapshot = available_snapshot(&v, &live);
                if snapshot.is_empty() {
                    continue;
                }
                let cached = compute_upper_envelope(&v, &snapshot);
                let fresh = compute_upper_envelope_fresh(&v, &snapshot);
                prop_assert_eq!(cached, fresh);
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
        let pending = one_request_per_block(&[BlockId(0), BlockId(1)]);
        let env = vec![0, 0, 0];
        let mut assigned = vec![None, None];
        let mut cache = ExtensionCache::new(TAPES as usize);
        cache.refresh(&v, &pending, &assigned, &env, TapeId(1));
        assert_eq!(cache.slots(TapeId(1)), &[SlotIndex(50), SlotIndex(70)]);

        assigned[0] = Some(TapeId(0));
        cache.refresh(&v, &pending, &assigned, &env, TapeId(1));
        assert_eq!(
            cache.slots(TapeId(1)),
            &[SlotIndex(50), SlotIndex(70)],
            "without invalidation the cached list is served as-is"
        );

        cache.invalidate(TapeId(1));
        cache.refresh(&v, &pending, &assigned, &env, TapeId(1));
        assert_eq!(cache.slots(TapeId(1)), &[SlotIndex(70)]);
        assert_eq!(cache.prefix_costs(TapeId(1)).len(), 1);
        assert_eq!(
            cache.prefix_costs(TapeId(1))[0],
            cache.switch_charge(TapeId(1)) + prefix_cost(&v, SlotIndex(0), &[SlotIndex(70)])
        );
    }

    /// The deep-backlog regime the property cases (at most 8 blocks and
    /// 40 requests) do not reach: the paper's full-replication layout,
    /// over 512 pending requests with repeats, the head mid-tape on the
    /// mounted tape and one tape held by another drive.
    #[test]
    fn cached_envelope_equals_fresh_on_a_deep_snapshot() {
        let geometry = JukeboxGeometry::PAPER_DEFAULT;
        let block = BlockSize::PAPER_DEFAULT;
        let placed = build_placement(
            geometry,
            block,
            PlacementConfig::paper_full_replication(geometry),
        )
        .unwrap();
        let catalog = &placed.catalog;
        let timing = TimingModel::paper_default();
        let unavailable = [TapeId(7)];
        let v = JukeboxView {
            unavailable: &unavailable,
            ..view(
                catalog,
                &timing,
                Some(TapeId(3)),
                SlotIndex(geometry.slots_per_tape(block) / 2),
            )
        };
        let sampler = BlockSampler::from_catalog(catalog, 40.0);
        let requests: Vec<Request> = generate_trace(&sampler, 640, 11)
            .into_iter()
            .enumerate()
            .map(|(i, b)| req(i as u64, b.0))
            .collect();
        let snapshot = available_snapshot(&v, &requests);
        assert!(
            (512..requests.len()).contains(&snapshot.len()),
            "the unavailable tape must filter some requests and leave at least 512, left {}",
            snapshot.len()
        );
        // Hundreds of requests are left for the extension loop.
        let (_, absorbed) = envelope_after_absorb(&v, &snapshot);
        assert!(absorbed.iter().filter(|a| a.is_none()).count() >= 100);
        assert_eq!(
            compute_upper_envelope(&v, &snapshot),
            compute_upper_envelope_fresh(&v, &snapshot)
        );
    }
}
