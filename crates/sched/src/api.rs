//! The scheduling interface of Section 2.2's service model.
//!
//! A scheduling algorithm is specified by a *major rescheduler* that at
//! tape-switch time chooses a tape and forms a retrieval schedule, and an
//! *incremental scheduler* that handles newly arriving requests — either
//! scheduling them on the fly or deferring them until the next invocation
//! of the major rescheduler.
//!
//! A retrieval schedule (the *service list*) is executed in a single sweep
//! over the tape: a forward phase (forward locates only) followed by a
//! reverse phase (reverse locates only).

use std::collections::VecDeque;

use tapesim_layout::Catalog;
use tapesim_model::{Micros, SimTime, SlotIndex, TapeId, TimingModel};
use tapesim_workload::Request;

/// Fleet-level state visible to the cost model: what this drive's
/// library robot pool is doing and how far away each tape is homed.
///
/// The pre-fleet engine exposed neither quantity, so the legacy value
/// [`FleetView::SINGLE`] (robot free now, no penalties) keeps every cost
/// computed by a single-library/single-robot run bit-identical to the
/// historical arithmetic — both extra terms are exactly zero micros.
#[derive(Clone, Copy)]
pub struct FleetView<'a> {
    /// Earliest instant the robot pool serving this drive's library can
    /// begin another exchange. `SimTime::ZERO` means "free now" and adds
    /// nothing to any cost.
    pub robot_free: SimTime,
    /// Extra mount latency per tape id (pass-through transfer from the
    /// tape's home library to this drive's library). An empty slice means
    /// no tape carries a penalty.
    pub mount_penalty: &'a [Micros],
}

impl FleetView<'static> {
    /// The legacy single-library view: robot free, no penalties.
    pub const SINGLE: FleetView<'static> = FleetView {
        robot_free: SimTime::ZERO,
        mount_penalty: &[],
    };
}

impl FleetView<'_> {
    /// How long a mount starting at `now` would wait for a robot arm.
    #[inline]
    pub fn robot_wait(&self, now: SimTime) -> Micros {
        Micros::from_micros(self.robot_free.as_micros().saturating_sub(now.as_micros()))
    }

    /// Pass-through penalty for mounting `tape` on this drive (zero when
    /// the tape is homed in this drive's library, and always zero for
    /// the legacy view).
    #[inline]
    pub fn penalty(&self, tape: TapeId) -> Micros {
        self.mount_penalty
            .get(tape.index())
            .copied()
            .unwrap_or(Micros::ZERO)
    }
}

/// A read-only snapshot of the jukebox state handed to schedulers.
///
/// In a single-drive jukebox (the paper's configuration) `unavailable` is
/// empty. The multi-drive extension passes the tapes currently mounted in
/// — or being switched into — *other* drives, which the scheduler must
/// not select.
#[derive(Clone, Copy)]
pub struct JukeboxView<'a> {
    /// The block-to-tape mapping.
    pub catalog: &'a Catalog,
    /// The drive + robot timing model (used for bandwidth estimates).
    pub timing: &'a TimingModel,
    /// The currently mounted tape, if any.
    pub mounted: Option<TapeId>,
    /// Current head position on the mounted tape: the slot at which the
    /// next read would start. Meaningful only when `mounted` is `Some`.
    pub head: SlotIndex,
    /// The current simulation time.
    pub now: SimTime,
    /// Tapes held by other drives; schedulers must not select them.
    /// Must be sorted ascending: [`JukeboxView::is_available`] binary
    /// searches it from the scheduler inner loop.
    pub unavailable: &'a [TapeId],
    /// Tapes currently failed (offline) per the fault injector;
    /// schedulers must not select them. Unlike `unavailable`, offline
    /// tapes may come back after repair, and a request whose only copies
    /// are offline should be left pending rather than scheduled. Must be
    /// sorted ascending, like `unavailable`.
    pub offline: &'a [TapeId],
    /// Fleet-level robot/pass-through state. [`FleetView::SINGLE`] for
    /// single-library runs (adds zero to every cost).
    pub fleet: FleetView<'a>,
}

impl JukeboxView<'_> {
    /// Checks (in debug builds) the sorted-slice contract on
    /// `unavailable` and `offline` that the binary searches below rely
    /// on. Engines call this once per view construction.
    #[inline]
    pub fn debug_assert_sorted(&self) {
        debug_assert!(
            // `windows(2)` yields two-element slices.
            self.unavailable.windows(2).all(|w| w[0] < w[1]),
            "JukeboxView::unavailable must be sorted ascending without duplicates"
        );
        debug_assert!(
            // `windows(2)` yields two-element slices.
            self.offline.windows(2).all(|w| w[0] < w[1]),
            "JukeboxView::offline must be sorted ascending without duplicates"
        );
    }

    /// True when `tape` may be selected by this drive's scheduler: it is
    /// neither held by another drive nor offline due to a fault.
    #[inline]
    pub fn is_available(&self, tape: TapeId) -> bool {
        self.unavailable.binary_search(&tape).is_err() && !self.is_offline(tape)
    }

    /// True when `tape` is failed/offline per the fault injector.
    #[inline]
    pub fn is_offline(&self, tape: TapeId) -> bool {
        self.offline.binary_search(&tape).is_ok()
    }
}

/// One stop of a sweep: a slot to read and the requests it satisfies.
///
/// Multiple outstanding requests for the same block are satisfied by a
/// single physical read, so they share one scheduled stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledRead {
    /// The slot to read on the sweep's tape.
    pub slot: SlotIndex,
    /// The requests satisfied by reading this slot (at least one).
    pub requests: Vec<Request>,
}

/// Which phase of the sweep a stop belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPhase {
    /// Ascending slots, forward locates.
    Forward,
    /// Descending slots, reverse locates, executed after the forward phase.
    Reverse,
}

impl SweepPhase {
    /// Stable lower-case name, used by trace serialization and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            SweepPhase::Forward => "forward",
            SweepPhase::Reverse => "reverse",
        }
    }
}

/// The retrieval schedule for one sweep: a forward phase of ascending
/// slots followed by a reverse phase of descending slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceList {
    forward: VecDeque<ScheduledRead>,
    reverse: VecDeque<ScheduledRead>,
}

impl ServiceList {
    /// An empty service list.
    pub fn new() -> Self {
        ServiceList::default()
    }

    /// Builds a service list from explicit forward and reverse phases,
    /// the counterpart of [`ServiceList::forward_stops`] /
    /// [`ServiceList::reverse_stops`]. The sweep grouping in
    /// [`crate::cost`] builds its plans with it. Errors (rather than
    /// panicking) if the phases are not strictly ordered.
    pub fn from_parts(
        forward: Vec<ScheduledRead>,
        reverse: Vec<ScheduledRead>,
    ) -> Result<Self, &'static str> {
        if !forward
            .iter()
            .zip(forward.iter().skip(1))
            .all(|(a, b)| a.slot < b.slot)
        {
            return Err("forward stops must be strictly ascending");
        }
        if !reverse
            .iter()
            .zip(reverse.iter().skip(1))
            .all(|(a, b)| a.slot > b.slot)
        {
            return Err("reverse stops must be strictly descending");
        }
        if forward
            .iter()
            .chain(reverse.iter())
            .any(|s| s.requests.is_empty())
        {
            return Err("every stop must carry at least one request");
        }
        Ok(ServiceList {
            forward: forward.into(),
            reverse: reverse.into(),
        })
    }

    /// Builds a forward-only service list from stops sorted ascending by
    /// slot.
    ///
    /// # Panics
    /// Panics in debug builds if the stops are not strictly ascending.
    pub fn from_forward(stops: Vec<ScheduledRead>) -> Self {
        debug_assert!(
            // `windows(2)` yields two-element slices.
            stops.windows(2).all(|w| w[0].slot < w[1].slot),
            "forward stops must be strictly ascending"
        );
        ServiceList {
            forward: stops.into(),
            reverse: VecDeque::new(),
        }
    }

    /// The next stop to execute and its phase, without removing it.
    pub fn peek(&self) -> Option<(&ScheduledRead, SweepPhase)> {
        if let Some(r) = self.forward.front() {
            Some((r, SweepPhase::Forward))
        } else {
            self.reverse.front().map(|r| (r, SweepPhase::Reverse))
        }
    }

    /// Removes and returns the next stop and its phase.
    pub fn pop(&mut self) -> Option<(ScheduledRead, SweepPhase)> {
        if let Some(r) = self.forward.pop_front() {
            Some((r, SweepPhase::Forward))
        } else {
            self.reverse.pop_front().map(|r| (r, SweepPhase::Reverse))
        }
    }

    /// True when both phases are exhausted.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty() && self.reverse.is_empty()
    }

    /// Number of stops remaining (forward + reverse).
    pub fn stops(&self) -> usize {
        self.forward.len() + self.reverse.len()
    }

    /// Number of requests remaining across all stops.
    pub fn requests(&self) -> usize {
        self.forward
            .iter()
            .chain(self.reverse.iter())
            .map(|r| r.requests.len())
            .sum()
    }

    /// Inserts a request into the forward phase at `slot`, merging with an
    /// existing stop at the same slot, keeping ascending order.
    ///
    /// The caller is responsible for checking that `slot` has not yet been
    /// passed by the head.
    pub fn insert_forward(&mut self, slot: SlotIndex, request: Request) {
        Self::insert_ordered(&mut self.forward, slot, request, /*ascending=*/ true);
    }

    /// Inserts a request into the reverse phase at `slot`, merging with an
    /// existing stop at the same slot, keeping descending order.
    pub fn insert_reverse(&mut self, slot: SlotIndex, request: Request) {
        Self::insert_ordered(&mut self.reverse, slot, request, /*ascending=*/ false);
    }

    fn insert_ordered(
        list: &mut VecDeque<ScheduledRead>,
        slot: SlotIndex,
        request: Request,
        ascending: bool,
    ) {
        let pos = list.partition_point(|r| {
            if ascending {
                r.slot < slot
            } else {
                r.slot > slot
            }
        });
        if let Some(stop) = list.get_mut(pos) {
            if stop.slot == slot {
                stop.requests.push(request);
                return;
            }
        }
        list.insert(
            pos,
            ScheduledRead {
                slot,
                requests: vec![request],
            },
        );
    }

    /// Iterator over forward-phase stops in execution order.
    pub fn forward_stops(&self) -> impl Iterator<Item = &ScheduledRead> {
        self.forward.iter()
    }

    /// Iterator over reverse-phase stops in execution order.
    pub fn reverse_stops(&self) -> impl Iterator<Item = &ScheduledRead> {
        self.reverse.iter()
    }

    /// Slot of the last stop of the forward phase, if any.
    pub fn forward_end(&self) -> Option<SlotIndex> {
        self.forward.back().map(|r| r.slot)
    }
}

/// A chosen tape plus the retrieval schedule for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    /// The tape to service.
    pub tape: TapeId,
    /// The stops to execute.
    pub list: ServiceList,
}

/// The pending list: all requests not yet scheduled for retrieval, in
/// arrival (FIFO) order, with a per-tape index for the tape-selection
/// families.
///
/// Every request takes a sequence number when it arrives: the position of
/// `queue[i]` is sequence number `base + i`. The index maps each tape to
/// the count and the sequence numbers (ascending) of the pending requests
/// with a copy on it, so a family policy reads its counts in O(tapes) and
/// `extract_tape` takes a tape's requests in O(selected × replicas),
/// without walking the list.
///
/// The index contract (DESIGN "Pending-list index contract"):
/// - [`PendingList::push`] stays catalog-free: the index catches up from
///   the catalog the next time a family policy reads it (`by_tape`,
///   `extract_tape`);
/// - a list is indexed against one catalog, the engine's;
/// - `extract_tape` leaves tombstones (`None`) in place; the front is
///   never a tombstone, and tombstones never outnumber live requests;
/// - [`PendingList::extract`] is one in-place pass that keeps the index
///   when it takes nothing. Taking anything renumbers what follows, so it
///   then drops the tombstones too and invalidates the index, which the
///   next family call rebuilds.
#[derive(Debug, Clone, Default)]
pub struct PendingList {
    queue: VecDeque<Option<Request>>,
    /// Sequence number of `queue[0]`.
    base: usize,
    /// Live (non-tombstone) entries of `queue`.
    live: usize,
    index: TapeIndex,
}

/// The per-tape index of a [`PendingList`].
#[derive(Debug, Clone, Default)]
struct TapeIndex {
    /// Entries with a sequence number below `synced` are indexed.
    synced: usize,
    /// Per tape: the live requests with a copy on it.
    counts: Vec<usize>,
    /// Per tape: the sequence numbers, ascending, of the requests counted
    /// in `counts`, plus stale ones of requests taken since. Stale entries
    /// are skipped when read and dropped when a list holds more than
    /// `2 * count + 1`, so the index stays O(live × replicas).
    seqs: Vec<Vec<usize>>,
}

impl TapeIndex {
    /// Forgets everything: the next sync re-indexes the whole list.
    fn invalidate(&mut self) {
        self.synced = 0;
        self.counts.fill(0);
        self.seqs.iter_mut().for_each(Vec::clear);
    }
}

/// True when sequence number `seq` names a live request of `queue`.
fn is_live(queue: &VecDeque<Option<Request>>, base: usize, seq: usize) -> bool {
    seq.checked_sub(base)
        .and_then(|i| queue.get(i))
        .is_some_and(Option::is_some)
}

impl PendingList {
    /// An empty pending list.
    pub fn new() -> Self {
        PendingList::default()
    }

    /// Appends a newly arrived or deferred request.
    pub fn push(&mut self, r: Request) {
        self.queue.push_back(Some(r));
        self.live += 1;
    }

    /// The oldest pending request (the head of the list).
    pub fn oldest(&self) -> Option<&Request> {
        self.queue.front().and_then(Option::as_ref)
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates the pending requests in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.queue.iter().flatten()
    }

    /// Removes and returns all requests for which `pred` is true,
    /// preserving arrival order in both the result and the remainder.
    /// `pred` sees each pending request once, in arrival order.
    pub fn extract<F: FnMut(&Request) -> bool>(&mut self, mut pred: F) -> Vec<Request> {
        let mut taken = Vec::new();
        let mut take = |slot: &Option<Request>| match slot {
            Some(r) if pred(r) => {
                taken.push(*r);
                true
            }
            _ => false,
        };
        // Requests taken at the front are popped rather than shifted over,
        // so taking the oldest (FIFO) moves nothing. The first kept entry
        // steps aside while `retain` judges the rest.
        let mut head = None;
        while let Some(slot) = self.queue.pop_front() {
            if !take(&slot) {
                head = Some(slot);
                break;
            }
        }
        self.queue.retain(|slot| !take(slot));
        if let Some(slot) = head {
            self.queue.push_front(slot);
        }
        if !taken.is_empty() {
            self.live -= taken.len();
            if self.queue.len() > self.live {
                self.queue.retain(Option::is_some);
            }
            self.index.invalidate();
        }
        taken
    }

    /// The per-tape view of the list, brought up to date with `catalog`
    /// first.
    pub(crate) fn by_tape(&mut self, catalog: &Catalog) -> ByTape<'_> {
        self.sync(catalog);
        ByTape { list: self }
    }

    /// Removes and returns every request with a copy on `tape`, in
    /// arrival order: exactly what
    /// `extract(|r| catalog.copy_on_tape(r.block, tape).is_some())`
    /// returns, in O(taken × replicas) rather than a walk of the list.
    pub(crate) fn extract_tape(&mut self, catalog: &Catalog, tape: TapeId) -> Vec<Request> {
        self.sync(catalog);
        let PendingList {
            queue,
            base,
            live,
            index,
        } = self;
        let t = tape.index();
        let mut seqs = std::mem::take(&mut index.seqs[t]);
        let mut taken = Vec::with_capacity(index.counts[t]);
        for &seq in &seqs {
            // Stale entries (taken through another tape) are skipped.
            let Some(r) = seq
                .checked_sub(*base)
                .and_then(|i| queue.get_mut(i))
                .and_then(Option::take)
            else {
                continue;
            };
            taken.push(r);
            for other in catalog.replicas(r.block).iter().filter(|a| a.tape != tape) {
                let u = other.tape.index();
                index.counts[u] -= 1;
                if index.seqs[u].len() > 2 * index.counts[u] + 1 {
                    index.seqs[u].retain(|&s| is_live(queue, *base, s));
                }
            }
        }
        debug_assert_eq!(taken.len(), index.counts[t], "index count of {tape:?}");
        index.counts[t] = 0;
        seqs.clear();
        index.seqs[t] = seqs;
        *live -= taken.len();
        while matches!(queue.front(), Some(None)) {
            queue.pop_front();
            *base += 1;
        }
        if queue.len() - *live > *live {
            // Compacting renumbers the requests: rebuild the index later.
            queue.retain(Option::is_some);
            index.invalidate();
        }
        taken
    }

    /// Indexes the requests pushed since the last sync (all of them after
    /// an invalidation).
    fn sync(&mut self, catalog: &Catalog) {
        let tapes = usize::from(catalog.geometry().tapes);
        if self.index.counts.len() != tapes {
            self.index = TapeIndex {
                synced: 0,
                counts: vec![0; tapes],
                seqs: vec![Vec::new(); tapes],
            };
        }
        let from = self.index.synced.max(self.base);
        let next = self.base + self.queue.len();
        for (seq, r) in (from..next).zip(self.queue.range(from - self.base..)) {
            let Some(r) = r else { continue };
            for a in catalog.replicas(r.block) {
                self.index.counts[a.tape.index()] += 1;
                self.index.seqs[a.tape.index()].push(seq);
            }
        }
        self.index.synced = next;
    }
}

/// The per-tape view of a [`PendingList`], from [`PendingList::by_tape`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ByTape<'a> {
    list: &'a PendingList,
}

impl<'a> ByTape<'a> {
    /// Number of pending requests with a copy on `tape`.
    pub(crate) fn count(&self, tape: TapeId) -> usize {
        self.list.index.counts[tape.index()]
    }

    /// The pending requests with a copy on `tape`, in arrival order.
    pub(crate) fn requests(&self, tape: TapeId) -> impl Iterator<Item = &'a Request> + 'a {
        let PendingList { queue, base, .. } = self.list;
        self.list.index.seqs[tape.index()]
            .iter()
            .filter_map(move |&seq| seq.checked_sub(*base).and_then(|i| queue.get(i))?.as_ref())
    }
}

impl FromIterator<Request> for PendingList {
    fn from_iter<T: IntoIterator<Item = Request>>(iter: T) -> Self {
        let queue: VecDeque<Option<Request>> = iter.into_iter().map(Some).collect();
        PendingList {
            live: queue.len(),
            queue,
            ..PendingList::default()
        }
    }
}

/// Outcome of the incremental scheduler for a new arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// The request was inserted into the running sweep.
    Inserted,
    /// The request was deferred to the pending list.
    Deferred,
}

/// A scheduling algorithm: a major rescheduler plus an incremental
/// scheduler (Section 2.2).
pub trait Scheduler {
    /// A short, stable name for reports ("dynamic max-bandwidth", ...).
    fn name(&self) -> &str;

    /// Invoked at tape-switch time with the pending list. Selects the tape
    /// to service next, extracts the requests it will serve from
    /// `pending`, and returns the sweep plan. Returns `None` when nothing
    /// can be scheduled (empty pending list).
    fn major_reschedule(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &mut PendingList,
    ) -> Option<SweepPlan>;

    /// Invoked when a request arrives during the execution of a sweep.
    /// Either inserts the request into `sweep` (the in-progress service
    /// list on `sweep_tape`) or defers it by appending to `pending`.
    ///
    /// The default implementation defers (the behaviour of all *static*
    /// algorithms).
    fn on_arrival(
        &mut self,
        _view: &JukeboxView<'_>,
        _sweep_tape: TapeId,
        _sweep: &mut ServiceList,
        request: Request,
        pending: &mut PendingList,
    ) -> ArrivalOutcome {
        pending.push(request);
        ArrivalOutcome::Deferred
    }

    /// Inert: the simulator has no engine checkpoint, so nothing calls
    /// this. It stays only because the out-of-workspace `tapebench`
    /// package forwards it; the next benchmark change deletes both.
    fn checkpoint_state(&self) -> Option<String> {
        None
    }

    /// Inert, like [`Scheduler::checkpoint_state`]: nothing calls it, and
    /// it stays only for `tapebench`'s forwarding impl.
    fn restore_state(&mut self, _state: &str) -> Result<(), &'static str> {
        Err("this scheduler carries no checkpointable state")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use tapesim_layout::BlockId;
    use tapesim_model::{BlockSize, JukeboxGeometry, PhysicalAddr};
    use tapesim_workload::RequestId;

    #[expect(
        clippy::cast_possible_truncation,
        reason = "test request ids stay far below 2^32"
    )]
    fn req(id: u64) -> Request {
        Request {
            id: RequestId(id),
            block: BlockId(id as u32),
            arrival: SimTime::ZERO,
        }
    }

    fn stop(slot: u32, ids: &[u64]) -> ScheduledRead {
        ScheduledRead {
            slot: SlotIndex(slot),
            requests: ids.iter().map(|&i| req(i)).collect(),
        }
    }

    #[test]
    fn service_list_pops_forward_then_reverse() {
        let mut l = ServiceList::from_forward(vec![stop(1, &[0]), stop(5, &[1])]);
        l.insert_reverse(SlotIndex(3), req(2));
        l.insert_reverse(SlotIndex(2), req(3));
        let order: Vec<(u32, SweepPhase)> = std::iter::from_fn(|| l.pop())
            .map(|(s, p)| (s.slot.0, p))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, SweepPhase::Forward),
                (5, SweepPhase::Forward),
                (3, SweepPhase::Reverse),
                (2, SweepPhase::Reverse),
            ]
        );
    }

    #[test]
    fn insert_forward_keeps_ascending_order_and_merges() {
        let mut l = ServiceList::from_forward(vec![stop(2, &[0]), stop(8, &[1])]);
        l.insert_forward(SlotIndex(5), req(2));
        l.insert_forward(SlotIndex(8), req(3)); // merge with existing stop
        let slots: Vec<u32> = l.forward_stops().map(|r| r.slot.0).collect();
        assert_eq!(slots, vec![2, 5, 8]);
        assert_eq!(l.stops(), 3);
        assert_eq!(l.requests(), 4);
        let last = l.forward_stops().last().unwrap();
        assert_eq!(last.requests.len(), 2);
    }

    #[test]
    fn insert_reverse_keeps_descending_order() {
        let mut l = ServiceList::new();
        l.insert_reverse(SlotIndex(3), req(0));
        l.insert_reverse(SlotIndex(9), req(1));
        l.insert_reverse(SlotIndex(6), req(2));
        let slots: Vec<u32> = l.reverse_stops().map(|r| r.slot.0).collect();
        assert_eq!(slots, vec![9, 6, 3]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut l = ServiceList::from_forward(vec![stop(1, &[0])]);
        assert_eq!(l.peek().unwrap().0.slot, SlotIndex(1));
        assert_eq!(l.stops(), 1);
        l.pop();
        assert!(l.is_empty());
        assert!(l.peek().is_none());
    }

    #[test]
    fn forward_end_reports_last_forward_slot() {
        let l = ServiceList::from_forward(vec![stop(1, &[0]), stop(7, &[1])]);
        assert_eq!(l.forward_end(), Some(SlotIndex(7)));
        assert_eq!(ServiceList::new().forward_end(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn from_forward_rejects_unsorted() {
        let _ = ServiceList::from_forward(vec![stop(5, &[0]), stop(2, &[1])]);
    }

    #[test]
    fn pending_list_preserves_fifo_order() {
        let mut p = PendingList::new();
        for i in 0..5 {
            p.push(req(i));
        }
        assert_eq!(p.oldest().unwrap().id, RequestId(0));
        assert_eq!(p.len(), 5);
        let ids: Vec<u64> = p.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn extract_partitions_preserving_order() {
        let mut p: PendingList = (0..6).map(req).collect();
        let even = p.extract(|r| r.id.0 % 2 == 0);
        assert_eq!(even.iter().map(|r| r.id.0).collect::<Vec<_>>(), [0, 2, 4]);
        assert_eq!(p.iter().map(|r| r.id.0).collect::<Vec<_>>(), [1, 3, 5]);
    }

    /// Blocks 0..4 with copies on `tapes[b]` (slot = block number).
    fn catalog(tapes: &[&[u16]]) -> Catalog {
        let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
        let blocks = u32::try_from(tapes.len()).unwrap();
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), blocks, 0);
        for (block, copies) in (0..blocks).zip(tapes) {
            for &t in *copies {
                let addr = PhysicalAddr {
                    tape: TapeId(t),
                    slot: SlotIndex(block),
                };
                b.place(BlockId(block), addr).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn on(id: u64, block: u32) -> Request {
        Request {
            id: RequestId(id),
            block: BlockId(block),
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn extract_tape_takes_in_arrival_order_and_updates_replica_counts() {
        // Block 0 on tapes 0 and 1, block 1 on tape 1, block 2 on tape 2.
        let c = catalog(&[&[0, 1], &[1], &[2]]);
        let mut p: PendingList = [on(0, 1), on(1, 0), on(2, 2), on(3, 0)]
            .into_iter()
            .collect();
        let counts = |p: &mut PendingList| -> Vec<usize> {
            let by_tape = p.by_tape(&c);
            (0..3).map(|t| by_tape.count(TapeId(t))).collect()
        };
        assert_eq!(counts(&mut p), [2, 3, 1]);
        let taken = p.extract_tape(&c, TapeId(0));
        assert_eq!(taken.iter().map(|r| r.id.0).collect::<Vec<_>>(), [1, 3]);
        // Tape 1 lost the two requests it shared with tape 0.
        assert_eq!(counts(&mut p), [0, 1, 1]);
        assert_eq!(p.iter().map(|r| r.id.0).collect::<Vec<_>>(), [0, 2]);
        // A push after the sync is indexed at the next read.
        p.push(on(4, 0));
        assert_eq!(counts(&mut p), [1, 2, 1]);
        assert_eq!(p.oldest().map(|r| r.id.0), Some(0));
        // A generic extract that takes nothing keeps the index and the
        // tombstone; one that takes something drops both.
        assert!(p.extract(|r| r.id.0 == 9).is_empty());
        assert_eq!((p.index.synced, p.queue.len()), (5, 5));
        assert_eq!(p.extract(|r| r.id.0 == 0), [on(0, 1)]);
        assert_eq!((p.index.synced, p.queue.len()), (0, 2));
        assert_eq!(counts(&mut p), [1, 1, 1]);
    }

    const TAPES: u16 = 5;
    const SLOTS: u32 = 12;

    /// A random catalog on `TAPES` tapes × `SLOTS` slots: block `b` gets
    /// `copies[b]` copies (1–4, so NR 0–3) on distinct tapes, at slots
    /// drawn from `placements`. `None` when the draws run dry.
    fn random_catalog(placements: &[(u16, u32)], copies: &[usize]) -> Option<Catalog> {
        let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
        let blocks = u32::try_from(copies.len()).unwrap();
        let mut builder = Catalog::builder(g, BlockSize::from_mb(1), blocks, 0);
        let mut draws = placements.iter();
        for (b, &n) in (0..blocks).zip(copies) {
            let mut tapes: Vec<TapeId> = Vec::new();
            while tapes.len() < n {
                let &(t, s) = draws.next()?;
                let addr = PhysicalAddr {
                    tape: TapeId(t),
                    slot: SlotIndex(s),
                };
                if !tapes.contains(&addr.tape) && builder.place(BlockId(b), addr).is_ok() {
                    tapes.push(addr.tape);
                }
            }
        }
        builder.build().ok()
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push a request for block `b % blocks`.
        Push(u32),
        /// `extract_tape` of one tape.
        ExtractTape(u16),
        /// Generic `extract` of the requests whose id is `k` modulo `m`.
        ExtractMod(u64, u64),
        /// Generic `extract` of one id, as `cancel` and FIFO do.
        Remove(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..64).prop_map(Op::Push),
            (0u32..64).prop_map(Op::Push),
            (0u32..64).prop_map(Op::Push),
            (0u16..TAPES).prop_map(Op::ExtractTape),
            (0u16..TAPES).prop_map(Op::ExtractTape),
            (2u64..5, 0u64..5).prop_map(|(m, k)| Op::ExtractMod(m, k % m)),
            (0u64..64).prop_map(Op::Remove),
        ]
    }

    /// Checks `p` against the plain model after an op.
    fn check(p: &PendingList, model: &VecDeque<Request>, c: &Catalog) -> Result<(), TestCaseError> {
        prop_assert!(p.iter().eq(model.iter()), "iter() differs from the model");
        prop_assert_eq!(p.oldest(), model.front());
        prop_assert_eq!(p.len(), model.len());
        prop_assert_eq!(p.is_empty(), model.is_empty());
        // Tombstones: never at the front, never more than live requests.
        prop_assert!(!matches!(p.queue.front(), Some(None)));
        prop_assert!(p.queue.len() - p.live <= p.live);
        // Stored index entries stay within twice the (request, copy) pairs
        // plus one per tape.
        let pairs: usize = model.iter().map(|r| c.replicas(r.block).len()).sum();
        let entries: usize = p.index.seqs.iter().map(Vec::len).sum();
        prop_assert!(
            entries <= 2 * pairs + usize::from(TAPES),
            "{entries} index entries for {pairs} pairs"
        );
        // Counts and per-tape requests equal a recount, read from a clone
        // so that `p` itself syncs only when the ops make it.
        let mut synced = p.clone();
        let by_tape = synced.by_tape(c);
        for tape in (0..TAPES).map(TapeId) {
            let on_tape: Vec<&Request> = model
                .iter()
                .filter(|r| c.copy_on_tape(r.block, tape).is_some())
                .collect();
            prop_assert_eq!(by_tape.count(tape), on_tape.len(), "count of {:?}", tape);
            prop_assert!(by_tape.requests(tape).eq(on_tape), "requests of {:?}", tape);
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn tape_index_matches_a_recount_and_a_plain_queue(
            placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 40),
            copies in proptest::collection::vec(1usize..=4, 1..=8),
            ops in proptest::collection::vec(op(), 1..=120),
        ) {
            let Some(c) = random_catalog(&placements, &copies) else {
                return Ok(());
            };
            let blocks = u32::try_from(copies.len()).unwrap();
            let mut p = PendingList::new();
            let mut model: VecDeque<Request> = VecDeque::new();
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    Op::Push(b) => {
                        let r = on(next_id, b % blocks);
                        next_id += 1;
                        p.push(r);
                        model.push_back(r);
                    }
                    Op::ExtractTape(t) => {
                        let tape = TapeId(t);
                        let on_tape = |r: &Request| c.copy_on_tape(r.block, tape).is_some();
                        let mut reference = p.clone();
                        let expected = reference.extract(on_tape);
                        let taken = p.extract_tape(&c, tape);
                        prop_assert_eq!(&taken, &expected);
                        prop_assert!(p.iter().eq(reference.iter()));
                        model.retain(|r| !on_tape(r));
                    }
                    Op::ExtractMod(m, k) => {
                        let pick = |r: &Request| r.id.0 % m == k;
                        let synced = p.index.synced;
                        let mut seen = Vec::new();
                        let taken = p.extract(|r| {
                            seen.push(r.id);
                            pick(r)
                        });
                        // `pred` sees each pending request once, in order.
                        prop_assert!(seen.iter().eq(model.iter().map(|r| &r.id)));
                        let expected: Vec<Request> =
                            model.iter().copied().filter(pick).collect();
                        prop_assert_eq!(&taken, &expected);
                        // Taking nothing keeps the index.
                        if taken.is_empty() {
                            prop_assert_eq!(p.index.synced, synced);
                        }
                        model.retain(|r| !pick(r));
                    }
                    Op::Remove(i) => {
                        let id = RequestId(i % next_id.max(1));
                        let synced = p.index.synced;
                        let taken = p.extract(|r| r.id == id);
                        let expected: Vec<Request> =
                            model.iter().copied().filter(|r| r.id == id).collect();
                        prop_assert_eq!(&taken, &expected);
                        if taken.is_empty() {
                            prop_assert_eq!(p.index.synced, synced);
                        }
                        model.retain(|r| r.id != id);
                    }
                }
                check(&p, &model, &c)?;
            }
        }
    }
}
