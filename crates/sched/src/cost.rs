//! Schedule cost evaluation and effective bandwidth (Section 3.1).
//!
//! The *effective bandwidth* of a schedule is the total number of bytes
//! retrieved divided by the seconds needed to perform the retrieval. The
//! time includes tape-switch overhead (rewind, eject, robotic tape motion,
//! and load) and schedule execution time (locating and reading through the
//! blocks in the service list), computed with the Section 2.1 timing
//! model.

use tapesim_layout::Catalog;
use tapesim_model::{BlockSize, Micros, ReadContext, SlotIndex, TapeId, TimingModel};
use tapesim_workload::Request;

use crate::api::{JukeboxView, PendingList, ScheduledRead, ServiceList};

/// Time to execute a sequence of stops in the given order starting with
/// the head at `head`. Each stop is one locate (in whichever direction the
/// target lies) followed by one block read; after a read the head rests at
/// the following slot.
pub fn walk_cost(
    timing: &TimingModel,
    block: BlockSize,
    head: SlotIndex,
    stops: impl IntoIterator<Item = SlotIndex>,
) -> Micros {
    let mut pos = head;
    let mut total = Micros::ZERO;
    for s in stops {
        let (locate, dir) = timing.drive.locate(pos, s, block);
        let ctx = match dir {
            None => ReadContext::Streaming,
            Some(tapesim_model::LocateDirection::Forward) => ReadContext::AfterForwardLocate,
            Some(tapesim_model::LocateDirection::Reverse) => ReadContext::AfterReverseLocate,
        };
        total += locate + timing.drive.read_block(block, ctx);
        pos = s.next();
    }
    total
}

/// Time to execute a full service list (forward then reverse phase) from
/// `head`.
pub fn execution_cost(
    timing: &TimingModel,
    block: BlockSize,
    head: SlotIndex,
    list: &ServiceList,
) -> Micros {
    let stops = list
        .forward_stops()
        .map(|r| r.slot)
        .chain(list.reverse_stops().map(|r| r.slot));
    walk_cost(timing, block, head, stops)
}

/// The pending work a single tape could serve: the distinct slots to read
/// and the number of requests they satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeCandidate {
    /// The candidate tape.
    pub tape: TapeId,
    /// Distinct slots holding requested blocks, sorted ascending.
    pub slots: Vec<SlotIndex>,
    /// Number of pending requests a sweep over `slots` would satisfy.
    pub request_count: usize,
}

/// Collects the candidate work for `tape`: every pending request with a
/// copy on that tape. Returns `None` when the tape can satisfy nothing.
pub fn candidate_for_tape(
    catalog: &Catalog,
    pending: &PendingList,
    tape: TapeId,
) -> Option<TapeCandidate> {
    let mut slots: Vec<SlotIndex> = Vec::new();
    let mut request_count = 0usize;
    for r in pending.iter() {
        if let Some(addr) = catalog.copy_on_tape(r.block, tape) {
            slots.push(addr.slot);
            request_count += 1;
        }
    }
    if slots.is_empty() {
        return None;
    }
    slots.sort_unstable();
    slots.dedup();
    Some(TapeCandidate {
        tape,
        slots,
        request_count,
    })
}

/// Collects the candidate work for every tape in a single pass over the
/// pending list. Entry `t` is what [`candidate_for_tape`] would return
/// for tape `t` — a block has at most one copy per tape, so walking each
/// request's replica list visits exactly the `(request, tape)` pairs the
/// per-tape scans would, without rescanning the pending list per tape.
pub fn candidates_for_all_tapes(
    catalog: &Catalog,
    pending: &PendingList,
) -> Vec<Option<TapeCandidate>> {
    let tapes = catalog.geometry().tapes as usize;
    let mut slots: Vec<Vec<SlotIndex>> = vec![Vec::new(); tapes];
    let mut counts: Vec<usize> = vec![0; tapes];
    for r in pending.iter() {
        for a in catalog.replicas(r.block) {
            slots[a.tape.index()].push(a.slot);
            counts[a.tape.index()] += 1;
        }
    }
    catalog
        .geometry()
        .tape_ids()
        .zip(slots)
        .zip(counts)
        .map(|((tape, mut slots), request_count)| {
            if slots.is_empty() {
                return None;
            }
            slots.sort_unstable();
            slots.dedup();
            Some(TapeCandidate {
                tape,
                slots,
                request_count,
            })
        })
        .collect()
}

/// Per-tape pending-request counts in a single pass — entry `t` equals
/// the `request_count` of [`candidates_for_all_tapes`]'s entry `t` (0
/// where that entry is `None`). The count-scored selection policies and
/// availability probes need only this, not the sorted slot lists.
pub fn counts_for_all_tapes(catalog: &Catalog, pending: &PendingList) -> Vec<usize> {
    let mut counts: Vec<usize> = vec![0; catalog.geometry().tapes as usize];
    for r in pending.iter() {
        for a in catalog.replicas(r.block) {
            counts[a.tape.index()] += 1;
        }
    }
    counts
}

/// Cost to prepare `tape` for service: zero when it is already mounted,
/// otherwise rewind (if a tape is mounted) + eject + exchange + load,
/// plus the fleet terms — the wait for this library's robot pool and the
/// pass-through transfer if `tape` is homed in another library. Both
/// fleet terms are exactly zero under [`crate::FleetView::SINGLE`], so
/// single-library costs are unchanged from the pre-fleet model.
pub fn mount_cost(view: &JukeboxView<'_>, tape: TapeId) -> Micros {
    let fleet = view.fleet.robot_wait(view.now) + view.fleet.penalty(tape);
    match view.mounted {
        Some(m) if m == tape => Micros::ZERO,
        Some(_) => {
            view.timing
                .full_switch_from(view.head, view.catalog.block_size())
                + fleet
        }
        // Empty drive: the robot fetches the tape and the drive loads it.
        None => view.timing.robot.exchange() + view.timing.drive.load() + fleet,
    }
}

/// Head position a sweep over `tape` would start from.
pub fn start_head(view: &JukeboxView<'_>, tape: TapeId) -> SlotIndex {
    match view.mounted {
        Some(m) if m == tape => view.head,
        _ => SlotIndex::BOT,
    }
}

/// Effective bandwidth (bytes per second) of sweeping a candidate tape:
/// bytes of the distinct blocks read, divided by mount cost plus sweep
/// execution time.
pub fn effective_bandwidth(view: &JukeboxView<'_>, candidate: &TapeCandidate) -> f64 {
    let block = view.catalog.block_size();
    let cost = mount_cost(view, candidate.tape)
        + walk_cost(
            view.timing,
            block,
            start_head(view, candidate.tape),
            candidate.slots.iter().copied(),
        );
    let bytes = candidate.slots.len() as u64 * block.bytes();
    cost.bytes_per_sec(bytes)
}

/// Maps a set of requests (all with a copy on `tape`) to a forward-only
/// service list sorted by slot, merging requests that share a block.
pub fn forward_list_for(catalog: &Catalog, tape: TapeId, requests: Vec<Request>) -> ServiceList {
    let mut list = ServiceList::new();
    for r in requests {
        #[expect(
            clippy::expect_used,
            reason = "scheduler contract: the caller routed this request to a tape holding a copy"
        )]
        let addr = catalog
            .copy_on_tape(r.block, tape)
            .expect("request scheduled on a tape without a copy");
        list.insert_forward(addr.slot, r);
    }
    list
}

/// Builds the service list for one sweep over `tape` starting with the
/// head at `head`: blocks at or ahead of the head form the forward phase
/// (ascending), blocks behind the head form the reverse phase (descending,
/// read on the way back). On a freshly mounted tape (`head` = 0) the sweep
/// is purely forward.
#[expect(
    clippy::expect_used,
    reason = "the grouped phases are strictly ordered by construction"
)]
pub fn split_sweep(
    catalog: &Catalog,
    tape: TapeId,
    head: SlotIndex,
    requests: Vec<Request>,
) -> ServiceList {
    // Resolve each slot once, split around the head, then build each
    // phase by a stable sort and a linear group-by-slot: repeated
    // ordered inserts into a `VecDeque` are quadratic in sweep length.
    // The stable sort keeps requests at the same slot in input order,
    // exactly like appending to an existing stop did.
    let mut forward: Vec<(SlotIndex, Request)> = Vec::new();
    let mut reverse: Vec<(SlotIndex, Request)> = Vec::new();
    for r in requests {
        #[expect(
            clippy::expect_used,
            reason = "scheduler contract: the caller routed this request to a tape holding a copy"
        )]
        let addr = catalog
            .copy_on_tape(r.block, tape)
            .expect("request scheduled on a tape without a copy");
        if addr.slot >= head {
            forward.push((addr.slot, r));
        } else {
            reverse.push((addr.slot, r));
        }
    }
    forward.sort_by_key(|&(slot, _)| slot);
    reverse.sort_by_key(|&(slot, _)| core::cmp::Reverse(slot));
    let group = |items: Vec<(SlotIndex, Request)>| -> Vec<ScheduledRead> {
        let mut out: Vec<ScheduledRead> = Vec::new();
        for (slot, r) in items {
            match out.last_mut() {
                Some(stop) if stop.slot == slot => stop.requests.push(r),
                _ => out.push(ScheduledRead {
                    slot,
                    requests: vec![r],
                }),
            }
        }
        out
    };
    ServiceList::from_parts(group(forward), group(reverse))
        .expect("grouped sweep phases are strictly ordered")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::{BlockId, Catalog};
    use tapesim_model::{JukeboxGeometry, PhysicalAddr, SimTime};
    use tapesim_workload::RequestId;

    fn block1() -> BlockSize {
        BlockSize::from_mb(1)
    }

    fn timing() -> TimingModel {
        TimingModel::paper_default()
    }

    /// 2 tapes x 100 slots of 1 MB; blocks 0..5 on tape 0 at slots
    /// 10,20,30,40,50; blocks 5..10 on tape 1 at slots 5,15,25,35,45.
    fn catalog() -> Catalog {
        let g = JukeboxGeometry::new(2, 100);
        let mut b = Catalog::builder(g, block1(), 10, 0);
        for i in 0..5u32 {
            b.place(
                BlockId(i),
                PhysicalAddr {
                    tape: TapeId(0),
                    slot: SlotIndex(10 + 10 * i),
                },
            )
            .unwrap();
        }
        for i in 0..5u32 {
            b.place(
                BlockId(5 + i),
                PhysicalAddr {
                    tape: TapeId(1),
                    slot: SlotIndex(5 + 10 * i),
                },
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    fn req(id: u64, blockid: u32) -> Request {
        Request {
            id: RequestId(id),
            block: BlockId(blockid),
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn walk_cost_single_forward_stop() {
        let t = timing();
        let b = block1();
        // Locate 0 -> 10 (10 MB, short fwd) + read after forward locate.
        let cost = walk_cost(&t, b, SlotIndex(0), [SlotIndex(10)]);
        let expect =
            Micros::from_secs_f64(4.834 + 0.378 * 10.0) + Micros::from_secs_f64(0.38 + 1.77);
        assert_eq!(cost, expect);
    }

    #[test]
    fn walk_cost_contiguous_blocks_stream() {
        let t = timing();
        let b = block1();
        // Reading slots 10 and 11: second read needs no locate.
        let cost = walk_cost(&t, b, SlotIndex(10), [SlotIndex(10), SlotIndex(11)]);
        let expect = Micros::from_secs_f64(1.77) + Micros::from_secs_f64(1.77);
        assert_eq!(cost, expect);
    }

    #[test]
    fn walk_cost_reverse_stop() {
        let t = timing();
        let b = block1();
        let cost = walk_cost(&t, b, SlotIndex(30), [SlotIndex(10)]);
        // 20 MB reverse (short) + read after reverse locate.
        let expect = Micros::from_secs_f64(4.99 + 0.328 * 20.0) + Micros::from_secs_f64(1.77);
        assert_eq!(cost, expect);
    }

    #[test]
    fn execution_cost_covers_both_phases() {
        let t = timing();
        let b = block1();
        let mut list = ServiceList::new();
        list.insert_forward(SlotIndex(10), req(0, 0));
        list.insert_forward(SlotIndex(20), req(1, 1));
        list.insert_reverse(SlotIndex(5), req(2, 2));
        let by_walk = walk_cost(
            &t,
            b,
            SlotIndex(0),
            [SlotIndex(10), SlotIndex(20), SlotIndex(5)],
        );
        assert_eq!(execution_cost(&t, b, SlotIndex(0), &list), by_walk);
    }

    #[test]
    fn candidate_collects_and_dedups() {
        let c = catalog();
        let mut p = PendingList::new();
        p.push(req(0, 0)); // tape 0 slot 10
        p.push(req(1, 6)); // tape 1 slot 15
        p.push(req(2, 0)); // duplicate block
        p.push(req(3, 3)); // tape 0 slot 40
        let cand = candidate_for_tape(&c, &p, TapeId(0)).unwrap();
        assert_eq!(cand.slots, vec![SlotIndex(10), SlotIndex(40)]);
        assert_eq!(cand.request_count, 3);
        let cand1 = candidate_for_tape(&c, &p, TapeId(1)).unwrap();
        assert_eq!(cand1.slots, vec![SlotIndex(15)]);
        assert_eq!(cand1.request_count, 1);
    }

    #[test]
    fn candidate_none_when_tape_has_nothing() {
        let c = catalog();
        let mut p = PendingList::new();
        p.push(req(0, 0));
        assert!(candidate_for_tape(&c, &p, TapeId(1)).is_none());
    }

    #[test]
    fn mount_cost_depends_on_state() {
        let c = catalog();
        let t = timing();
        let view = |mounted, head| JukeboxView {
            catalog: &c,
            timing: &t,
            mounted,
            head,
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: crate::api::FleetView::SINGLE,
        };
        // Already mounted: free.
        assert_eq!(
            mount_cost(&view(Some(TapeId(0)), SlotIndex(7)), TapeId(0)),
            Micros::ZERO
        );
        // Other tape mounted at slot 7: rewind + 81 s.
        let v = view(Some(TapeId(1)), SlotIndex(7));
        let expect = t.full_switch_from(SlotIndex(7), c.block_size());
        assert_eq!(mount_cost(&v, TapeId(0)), expect);
        // Empty drive: exchange + load only.
        assert_eq!(
            mount_cost(&view(None, SlotIndex(0)), TapeId(0)),
            Micros::from_secs(62)
        );
    }

    #[test]
    fn effective_bandwidth_prefers_mounted_tape() {
        let c = catalog();
        let t = timing();
        let p: PendingList = vec![req(0, 0), req(1, 5)].into_iter().collect();
        let view = JukeboxView {
            catalog: &c,
            timing: &t,
            mounted: Some(TapeId(0)),
            head: SlotIndex(0),
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: crate::api::FleetView::SINGLE,
        };
        let c0 = candidate_for_tape(&c, &p, TapeId(0)).unwrap();
        let c1 = candidate_for_tape(&c, &p, TapeId(1)).unwrap();
        // Same single-block work, but tape 1 needs a switch.
        assert!(effective_bandwidth(&view, &c0) > effective_bandwidth(&view, &c1));
    }

    #[test]
    fn forward_list_groups_same_block() {
        let c = catalog();
        let list = forward_list_for(&c, TapeId(0), vec![req(0, 3), req(1, 0), req(2, 3)]);
        let slots: Vec<u32> = list.forward_stops().map(|r| r.slot.0).collect();
        assert_eq!(slots, vec![10, 40]);
        assert_eq!(list.requests(), 3);
    }

    #[test]
    #[should_panic(expected = "without a copy")]
    fn forward_list_rejects_foreign_request() {
        let c = catalog();
        let _ = forward_list_for(&c, TapeId(0), vec![req(0, 7)]);
    }
}
