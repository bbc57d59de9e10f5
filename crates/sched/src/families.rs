//! The static and dynamic algorithm families (Section 3.1).
//!
//! A *static* algorithm chooses a tape via its [`TapeSelectPolicy`] and
//! forms the service list by sorting all pending requests for that tape.
//! Newly arriving requests are always deferred to the pending list.
//!
//! The corresponding *dynamic* algorithm uses the same major rescheduler
//! but inserts arrivals for the current tape into the running sweep on the
//! fly, provided the requested block is ahead of the current position of
//! the tape head.

use tapesim_model::TapeId;
use tapesim_workload::Request;

use crate::api::{ArrivalOutcome, JukeboxView, PendingList, Scheduler, ServiceList, SweepPlan};
use crate::cost::{split_sweep, start_head};
use crate::select::TapeSelectPolicy;

/// Shared major rescheduler of the static/dynamic families: select a tape
/// by `policy`, extract every pending request with a copy on it, and sort
/// them by position into a sweep (a forward phase; when the selected tape
/// is already mounted mid-tape, requests behind the head are read in the
/// reverse phase on the way back).
fn family_major_reschedule(
    policy: TapeSelectPolicy,
    view: &JukeboxView<'_>,
    pending: &mut PendingList,
) -> Option<SweepPlan> {
    let tape = policy.select(view, pending)?;
    let requests = pending.extract_tape(view.catalog, tape);
    debug_assert!(!requests.is_empty(), "selected tape must have requests");
    Some(SweepPlan {
        tape,
        list: split_sweep(view.catalog, tape, start_head(view, tape), requests),
    })
}

/// A static scheduler: tape selection by policy, arrivals always deferred.
#[derive(Debug, Clone)]
pub struct StaticScheduler {
    policy: TapeSelectPolicy,
    name: String,
}

impl StaticScheduler {
    /// Creates a static scheduler with the given tape-selection policy.
    pub fn new(policy: TapeSelectPolicy) -> Self {
        StaticScheduler {
            policy,
            name: format!("static {}", policy.name()),
        }
    }

    /// The tape-selection policy.
    pub fn policy(&self) -> TapeSelectPolicy {
        self.policy
    }
}

impl Scheduler for StaticScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn major_reschedule(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &mut PendingList,
    ) -> Option<SweepPlan> {
        family_major_reschedule(self.policy, view, pending)
    }
    // on_arrival: default (defer), which is what makes it static.
}

/// A dynamic scheduler: same tape selection, but arrivals for the current
/// tape are inserted into the sweep when their block is still ahead of the
/// head.
#[derive(Debug, Clone)]
pub struct DynamicScheduler {
    policy: TapeSelectPolicy,
    name: String,
}

impl DynamicScheduler {
    /// Creates a dynamic scheduler with the given tape-selection policy.
    pub fn new(policy: TapeSelectPolicy) -> Self {
        DynamicScheduler {
            policy,
            name: format!("dynamic {}", policy.name()),
        }
    }

    /// The tape-selection policy.
    pub fn policy(&self) -> TapeSelectPolicy {
        self.policy
    }
}

impl Scheduler for DynamicScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn major_reschedule(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &mut PendingList,
    ) -> Option<SweepPlan> {
        family_major_reschedule(self.policy, view, pending)
    }

    fn on_arrival(
        &mut self,
        view: &JukeboxView<'_>,
        sweep_tape: TapeId,
        sweep: &mut ServiceList,
        request: Request,
        pending: &mut PendingList,
    ) -> ArrivalOutcome {
        if let Some(addr) = view.catalog.copy_on_tape(request.block, sweep_tape) {
            // Insert only if the block is ahead of the head in the sweep.
            if addr.slot >= view.head {
                sweep.insert_forward(addr.slot, request);
                return ArrivalOutcome::Inserted;
            }
        }
        pending.push(request);
        ArrivalOutcome::Deferred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::{BlockId, Catalog};
    use tapesim_model::{
        BlockSize, JukeboxGeometry, PhysicalAddr, SimTime, SlotIndex, TimingModel,
    };
    use tapesim_workload::RequestId;

    /// 3 tapes x 100 slots; block i on tape i % 3 at slot 10 * (i / 3) + 5.
    fn catalog() -> Catalog {
        let g = JukeboxGeometry::new(3, 100);
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 30, 0);
        for i in 0..30u32 {
            b.place(
                BlockId(i),
                PhysicalAddr {
                    tape: TapeId((i % 3) as u16),
                    slot: SlotIndex(10 * (i / 3) + 5),
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

    #[test]
    fn static_extracts_all_requests_for_tape_sorted() {
        let c = catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, None, SlotIndex(0));
        // Blocks 0, 3, 6 on tape 0 at slots 5, 15, 25; block 1 on tape 1.
        let mut p: PendingList = vec![req(0, 6), req(1, 1), req(2, 0), req(3, 3)]
            .into_iter()
            .collect();
        let mut s = StaticScheduler::new(TapeSelectPolicy::MaxRequests);
        let plan = s.major_reschedule(&v, &mut p).unwrap();
        assert_eq!(plan.tape, TapeId(0));
        let slots: Vec<u32> = plan.list.forward_stops().map(|r| r.slot.0).collect();
        assert_eq!(slots, vec![5, 15, 25]);
        // The request for tape 1 stays pending.
        assert_eq!(p.len(), 1);
        assert_eq!(p.oldest().unwrap().block, BlockId(1));
    }

    #[test]
    fn static_defers_arrivals_even_for_current_tape() {
        let c = catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(0)), SlotIndex(0));
        let mut sweep = ServiceList::new();
        let mut p = PendingList::new();
        let mut s = StaticScheduler::new(TapeSelectPolicy::MaxBandwidth);
        let out = s.on_arrival(&v, TapeId(0), &mut sweep, req(9, 0), &mut p);
        assert_eq!(out, ArrivalOutcome::Deferred);
        assert!(sweep.is_empty());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn dynamic_inserts_ahead_of_head() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Head at slot 10; block 3 (tape 0, slot 15) is ahead.
        let v = view(&c, &t, Some(TapeId(0)), SlotIndex(10));
        let mut sweep = ServiceList::new();
        let mut p = PendingList::new();
        let mut s = DynamicScheduler::new(TapeSelectPolicy::MaxBandwidth);
        let out = s.on_arrival(&v, TapeId(0), &mut sweep, req(9, 3), &mut p);
        assert_eq!(out, ArrivalOutcome::Inserted);
        assert_eq!(sweep.stops(), 1);
        assert!(p.is_empty());
    }

    #[test]
    fn dynamic_defers_behind_head() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Head at slot 10; block 0 (tape 0, slot 5) is behind.
        let v = view(&c, &t, Some(TapeId(0)), SlotIndex(10));
        let mut sweep = ServiceList::new();
        let mut p = PendingList::new();
        let mut s = DynamicScheduler::new(TapeSelectPolicy::MaxBandwidth);
        let out = s.on_arrival(&v, TapeId(0), &mut sweep, req(9, 0), &mut p);
        assert_eq!(out, ArrivalOutcome::Deferred);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn dynamic_defers_other_tape_blocks() {
        let c = catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(0)), SlotIndex(0));
        let mut sweep = ServiceList::new();
        let mut p = PendingList::new();
        let mut s = DynamicScheduler::new(TapeSelectPolicy::RoundRobin);
        // Block 1 lives on tape 1 only.
        let out = s.on_arrival(&v, TapeId(0), &mut sweep, req(9, 1), &mut p);
        assert_eq!(out, ArrivalOutcome::Deferred);
    }

    #[test]
    fn dynamic_insert_at_head_slot_is_allowed() {
        let c = catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, Some(TapeId(0)), SlotIndex(5));
        let mut sweep = ServiceList::new();
        let mut p = PendingList::new();
        let mut s = DynamicScheduler::new(TapeSelectPolicy::MaxRequests);
        let out = s.on_arrival(&v, TapeId(0), &mut sweep, req(9, 0), &mut p);
        assert_eq!(out, ArrivalOutcome::Inserted);
    }

    #[test]
    fn names_reflect_family_and_policy() {
        assert_eq!(
            StaticScheduler::new(TapeSelectPolicy::MaxBandwidth).name(),
            "static max-bandwidth"
        );
        assert_eq!(
            DynamicScheduler::new(TapeSelectPolicy::RoundRobin).name(),
            "dynamic round-robin"
        );
    }
}
