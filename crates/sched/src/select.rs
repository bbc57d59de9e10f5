//! Tape selection policies (Section 3.1).
//!
//! The static and dynamic algorithm families differ only in the criterion
//! by which the major rescheduler selects the next tape:
//!
//! * **round robin** — the next tape in jukebox order after the currently
//!   mounted tape that has a pending request;
//! * **max requests** — a tape with the maximal number of pending
//!   requests, ties broken by preferring the first in jukebox order
//!   starting at the currently mounted tape;
//! * **max bandwidth** — like max requests, but by effective bandwidth;
//! * **oldest request, max requests** — among the tapes that can satisfy
//!   the oldest request in the system, choose by max requests;
//! * **oldest request, max bandwidth** — likewise by max bandwidth.
#![expect(
    clippy::cast_precision_loss,
    reason = "queue lengths stay far below 2^53"
)]

use tapesim_model::TapeId;
use tapesim_workload::Request;

use crate::api::{ByTape, JukeboxView, PendingList};
use crate::cost::{candidate_for_tape, effective_bandwidth};

/// The five tape-selection policies of Section 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapeSelectPolicy {
    /// Next tape in jukebox order with a pending request.
    RoundRobin,
    /// Tape with the most pending requests.
    MaxRequests,
    /// Tape with the highest effective bandwidth.
    MaxBandwidth,
    /// Tape satisfying the oldest request, by max requests.
    OldestMaxRequests,
    /// Tape satisfying the oldest request, by max bandwidth.
    OldestMaxBandwidth,
}

impl TapeSelectPolicy {
    /// All five policies, for sweeps over the algorithm family.
    pub const ALL: [TapeSelectPolicy; 5] = [
        TapeSelectPolicy::RoundRobin,
        TapeSelectPolicy::MaxRequests,
        TapeSelectPolicy::MaxBandwidth,
        TapeSelectPolicy::OldestMaxRequests,
        TapeSelectPolicy::OldestMaxBandwidth,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            TapeSelectPolicy::RoundRobin => "round-robin",
            TapeSelectPolicy::MaxRequests => "max-requests",
            TapeSelectPolicy::MaxBandwidth => "max-bandwidth",
            TapeSelectPolicy::OldestMaxRequests => "oldest/max-requests",
            TapeSelectPolicy::OldestMaxBandwidth => "oldest/max-bandwidth",
        }
    }

    /// Selects the tape to service next, or `None` when the pending list
    /// is empty. Reads the per-tape counts and requests from the list's
    /// per-tape index, which it brings up to date first.
    pub fn select(self, view: &JukeboxView<'_>, pending: &mut PendingList) -> Option<TapeId> {
        if pending.is_empty() {
            return None;
        }
        let geometry = view.catalog.geometry();
        // The reference tape for "jukebox order starting at the currently
        // mounted tape".
        let anchor = view.mounted.unwrap_or(TapeId(0));
        let eligible = match self {
            TapeSelectPolicy::OldestMaxRequests | TapeSelectPolicy::OldestMaxBandwidth => {
                Some(oldest_eligible(view, pending)?)
            }
            _ => None,
        };
        let eligible = eligible.as_deref();
        let by_tape = pending.by_tape(view.catalog);

        match self {
            TapeSelectPolicy::RoundRobin => {
                // Scan mounted+1, mounted+2, ..., wrapping, ending at the
                // mounted tape itself.
                let t = geometry.tapes;
                (1..=t)
                    .map(|i| TapeId((anchor.0 + i) % t))
                    .find(|&tape| by_tape.count(tape) > 0 && view.is_available(tape))
            }
            TapeSelectPolicy::MaxRequests | TapeSelectPolicy::OldestMaxRequests => {
                best_by(view, by_tape, anchor, eligible, |tape| {
                    Some(by_tape.count(tape) as f64)
                })
            }
            TapeSelectPolicy::MaxBandwidth | TapeSelectPolicy::OldestMaxBandwidth => {
                best_by(view, by_tape, anchor, eligible, |tape| {
                    candidate_for_tape(view.catalog, tape, by_tape.requests(tape))
                        .map(|cand| effective_bandwidth(view, &cand))
                })
            }
        }
    }
}

/// The tapes eligible to serve under the "oldest request" policies:
/// normally the replica tapes of the oldest pending request. When fault
/// injection has taken *every* copy of the oldest request offline, the
/// policies would otherwise deadlock (no tape can ever be selected), so
/// they fail over to the oldest pending request that still has a copy on
/// a non-offline tape; the stranded request stays pending until a repair
/// brings a copy back. With no offline tapes — every fault-free
/// configuration — this is exactly the replica set of the oldest request.
fn oldest_eligible(view: &JukeboxView<'_>, pending: &PendingList) -> Option<Vec<TapeId>> {
    let replica_tapes = |r: &Request| -> Vec<TapeId> {
        view.catalog
            .replicas(r.block)
            .iter()
            .map(|a| a.tape)
            .collect()
    };
    let oldest = pending.oldest()?;
    let tapes = replica_tapes(oldest);
    if view.offline.is_empty() || tapes.iter().any(|&t| !view.is_offline(t)) {
        return Some(tapes);
    }
    pending
        .iter()
        .find(|r| {
            view.catalog
                .replicas_of(r.block, view.offline)
                .next()
                .is_some()
        })
        .map(replica_tapes)
}

/// Picks, among the available tapes with pending work (restricted to
/// `eligible` when given), the one with the highest `score`, skipping
/// tapes scored `None`. Ties go to the first tape in jukebox order
/// starting at `anchor`. The count-scored policies score a tape by its
/// pending count, so they build no candidate slot list.
fn best_by(
    view: &JukeboxView<'_>,
    by_tape: ByTape<'_>,
    anchor: TapeId,
    eligible: Option<&[TapeId]>,
    mut score: impl FnMut(TapeId) -> Option<f64>,
) -> Option<TapeId> {
    let geometry = view.catalog.geometry();
    let dist = |tape| geometry.circular_distance(anchor, tape);
    let mut best: Option<(f64, TapeId)> = None;
    for tape in geometry.tape_ids() {
        if by_tape.count(tape) == 0 || !view.is_available(tape) {
            continue;
        }
        if let Some(list) = eligible {
            if !list.contains(&tape) {
                continue;
            }
        }
        let Some(s) = score(tape) else {
            continue;
        };
        let better = match best {
            None => true,
            Some((bs, bt)) => s > bs || (s == bs && dist(tape) < dist(bt)),
        };
        if better {
            best = Some((s, tape));
        }
    }
    best.map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::{BlockId, Catalog};
    use tapesim_model::{
        BlockSize, JukeboxGeometry, PhysicalAddr, SimTime, SlotIndex, TimingModel,
    };
    use tapesim_workload::{Request, RequestId};

    /// 4 tapes x 100 slots (1 MB blocks). Block i lives on tape i % 4 at
    /// slot 10 * (i / 4) + 5.
    fn catalog() -> Catalog {
        let g = JukeboxGeometry::new(4, 100);
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 40, 0);
        for i in 0..40u32 {
            b.place(
                BlockId(i),
                PhysicalAddr {
                    tape: TapeId((i % 4) as u16),
                    slot: SlotIndex(10 * (i / 4) + 5),
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
    ) -> JukeboxView<'a> {
        JukeboxView {
            catalog,
            timing,
            mounted,
            head: SlotIndex(0),
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: crate::api::FleetView::SINGLE,
        }
    }

    #[test]
    fn empty_pending_selects_nothing() {
        let c = catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, None);
        let mut p = PendingList::new();
        for policy in TapeSelectPolicy::ALL {
            assert_eq!(policy.select(&v, &mut p), None, "{}", policy.name());
        }
    }

    #[test]
    fn round_robin_scans_after_mounted() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Requests on tapes 1 and 3.
        let mut p: PendingList = vec![req(0, 1), req(1, 3)].into_iter().collect();
        let v = view(&c, &t, Some(TapeId(1)));
        // After tape 1 comes 2 (nothing), then 3 (has a request).
        assert_eq!(
            TapeSelectPolicy::RoundRobin.select(&v, &mut p),
            Some(TapeId(3))
        );
        // After tape 3, wraps to 0 (nothing), then 1.
        let v3 = view(&c, &t, Some(TapeId(3)));
        assert_eq!(
            TapeSelectPolicy::RoundRobin.select(&v3, &mut p),
            Some(TapeId(1))
        );
    }

    #[test]
    fn round_robin_can_reselect_mounted_as_last_resort() {
        let c = catalog();
        let t = TimingModel::paper_default();
        let mut p: PendingList = vec![req(0, 2)].into_iter().collect();
        let v = view(&c, &t, Some(TapeId(2)));
        assert_eq!(
            TapeSelectPolicy::RoundRobin.select(&v, &mut p),
            Some(TapeId(2))
        );
    }

    #[test]
    fn max_requests_picks_heaviest_tape() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Three requests on tape 2, one on tape 0.
        let mut p: PendingList = vec![req(0, 0), req(1, 2), req(2, 6), req(3, 10)]
            .into_iter()
            .collect();
        let v = view(&c, &t, None);
        assert_eq!(
            TapeSelectPolicy::MaxRequests.select(&v, &mut p),
            Some(TapeId(2))
        );
    }

    #[test]
    fn max_requests_tie_breaks_toward_mounted() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // One request each on tapes 0 and 3.
        let mut p: PendingList = vec![req(0, 0), req(1, 3)].into_iter().collect();
        // Mounted tape 3: distance(3->3)=0 beats distance(3->0)=1.
        let v = view(&c, &t, Some(TapeId(3)));
        assert_eq!(
            TapeSelectPolicy::MaxRequests.select(&v, &mut p),
            Some(TapeId(3))
        );
        // Mounted tape 1: distance(1->3)=2 beats... distance(1->0)=3; so 3.
        let v1 = view(&c, &t, Some(TapeId(1)));
        assert_eq!(
            TapeSelectPolicy::MaxRequests.select(&v1, &mut p),
            Some(TapeId(3))
        );
    }

    #[test]
    fn max_bandwidth_prefers_mounted_over_equal_work() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Identical work on tapes 0 and 1 (same slots), but tape 1 is
        // mounted, so it avoids the 81 s switch.
        let mut p: PendingList = vec![req(0, 0), req(1, 1)].into_iter().collect();
        let v = view(&c, &t, Some(TapeId(1)));
        assert_eq!(
            TapeSelectPolicy::MaxBandwidth.select(&v, &mut p),
            Some(TapeId(1))
        );
    }

    #[test]
    fn oldest_policies_restrict_to_tapes_with_oldest() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Oldest request (id 0) is on tape 1; tape 2 has more requests but
        // cannot satisfy the oldest.
        let mut p: PendingList = vec![req(0, 1), req(1, 2), req(2, 6), req(3, 10)]
            .into_iter()
            .collect();
        let v = view(&c, &t, None);
        assert_eq!(
            TapeSelectPolicy::OldestMaxRequests.select(&v, &mut p),
            Some(TapeId(1))
        );
        assert_eq!(
            TapeSelectPolicy::OldestMaxBandwidth.select(&v, &mut p),
            Some(TapeId(1))
        );
    }

    #[test]
    fn offline_tapes_are_never_selected() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Requests on tapes 1 and 3; tape 3 has more work but is offline.
        let mut p: PendingList = vec![req(0, 1), req(1, 3), req(2, 7), req(3, 11)]
            .into_iter()
            .collect();
        let offline = [TapeId(3)];
        let v = JukeboxView {
            offline: &offline,
            fleet: crate::api::FleetView::SINGLE,
            ..view(&c, &t, None)
        };
        for policy in TapeSelectPolicy::ALL {
            assert_eq!(
                policy.select(&v, &mut p),
                Some(TapeId(1)),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn oldest_policies_fail_over_when_oldest_is_stranded() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Oldest request's only copy is on tape 1, which is offline. The
        // oldest policies must fall back to the next-oldest serviceable
        // request (block 2, on tape 2) instead of deadlocking.
        let mut p: PendingList = vec![req(0, 1), req(1, 2)].into_iter().collect();
        let offline = [TapeId(1)];
        let v = JukeboxView {
            offline: &offline,
            fleet: crate::api::FleetView::SINGLE,
            ..view(&c, &t, None)
        };
        assert_eq!(
            TapeSelectPolicy::OldestMaxRequests.select(&v, &mut p),
            Some(TapeId(2))
        );
        assert_eq!(
            TapeSelectPolicy::OldestMaxBandwidth.select(&v, &mut p),
            Some(TapeId(2))
        );
        // When every pending request is stranded, nothing is selected.
        let all_off = [TapeId(1), TapeId(2)];
        let v2 = JukeboxView {
            offline: &all_off,
            fleet: crate::api::FleetView::SINGLE,
            ..view(&c, &t, None)
        };
        assert_eq!(
            TapeSelectPolicy::OldestMaxRequests.select(&v2, &mut p),
            None
        );
    }

    #[test]
    fn policy_names_are_distinct() {
        let mut names: Vec<&str> = TapeSelectPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
