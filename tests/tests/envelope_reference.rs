//! The envelope scheduler against [`reference_upper_envelope`], an
//! implementation of §3.2's six steps that shares no code with
//! `tapesim_sched::envelope`. Envelope, assignment and counts must agree
//! exactly on random catalogs, across membership churn, in the shrink
//! case where only a boundary moves, and on a deep snapshot of the
//! paper's full-replication layout. A scheduler kept across the churn's
//! calls must also agree with the reference on every call.

use integration_tests::envelope_reference::reference_upper_envelope;
use proptest::prelude::*;
use tapesim::layout::{build_placement, BlockId, Catalog, PlacementConfig};
use tapesim::model::{
    BlockSize, JukeboxGeometry, PhysicalAddr, SimTime, SlotIndex, TapeId, TimingModel,
};
use tapesim::sched::envelope::{compute_upper_envelope, envelope_after_absorb};
use tapesim::sched::{
    EnvelopePolicy, EnvelopeScheduler, FleetView, JukeboxView, PendingList, Scheduler,
};
use tapesim::workload::{generate_trace, BlockSampler, Request, RequestId};

const TAPES: u16 = 3;
const SLOTS: u32 = 500;

fn req(id: u64, block: u32) -> Request {
    Request {
        id: RequestId(id),
        block: BlockId(block),
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
        fleet: FleetView::SINGLE,
    }
}

/// A catalog on `TAPES` tapes x `SLOTS` slots (1 MB blocks) with block
/// `b`'s copies at `copies[b]`.
fn catalog_of(copies: &[&[(u16, u32)]]) -> Catalog {
    let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
    let blocks = u32::try_from(copies.len()).unwrap();
    let mut builder = Catalog::builder(g, BlockSize::from_mb(1), blocks, 0);
    for (block, copies) in (0u32..).zip(copies) {
        for &(tape, slot) in *copies {
            let addr = PhysicalAddr {
                tape: TapeId(tape),
                slot: SlotIndex(slot),
            };
            builder.place(BlockId(block), addr).unwrap();
        }
    }
    builder.build().unwrap()
}

/// Builds a random catalog on `TAPES` tapes x `SLOTS` slots (1 MB
/// blocks), each block with the requested number of copies at random
/// slots. Returns `None` when the placement stream runs dry.
fn random_catalog(
    placements: &[(u16, u32)],
    copies_per_block: &[usize],
) -> Option<(Catalog, Vec<BlockId>)> {
    let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
    let blocks = u32::try_from(copies_per_block.len()).unwrap();
    let mut builder = Catalog::builder(g, BlockSize::from_mb(1), blocks, 0);
    let mut it = placements.iter();
    let mut ids = Vec::new();
    for (b, &copies) in (0u32..).zip(copies_per_block) {
        let id = BlockId(b);
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
    (0u64..).zip(ids).map(|(i, b)| req(i, b.0)).collect()
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
    fn envelope_equals_reference_on_random_catalogs(
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
        prop_assert_eq!(
            compute_upper_envelope(&v, &pending),
            reference_upper_envelope(&v, &pending)
        );
    }

    /// Membership churn (arrivals, completions/cancels, fault/fail-back
    /// availability flips): the envelope matches the reference at every
    /// step, both from a fresh computation and from one scheduler kept
    /// across every step. The only property case with unavailable tapes
    /// and with several requests for one block.
    #[test]
    fn envelope_equals_reference_across_membership_churn(
        placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 80),
        copies in proptest::collection::vec(1usize..=3, 3..=8),
        mounted in proptest::option::of(0u16..TAPES),
        head in 0u32..SLOTS,
        ops in proptest::collection::vec((0u16..4, 0u32..1000), 1..40),
        policy in 0usize..3,
    ) {
        let Some((catalog, ids)) = random_catalog(&placements, &copies) else {
            return Ok(());
        };
        let timing = TimingModel::paper_default();
        let mounted = mounted.map(TapeId);
        let mut kept = EnvelopeScheduler::new(EnvelopePolicy::ALL[policy]);
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
                _ => {
                    let tape = TapeId(u16::try_from(payload % u32::from(TAPES)).unwrap());
                    if mounted != Some(tape) {
                        match unavailable.binary_search(&tape) {
                            Ok(p) => {
                                unavailable.remove(p);
                            }
                            Err(p) => unavailable.insert(p, tape),
                        }
                    }
                }
            }
            let v = JukeboxView {
                unavailable: &unavailable,
                ..view(&catalog, &timing, mounted, SlotIndex(head))
            };
            let snapshot = available_snapshot(&v, &live);
            if snapshot.is_empty() {
                continue;
            }
            let reference = reference_upper_envelope(&v, &snapshot);
            prop_assert_eq!(compute_upper_envelope(&v, &snapshot), reference.clone());
            let mut pending: PendingList = live.iter().copied().collect();
            prop_assert!(kept.major_reschedule(&v, &mut pending).is_some());
            prop_assert_eq!(kept.current_envelope(), &reference.env);
        }
    }
}

#[test]
fn envelope_equals_reference_after_a_boundary_only_shrink() {
    // Tape 0 extends over block 2 (slot 18). Tape 2, mounted with the
    // head at BOT, then extends over block 3 (slot 10), which covers
    // block 2's copy at slot 8: the shrink moves block 2 to tape 2 and
    // pulls tape 0's boundary back from 19 to 13. No request with a copy
    // on tape 0 changed assignment, so only the boundary rule refreshes
    // tape 0's extension list (block 0 at slot 499) before the last
    // iteration scores it. Walked from the stale boundary, that list
    // wins block 0 for tape 0 instead of tape 2.
    let catalog = catalog_of(&[
        &[(0, 499), (1, 495), (2, 491)],
        &[(0, 1), (1, 19), (2, 5)],
        &[(0, 18), (1, 488), (2, 8)],
        &[(1, 490), (2, 10)],
        &[(0, 12)],
    ]);
    let timing = TimingModel::paper_default();
    let v = view(&catalog, &timing, Some(TapeId(2)), SlotIndex(0));
    let pending: Vec<Request> = (0..5).map(|b| req(u64::from(b), b)).collect();
    let reference = reference_upper_envelope(&v, &pending);
    // The scenario's premise: tape 0 ends at block 4 and tape 2 takes
    // block 0.
    assert_eq!(reference.env, vec![13, 0, 492]);
    assert_eq!(compute_upper_envelope(&v, &pending), reference);
}

/// The deep-backlog regime the property cases (at most 8 blocks and 40
/// requests) do not reach: the paper's full-replication layout, over 512
/// pending requests with repeats, the head mid-tape on the mounted tape
/// and one tape held by another drive.
#[test]
fn envelope_equals_reference_on_a_deep_snapshot() {
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
    let requests: Vec<Request> = (0u64..)
        .zip(generate_trace(&sampler, 640, 11))
        .map(|(i, b)| req(i, b.0))
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
        reference_upper_envelope(&v, &snapshot)
    );
}
