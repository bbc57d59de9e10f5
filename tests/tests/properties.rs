//! Property-based tests over the placement, cost, and scheduling layers.

use proptest::prelude::*;

use tapesim::layout::{build_placement, LayoutKind, PlacementConfig, PlacementScheme};
use tapesim::model::{SimTime, SlotIndex};
use tapesim::prelude::*;
use tapesim::sched::envelope::compute_upper_envelope;
use tapesim::sched::{walk_cost, JukeboxView, PendingList};
use tapesim::workload::RequestId;

fn arb_layout() -> impl Strategy<Value = LayoutKind> {
    prop_oneof![Just(LayoutKind::Horizontal), Just(LayoutKind::Vertical)]
}

fn small_geometry() -> impl Strategy<Value = JukeboxGeometry> {
    (2u16..=10, 20u64..=120).prop_map(|(tapes, cap)| JukeboxGeometry::new(tapes, cap * 16))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every feasible placement satisfies the catalog invariants: at most
    /// one copy of a block per tape, every block placed, capacity
    /// respected, hot blocks a prefix, and the analytic expansion factor
    /// close to the measured one.
    #[test]
    fn placement_invariants(
        geometry in small_geometry(),
        layout in arb_layout(),
        ph in 0.0f64..=40.0,
        nr_frac in 0.0f64..=1.0,
        sp in 0.0f64..=1.0,
    ) {
        let max_nr = geometry.tapes as u32 - 1;
        let nr = (nr_frac * max_nr as f64).floor() as u32;
        let block = BlockSize::PAPER_DEFAULT;
        let cfg = PlacementConfig { layout, ph_percent: ph, scheme: PlacementScheme::Replication { nr }, sp };
        let Ok(placed) = build_placement(geometry, block, cfg) else {
            // Vertical layouts can be infeasible when hot tapes leave no
            // room for distinct replicas; that is a valid outcome.
            return Ok(());
        };
        let c = &placed.catalog;
        prop_assert!(c.num_blocks() > 0);
        prop_assert!(c.total_copies() <= geometry.total_slots(block));
        for b in 0..c.num_blocks() {
            let replicas = c.replicas(BlockId(b));
            prop_assert!(!replicas.is_empty());
            // Sorted by tape with no duplicates = one copy per tape.
            for w in replicas.windows(2) {
                prop_assert!(w[0].tape < w[1].tape);
            }
            // Cold blocks are never replicated.
            if b >= c.hot_count() {
                prop_assert_eq!(replicas.len(), 1);
            } else if ph > 0.0 {
                prop_assert_eq!(replicas.len() as u32, 1 + nr);
            }
            // Every recorded copy is readable back through the slot map.
            for a in replicas {
                prop_assert_eq!(c.block_at(*a), Some(BlockId(b)));
            }
        }
        // Measured expansion tracks the analytic E (rounding slack only).
        let analytic = tapesim::layout::expansion_factor(nr, ph);
        prop_assert!((c.measured_expansion() - analytic).abs() < 0.05,
            "measured {} vs analytic {}", c.measured_expansion(), analytic);
    }

    /// Walk cost is additive-monotone: visiting a superset of stops (in
    /// the same order) never gets cheaper.
    #[test]
    fn walk_cost_monotone(
        stops in proptest::collection::vec(0u32..448, 1..30),
        head in 0u32..448,
    ) {
        let timing = TimingModel::paper_default();
        let block = BlockSize::PAPER_DEFAULT;
        let full: Vec<SlotIndex> = stops.iter().map(|&s| SlotIndex(s)).collect();
        let partial = &full[..full.len() - 1];
        let c_full = walk_cost(&timing, block, SlotIndex(head), full.iter().copied());
        let c_partial = walk_cost(&timing, block, SlotIndex(head), partial.iter().copied());
        prop_assert!(c_full >= c_partial);
    }

    /// The upper envelope covers every pending request: each request is
    /// assigned a tape that holds a copy of its block strictly inside
    /// that tape's envelope.
    #[test]
    fn envelope_covers_all_requests(
        seed in 0u64..1000,
        n in 1usize..60,
        rh in 0.0f64..=100.0,
    ) {
        let g = JukeboxGeometry::PAPER_DEFAULT;
        let placed = build_placement(
            g,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig::paper_full_replication(g),
        ).unwrap();
        let sampler = BlockSampler::from_catalog(&placed.catalog, rh);
        let mut f = RequestFactory::new(
            sampler,
            ArrivalProcess::Closed { queue_length: n as u32 },
            seed,
        );
        let pending: Vec<Request> = (0..n).map(|_| f.make(SimTime::ZERO)).collect();
        let timing = TimingModel::paper_default();
        let view = JukeboxView {
            catalog: &placed.catalog,
            timing: &timing,
            mounted: None,
            head: SlotIndex(0),
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: tapesim::sched::FleetView::SINGLE,
        };
        let upper = compute_upper_envelope(&view, &pending);
        prop_assert_eq!(upper.assigned.len(), pending.len());
        for (r, &tape) in pending.iter().zip(&upper.assigned) {
            let copy = placed.catalog.copy_on_tape(r.block, tape);
            prop_assert!(copy.is_some(), "assigned tape holds no copy");
            let slot = copy.unwrap().slot;
            prop_assert!(
                slot.0 < upper.env[tape.index()],
                "assigned copy at {slot} outside envelope {}",
                upper.env[tape.index()]
            );
        }
        // Counts are consistent with the assignment.
        let mut counts = vec![0u32; g.tapes as usize];
        for &t in &upper.assigned {
            counts[t.index()] += 1;
        }
        prop_assert_eq!(counts, upper.counts);
    }

    /// Every scheduler's major reschedule (a) picks a tape that can serve
    /// all the requests it extracts, (b) removes exactly those requests
    /// from the pending list, and (c) returns stops in valid sweep order.
    #[test]
    fn major_reschedule_contract(
        seed in 0u64..500,
        n in 1usize..50,
        alg_idx in 0usize..14,
    ) {
        let g = JukeboxGeometry::PAPER_DEFAULT;
        let placed = build_placement(
            g,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig::paper_full_replication(g),
        ).unwrap();
        let alg = AlgorithmId::all()[alg_idx];
        let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
        let mut f = RequestFactory::new(
            sampler,
            ArrivalProcess::Closed { queue_length: n as u32 },
            seed,
        );
        let mut pending: PendingList = (0..n).map(|_| f.make(SimTime::ZERO)).collect();
        let before = pending.len();
        let timing = TimingModel::paper_default();
        let view = JukeboxView {
            catalog: &placed.catalog,
            timing: &timing,
            mounted: None,
            head: SlotIndex(0),
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: tapesim::sched::FleetView::SINGLE,
        };
        let mut sched = make_scheduler(alg);
        let plan = sched.major_reschedule(&view, &mut pending).expect("non-empty pending");
        let served = plan.list.requests();
        prop_assert!(served >= 1);
        prop_assert_eq!(served + pending.len(), before, "requests conserved");
        // All scheduled stops hold the blocks of their requests.
        let mut fwd_slots = Vec::new();
        for stop in plan.list.forward_stops() {
            fwd_slots.push(stop.slot);
            for r in &stop.requests {
                prop_assert_eq!(
                    placed.catalog.copy_on_tape(r.block, plan.tape).map(|a| a.slot),
                    Some(stop.slot)
                );
            }
        }
        // Forward phase strictly ascending (head starts at 0 here).
        for w in fwd_slots.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// The effective hot-request probability degenerates correctly when a
    /// class is empty, for any requested RH.
    #[test]
    fn sampler_rh_degenerates_at_boundaries(rh in 0.0f64..=100.0, hot in 0u32..=500) {
        let s = BlockSampler::new(500, hot, rh);
        prop_assert_eq!(s.total(), 500);
        prop_assert_eq!(s.hot_count(), hot);
        if hot == 0 {
            prop_assert_eq!(s.rh_fraction(), 0.0);
        } else if hot == 500 {
            prop_assert_eq!(s.rh_fraction(), 1.0);
        } else {
            prop_assert!((s.rh_fraction() - rh / 100.0).abs() < 1e-12);
        }
    }
}

#[test]
fn request_ids_are_monotone_across_factory_use() {
    let g = JukeboxGeometry::PAPER_DEFAULT;
    let placed = build_placement(
        g,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .unwrap();
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut f = RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 5 }, 1);
    let ids: Vec<RequestId> = (0..100).map(|_| f.make(SimTime::ZERO).id).collect();
    for w in ids.windows(2) {
        assert!(w[0] < w[1]);
    }
}

mod extension_properties {
    use super::*;
    use tapesim::model::{
        logical_sweep_order, nearest_neighbor_order, SerpentineGeometry, SerpentineModel,
    };
    use tapesim::sim::SimConfig;
    use tapesim::workload::ZipfSampler;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Serpentine orderings are permutations, and nearest-neighbor
        /// never costs more than the arrival order it starts from.
        #[test]
        fn serpentine_orders_are_sound(
            raw in proptest::collection::vec(0u32..400, 1..40),
        ) {
            let m = SerpentineModel {
                geometry: SerpentineGeometry::new(10, 160 * 4),
                ..SerpentineModel::dlt_like()
            };
            let block = BlockSize::PAPER_DEFAULT;
            // Distinct slots in first-draw order: the input order is part of
            // the case (nearest-neighbor breaks ties by input index), so a
            // failing case reproduces under its seed.
            let mut slots: Vec<SlotIndex> = Vec::new();
            for s in raw.into_iter().map(SlotIndex) {
                if !slots.contains(&s) {
                    slots.push(s);
                }
            }
            let nn = nearest_neighbor_order(&m, block, slots.clone());
            let sweep = logical_sweep_order(slots.clone());
            // Permutations of the input.
            let norm = |mut v: Vec<SlotIndex>| { v.sort_unstable(); v };
            prop_assert_eq!(norm(nn.clone()), norm(slots.clone()));
            prop_assert_eq!(norm(sweep.clone()), norm(slots.clone()));
            // Every order pays at least the pure transfer time.
            let reads_only = m.read_block(block) * slots.len() as u64;
            prop_assert!(m.service_time(&nn, block) >= reads_only);
            prop_assert!(m.service_time(&sweep, block) >= reads_only);
        }

        /// The Zipf CDF is strictly increasing and properly normalized,
        /// and top-mass is monotone in the prefix size.
        #[test]
        fn zipf_mass_is_monotone(total in 2u32..2000, theta in 0.0f64..3.0) {
            let z = ZipfSampler::new(total, theta);
            let mut prev = 0.0;
            for k in 1..=total.min(50) {
                let m = z.mass_of_top(k);
                prop_assert!(m > prev);
                prev = m;
            }
            prop_assert!((z.mass_of_top(total) - 1.0).abs() < 1e-9);
        }

        /// Engine accounting invariants hold for every algorithm on short
        /// runs: each physical read serves at least one request, and the
        /// busy+idle time fractions roughly cover the window.
        #[test]
        fn engine_accounting_invariants(
            alg_idx in 0usize..14,
            seed in 0u64..50,
            queue in 5u32..80,
        ) {
            let g = JukeboxGeometry::PAPER_DEFAULT;
            let placed = build_placement(
                g,
                BlockSize::PAPER_DEFAULT,
                PlacementConfig::paper_full_replication(g),
            ).unwrap();
            let timing = TimingModel::paper_default();
            let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
            let mut factory = RequestFactory::new(
                sampler,
                ArrivalProcess::Closed { queue_length: queue },
                seed,
            );
            let alg = AlgorithmId::all()[alg_idx];
            let mut sched = make_scheduler(alg);
            let cfg = SimConfig {
                duration: tapesim::model::Micros::from_secs(30_000),
                warmup: tapesim::model::Micros::from_secs(2_000),
                max_pending: 5_000,
            };
            let r = tapesim::sim::run_multi_drive(
                &placed.catalog,
                &timing,
                sched.as_mut(),
                &mut factory,
                &cfg,
                1,
            )
            .expect("property run is valid");
            prop_assert!(r.completed >= r.physical_reads,
                "{}: {} completed < {} reads", alg.name(), r.completed, r.physical_reads);
            prop_assert!(r.physical_reads > 0, "{}", alg.name());
            let covered = r.locate_frac + r.read_frac + r.switch_frac + r.idle_frac;
            prop_assert!((covered - 1.0).abs() < 0.10,
                "{}: time coverage {covered}", alg.name());
            // A closed queue is never saturated.
            prop_assert!(!r.saturated);
        }
    }
}

mod spare_properties {
    use super::*;
    use tapesim::layout::{build_spare_layout, SpareConfig, SpareUse};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both spare-capacity schemes store the same logical data, never
        /// exceed capacity, never duplicate a block on one tape, and the
        /// replica-filled variant only ever adds hot copies.
        #[test]
        fn spare_layouts_are_sound(
            ph in 0.0f64..=30.0,
            fill in 0.05f64..=1.0,
            tapes in 2u16..=10,
        ) {
            let geometry = JukeboxGeometry::new(tapes, 7 * 1024);
            let block = BlockSize::PAPER_DEFAULT;
            let mk = |use_| build_spare_layout(
                geometry,
                block,
                SpareConfig { ph_percent: ph, fill_fraction: fill, spare_use: use_ },
            );
            let (Ok(packed), Ok(spread)) = (mk(SpareUse::LeaveEmpty), mk(SpareUse::FillWithReplicas)) else {
                // A single-tape-dominating hot set can make a scheme
                // infeasible; both failing together is acceptable.
                return Ok(());
            };
            // Identical logical contents.
            prop_assert_eq!(packed.catalog.num_blocks(), spread.catalog.num_blocks());
            prop_assert_eq!(packed.catalog.hot_count(), spread.catalog.hot_count());
            // Packed never replicates; spread only adds hot copies.
            prop_assert_eq!(
                packed.catalog.total_copies(),
                u64::from(packed.catalog.num_blocks())
            );
            prop_assert!(spread.catalog.total_copies() >= packed.catalog.total_copies());
            for c in [&packed.catalog, &spread.catalog] {
                prop_assert!(c.total_copies() <= geometry.total_slots(block));
                for b in 0..c.num_blocks() {
                    let replicas = c.replicas(BlockId(b));
                    for w in replicas.windows(2) {
                        prop_assert!(w[0].tape < w[1].tape, "two copies on one tape");
                    }
                    // Cold blocks are never replicated by either scheme.
                    if b >= c.hot_count() {
                        prop_assert_eq!(replicas.len(), 1);
                    }
                }
            }
            // Packed really packs: occupied tapes form a prefix, and all
            // but the last occupied tape are full.
            let slots = geometry.slots_per_tape(block);
            let used: Vec<u32> = geometry
                .tape_ids()
                .map(|t| packed.catalog.occupied_slots(t))
                .collect();
            let occupied = used.iter().filter(|&&u| u > 0).count();
            for (i, &u) in used.iter().enumerate() {
                if i + 1 < occupied {
                    prop_assert_eq!(u, slots, "tape {} not full in packed layout", i);
                }
                if i >= occupied {
                    prop_assert_eq!(u, 0, "hole in packed layout at tape {}", i);
                }
            }
        }
    }
}

mod fault_properties {
    use super::*;
    use tapesim::model::{Micros, TapeId};
    use tapesim::sim::RunSpec;

    /// Every admitted request is eventually served, counted as a
    /// permanent failure, or still unserved at the horizon — nothing is
    /// lost or double-counted, for any algorithm, drive count, and fault
    /// intensity.
    #[test]
    fn admitted_requests_are_conserved_under_faults() {
        let g = JukeboxGeometry::PAPER_DEFAULT;
        let placed = build_placement(
            g,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig::paper_full_replication(g),
        )
        .unwrap();
        let timing = TimingModel::paper_default();
        let faults = FaultConfig {
            media_error_per_read: 0.03,
            media_retries: 1,
            load_failure_p: 0.01,
            load_retries: 1,
            tape_mtbf: Some(Micros::from_secs(150_000)),
            tape_mttr: Some(Micros::from_secs(10_000)),
            drive_mtbf: Some(Micros::from_secs(200_000)),
            drive_mttr: Micros::from_secs(3_000),
            copy_heal_mttr: None,
        };
        for alg in [
            AlgorithmId::Fifo,
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            AlgorithmId::paper_recommended(),
        ] {
            for drives in [1u16, 2] {
                let spec = RunSpec {
                    catalog: &placed.catalog,
                    timing: &timing,
                    algorithm: alg,
                    process: ArrivalProcess::Closed { queue_length: 50 },
                    rh_percent: 40.0,
                    cluster_run_p: 0.0,
                    drives,
                    config: SimConfig::quick(),
                    faults,
                };
                let r = tapesim::sim::run_one(&spec, 11).expect("faulty run is valid");
                assert_eq!(
                    r.admitted,
                    r.served + r.failed_requests + r.unserved,
                    "{} with {} drives: {} admitted vs {} served + {} failed + {} unserved",
                    alg.name(),
                    drives,
                    r.admitted,
                    r.served,
                    r.failed_requests,
                    r.unserved
                );
                assert!(r.completed > 0, "{} made no progress", alg.name());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// No scheduling algorithm ever plans a sweep on an offline tape,
        /// whatever subset of the jukebox is down.
        #[test]
        fn no_sweep_plan_targets_an_offline_tape(
            seed in 0u64..200,
            n in 1usize..40,
            alg_idx in 0usize..14,
            mask in 1u16..1023,
        ) {
            let g = JukeboxGeometry::PAPER_DEFAULT;
            let placed = build_placement(
                g,
                BlockSize::PAPER_DEFAULT,
                PlacementConfig::paper_full_replication(g),
            ).unwrap();
            // An arbitrary non-full subset of the 10 tapes is offline.
            let offline: Vec<TapeId> = (0..g.tapes)
                .filter(|t| mask & (1 << t) != 0)
                .map(TapeId)
                .collect();
            let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
            let mut f = RequestFactory::new(
                sampler,
                ArrivalProcess::Closed { queue_length: n as u32 },
                seed,
            );
            let mut pending: PendingList = (0..n).map(|_| f.make(SimTime::ZERO)).collect();
            let timing = TimingModel::paper_default();
            let view = JukeboxView {
                catalog: &placed.catalog,
                timing: &timing,
                mounted: None,
                head: SlotIndex(0),
                now: SimTime::ZERO,
                unavailable: &[],
                offline: &offline,
                fleet: tapesim::sched::FleetView::SINGLE,
            };
            let mut sched = make_scheduler(AlgorithmId::all()[alg_idx]);
            if let Some(plan) = sched.major_reschedule(&view, &mut pending) {
                prop_assert!(
                    !offline.contains(&plan.tape),
                    "{} chose offline tape {:?}",
                    AlgorithmId::all()[alg_idx].name(),
                    plan.tape
                );
                prop_assert!(plan.list.requests() >= 1);
            }
        }
    }
}
