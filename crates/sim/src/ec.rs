//! Erasure-read execution: drives the stepped multi-drive core in
//! external-arrival mode, expanding every logical read of a striped
//! catalog into `k` shard sub-requests and joining their completions.
//!
//! ## Execution model
//!
//! A striped catalog (built by `PlacementScheme::Erasure { k, m }`, see
//! `tapesim_layout::StripeInfo`) stores *shard cells*, not logical
//! blocks: a hot logical block is `k + m` cells on distinct tapes, a
//! cold one `k` contiguous cells on a single tape. The engine cores
//! already execute cell reads perfectly well — cells are ordinary
//! catalog blocks — so erasure semantics live entirely in this driver:
//!
//! 1. **Admission.** Each logical request expands into exactly `k`
//!    sub-requests, one per shard cell chosen by
//!    [`tapesim_sched::choose_shards`] (cheapest-`k` ranking against the
//!    currently mounted tapes, known-dead cells deprioritized). The subs
//!    enter the engine through `submit_at`, so scheduling, sweeps,
//!    mounts, traces, and the fault model treat them exactly like any
//!    other read — a hot erasure read visibly mounts up to `k` tapes.
//! 2. **Join.** A logical read completes at the instant its *last* sub
//!    completes (the max-completion envelope); the logical delay and the
//!    logical byte count (`k` shards) are what the report's
//!    request-level metrics measure.
//! 3. **Degraded mode.** When a sub fails permanently (its cell's tape
//!    or copy was lost under the PR 1 fault model), the driver retargets
//!    the read onto the cheapest surviving unused cell of the stripe —
//!    parity shards make this possible for hot blocks. When fewer than
//!    `k` cells survive, the logical read fails with the typed
//!    `ec_unavailable` accounting (cold blocks, having no parity, fail
//!    on the first lost cell).
//!
//! Closed-queue workloads regenerate one logical request per logical
//! completion (or failure), preserving the paper's population invariant
//! at the logical level. Everything is deterministic: the factory's
//! request stream, the engine's event order, and the `BTreeMap` joins.
//!
//! The generated-arrival entry points refuse striped catalogs, so an
//! erasure catalog cannot be run with cell-level request sampling by
//! accident.

use std::collections::{BTreeMap, BTreeSet};

use tapesim_layout::{BlockId, Catalog};
use tapesim_model::{FaultConfig, SimTime, TapeId, TimingModel};
use tapesim_sched::Scheduler;
use tapesim_workload::{ArrivalProcess, BlockSampler, Request, RequestFactory, RequestId};

use crate::error::SimError;
use crate::metrics::{MetricsCollector, MetricsReport};
use crate::multidrive::{SimConfig, SteppedMultiDrive};
use crate::stepped::EngineEvent;
use crate::trace::NullSink;

/// One in-flight logical erasure read: the join over its `k` subs.
#[derive(Debug)]
struct Join {
    /// The logical request (factory id-space; `block` is a logical id).
    logical: Request,
    /// Sub-requests still outstanding.
    remaining: u32,
    /// Cells assigned so far, including failed ones (never reused).
    used: Vec<u32>,
    /// True once the logical read failed (fewer than `k` cells left);
    /// kept only until the last outstanding sub drains.
    doomed: bool,
}

/// Runs one erasure-scheme simulation over a striped catalog: logical
/// requests are drawn from `sampler`/`process` (logical id-space — use
/// [`BlockSampler::from_catalog`], which samples logical blocks for
/// striped catalogs) and executed as `k`-way shard reads on the stepped
/// multi-drive core. Returns the logical-level report: request metrics
/// (completed, delays, throughput, admitted/served/failed/unserved)
/// count logical reads and logical bytes, device metrics (physical
/// reads, tape switches, time fractions, fault accounting) count actual
/// drive work — so `physical_reads ≈ k × served` and the extra mounts of
/// multi-tape reads are visible in `tape_switches`.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent run input"
)]
pub fn run_erasure_simulation(
    catalog: &Catalog,
    timing: &TimingModel,
    scheduler: &mut dyn Scheduler,
    sampler: BlockSampler,
    process: ArrivalProcess,
    cfg: &SimConfig,
    faults: &FaultConfig,
    seed: u64,
    drives: u16,
) -> Result<MetricsReport, SimError> {
    let stripe = *catalog.stripe().ok_or(SimError::InvalidConfig(
        "erasure driver requires a striped catalog",
    ))?;
    if sampler.total() != catalog.logical_num_blocks() {
        return Err(SimError::InvalidConfig(
            "sampler must cover the catalog's logical blocks",
        ));
    }
    let logical_bytes = catalog.logical_block_size().bytes();
    let warmup_end = SimTime::ZERO + cfg.warmup;

    // The logical request stream is ours; the engine's copy is inert
    // (external mode never reads it).
    let mut factory = RequestFactory::new(sampler.clone(), process, seed);
    let mut engine_factory = RequestFactory::new(sampler, process, seed);
    let mut sink = NullSink;
    let mut engine = SteppedMultiDrive::new_external(
        catalog,
        timing,
        scheduler,
        &mut engine_factory,
        cfg,
        drives,
        faults,
        seed,
        &mut sink,
    )?;

    let closed = matches!(process, ArrivalProcess::Closed { .. });
    let mut joins: BTreeMap<u64, Join> = BTreeMap::new();
    let mut sub_of: BTreeMap<RequestId, u64> = BTreeMap::new();
    let mut dead_cells: BTreeSet<u32> = BTreeSet::new();
    let mut metrics = MetricsCollector::new(warmup_end);
    let mut ec_unavailable = 0u64;
    let mut failovers = 0u64;

    // Seed the workload.
    let mut next_arrival: Option<SimTime> = None;
    match process {
        ArrivalProcess::Closed { queue_length } => {
            for _ in 0..queue_length {
                let req = factory.make(SimTime::ZERO);
                metrics.record_admission();
                admit(
                    &mut engine,
                    catalog,
                    timing,
                    &stripe,
                    &dead_cells,
                    &mut joins,
                    &mut sub_of,
                    req,
                )?;
            }
        }
        ArrivalProcess::OpenPoisson { .. } => {
            let gap = factory
                .next_interarrival()
                .ok_or(SimError::ClosedArrivalStream)?;
            next_arrival = Some(SimTime::ZERO + gap);
        }
    }

    // Drive the engine so joins, retargets, and closed-queue
    // regeneration happen at their natural instants: event-by-event for
    // closed queuing (regeneration must be prompt to hold the population
    // invariant), arrival-to-arrival for open queuing (the engine would
    // otherwise idle past future arrivals it knows nothing about).
    while !engine.is_done() {
        // Deliver open arrivals before the clock passes them.
        while let Some(t) = next_arrival {
            if t > engine.now() {
                break;
            }
            let req = factory.make(t);
            metrics.record_admission();
            admit(
                &mut engine,
                catalog,
                timing,
                &stripe,
                &dead_cells,
                &mut joins,
                &mut sub_of,
                req,
            )?;
            let gap = factory
                .next_interarrival()
                .ok_or(SimError::ClosedArrivalStream)?;
            next_arrival = Some(t + gap);
        }
        match next_arrival {
            // An arrival inside the run: step up to it, then deliver.
            // `step_until` parks rather than dispatching an operation
            // that would end past `t`, so it may return with the clock
            // short of `t`; delivering afterwards is correct either way
            // because `submit_at` stamps the request at `t` (or at the
            // clock, if a dispatched operation overshot it).
            Some(t) if t < engine.horizon() => {
                engine.step_until(t)?;
                if !engine.is_done() {
                    let req = factory.make(t);
                    metrics.record_admission();
                    admit(
                        &mut engine,
                        catalog,
                        timing,
                        &stripe,
                        &dead_cells,
                        &mut joins,
                        &mut sub_of,
                        req,
                    )?;
                    let gap = factory
                        .next_interarrival()
                        .ok_or(SimError::ClosedArrivalStream)?;
                    next_arrival = Some(t + gap);
                }
            }
            // Closed queue, or the remaining open arrivals fall past the
            // horizon: let the engine run down what is still in flight
            // (`step` is not bounded by a park point, so the final
            // operation past the horizon finishes the run — `step_until`
            // alone never would).
            _ => {
                engine.step()?;
            }
        }
        for ev in engine.drain_events() {
            let (sub, at, ok) = match ev {
                EngineEvent::Completed { req, at } => (req, at, true),
                EngineEvent::Failed { req, at } => (req, at, false),
            };
            let Some(lid) = sub_of.remove(&sub) else {
                continue; // sub of an already-doomed logical read
            };
            let Some(join) = joins.get_mut(&lid) else {
                continue;
            };
            if ok {
                join.remaining -= 1;
                if join.remaining > 0 || join.doomed {
                    if join.remaining == 0 {
                        joins.remove(&lid);
                    }
                    continue;
                }
                let logical = joins.remove(&lid).map(|j| j.logical);
                if let Some(logical) = logical {
                    metrics.record_completion(logical.arrival, at, logical_bytes);
                }
                if closed {
                    let req = factory.make(at);
                    metrics.record_admission();
                    admit(
                        &mut engine,
                        catalog,
                        timing,
                        &stripe,
                        &dead_cells,
                        &mut joins,
                        &mut sub_of,
                        req,
                    )?;
                }
                continue;
            }
            // A sub failed: its cell is permanently gone (the engine
            // only fails a request once every copy is lost forever).
            // The event carries the request id, not the cell, so probe
            // the injector for every cell of this stripe — the failed
            // one is found by construction, its dead siblings as a
            // bonus. Then retarget onto the cheapest surviving unused
            // cell, or fail the logical read when fewer than `k` cells
            // of the stripe are left.
            mark_dead_cells(catalog, &stripe, join, &mut dead_cells, &engine);
            if join.doomed {
                join.remaining -= 1;
                if join.remaining == 0 {
                    joins.remove(&lid);
                }
                continue;
            }
            let replacement =
                replacement_cell(catalog, timing, &stripe, join, &dead_cells, &engine);
            match replacement {
                Some(cell) => {
                    join.used.push(cell);
                    failovers += 1;
                    let sub = engine.submit_at(BlockId(cell), at)?;
                    sub_of.insert(sub, lid);
                }
                None => {
                    join.doomed = true;
                    join.remaining -= 1;
                    ec_unavailable += 1;
                    metrics.record_permanent_failure();
                    let done = join.remaining == 0;
                    if done {
                        joins.remove(&lid);
                    }
                    if closed {
                        let req = factory.make(at);
                        metrics.record_admission();
                        admit(
                            &mut engine,
                            catalog,
                            timing,
                            &stripe,
                            &dead_cells,
                            &mut joins,
                            &mut sub_of,
                            req,
                        )?;
                    }
                }
            }
        }
    }

    // Assemble the report: request-level fields from the logical
    // collector, device-level fields from the engine. The window mirrors
    // the engine's own convention (up to where a cut-short run got).
    let saturated = engine.saturated();
    let now = engine.now();
    let end = SimTime::ZERO + cfg.duration;
    let engine_report = engine.finish();
    let window = if saturated || now < end {
        if now > warmup_end {
            now.duration_since(warmup_end)
        } else {
            tapesim_model::Micros::from_micros(1)
        }
    } else {
        cfg.duration - cfg.warmup
    };
    let unserved = joins.values().filter(|j| !j.doomed).count() as u64;
    metrics.set_fault_accounting(0, Vec::new(), tapesim_model::Micros::ZERO, unserved);
    let logical = metrics.report(window, saturated);
    Ok(MetricsReport {
        completed: logical.completed,
        throughput_kb_per_s: logical.throughput_kb_per_s,
        requests_per_min: logical.requests_per_min,
        mean_delay_s: logical.mean_delay_s,
        median_delay_s: logical.median_delay_s,
        p95_delay_s: logical.p95_delay_s,
        p99_delay_s: logical.p99_delay_s,
        max_delay_s: logical.max_delay_s,
        delay_samples_us: logical.delay_samples_us,
        admitted: logical.admitted,
        served: logical.served,
        failed_requests: logical.failed_requests,
        unserved,
        replica_failovers: failovers,
        ec_unavailable,
        ..engine_report
    })
}

/// Expands one logical request into `k` subs and registers the join.
#[expect(
    clippy::too_many_arguments,
    reason = "admission reads the stripe layout and updates the join tables piecewise"
)]
fn admit(
    engine: &mut SteppedMultiDrive<'_>,
    catalog: &Catalog,
    timing: &TimingModel,
    stripe: &tapesim_layout::StripeInfo,
    dead_cells: &BTreeSet<u32>,
    joins: &mut BTreeMap<u64, Join>,
    sub_of: &mut BTreeMap<RequestId, u64>,
    req: Request,
) -> Result<(), SimError> {
    let mounted = mounted_tapes(engine);
    // Tapes of this stripe's known-dead cells: within one stripe, cells
    // sit on distinct tapes (hot) or one tape (cold), so per-cell and
    // per-tape deadness coincide for ranking purposes.
    let (first, count) = stripe.cells_of(req.block.0);
    let mut lost: Vec<TapeId> = (first..first + count)
        .filter(|c| dead_cells.contains(c))
        // Striped catalogs store exactly one address per shard cell.
        .map(|c| catalog.replicas(BlockId(c))[0].tape)
        .collect();
    lost.sort_unstable();
    lost.dedup();
    let cells = tapesim_sched::choose_shards(timing, catalog, req.block.0, &mounted, &lost);
    let lid = req.id.0;
    let mut join = Join {
        logical: req,
        remaining: 0,
        used: Vec::with_capacity(cells.len()),
        doomed: false,
    };
    for cell in cells {
        let sub = engine.submit_at(BlockId(cell), req.arrival)?;
        sub_of.insert(sub, lid);
        join.used.push(cell);
        join.remaining += 1;
    }
    joins.insert(lid, join);
    Ok(())
}

/// The tapes currently in drives, sorted for binary search.
fn mounted_tapes(engine: &SteppedMultiDrive<'_>) -> Vec<TapeId> {
    let mut v: Vec<TapeId> = (0..engine.drive_count())
        .filter_map(|d| engine.drive_mounted(d))
        .collect();
    v.sort_unstable();
    v
}

/// Records every cell of `join`'s stripe whose single copy the engine's
/// injector has permanently lost. Called on a sub failure, so at least
/// the failed cell is caught; catching siblings early just saves futile
/// resubmissions.
fn mark_dead_cells(
    catalog: &Catalog,
    stripe: &tapesim_layout::StripeInfo,
    join: &Join,
    dead_cells: &mut BTreeSet<u32>,
    engine: &SteppedMultiDrive<'_>,
) {
    let (first, count) = stripe.cells_of(join.logical.block.0);
    for cell in first..first + count {
        // Striped catalogs store exactly one address per shard cell.
        if engine.copy_lost_forever(catalog.replicas(BlockId(cell))[0]) {
            dead_cells.insert(cell);
        }
    }
}

/// The cheapest surviving cell of the stripe not yet assigned to this
/// join, if any (hot stripes only — cold stripes have exactly `k` cells,
/// all assigned at admission).
fn replacement_cell(
    catalog: &Catalog,
    timing: &TimingModel,
    stripe: &tapesim_layout::StripeInfo,
    join: &Join,
    dead_cells: &BTreeSet<u32>,
    engine: &SteppedMultiDrive<'_>,
) -> Option<u32> {
    let (first, count) = stripe.cells_of(join.logical.block.0);
    let mounted = mounted_tapes(engine);
    (first..first + count)
        .filter(|c| !join.used.contains(c) && !dead_cells.contains(c))
        .map(|c| {
            // Striped catalogs store exactly one address per shard cell.
            let addr = catalog.replicas(BlockId(c))[0];
            (
                tapesim_sched::shard_pick_cost(timing, catalog, &mounted, addr),
                c,
            )
        })
        .min()
        .map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::{build_placement, LayoutKind, PlacementConfig, PlacementScheme};
    use tapesim_model::{BlockSize, JukeboxGeometry, Micros};
    use tapesim_sched::{make_scheduler, AlgorithmId};

    fn ec_catalog(k: u8, m: u8) -> Catalog {
        build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig {
                layout: LayoutKind::Horizontal,
                ph_percent: 10.0,
                scheme: PlacementScheme::Erasure { k, m },
                sp: 0.0,
            },
        )
        .unwrap()
        .catalog
    }

    fn quick_cfg() -> SimConfig {
        SimConfig {
            duration: Micros::from_secs(100_000),
            warmup: Micros::from_secs(10_000),
            max_pending: 5_000,
        }
    }

    fn run_ec(
        catalog: &Catalog,
        process: ArrivalProcess,
        faults: &FaultConfig,
        seed: u64,
    ) -> MetricsReport {
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let sampler = BlockSampler::from_catalog(catalog, 40.0);
        run_erasure_simulation(
            catalog,
            &TimingModel::paper_default(),
            sched.as_mut(),
            sampler,
            process,
            &quick_cfg(),
            faults,
            seed,
            1,
        )
        .unwrap()
    }

    #[test]
    fn closed_queue_erasure_run_reads_k_shards_per_logical_read() {
        let catalog = ec_catalog(2, 1);
        let r = run_ec(
            &catalog,
            ArrivalProcess::Closed { queue_length: 20 },
            &FaultConfig::NONE,
            7,
        );
        assert!(r.completed > 50, "completed {}", r.completed);
        // Every logical read is k = 2 physical shard reads. The exact 2x
        // ratio is softened by the warmup boundary (a logical completion
        // counted in-window may have read a shard before the window
        // opened) and by duplicate-request merging (two logical reads of
        // the same block share one physical read per cell), so assert a
        // ratio well above 1 rather than exactly 2.
        assert!(
            r.physical_reads * 2 >= r.completed * 3,
            "physical {} vs completed {}",
            r.physical_reads,
            r.completed
        );
        assert!(
            r.physical_reads <= r.served * 2,
            "physical {} vs served {}",
            r.physical_reads,
            r.served
        );
        assert_eq!(r.ec_unavailable, 0);
        assert_eq!(r.replica_failovers, 0);
        assert_eq!(r.admitted, r.served + r.failed_requests + r.unserved);
        // Logical bytes: throughput reflects 16 MB per completion even
        // though each physical read moves an 8 MB shard.
        assert!(r.throughput_kb_per_s > 0.0);
    }

    #[test]
    fn open_arrivals_drive_the_erasure_engine() {
        let catalog = ec_catalog(2, 2);
        let r = run_ec(
            &catalog,
            ArrivalProcess::OpenPoisson {
                mean_interarrival: Micros::from_secs(400),
            },
            &FaultConfig::NONE,
            11,
        );
        assert!(r.completed > 20, "completed {}", r.completed);
        assert_eq!(r.admitted, r.served + r.failed_requests + r.unserved);
        assert_eq!(r.ec_unavailable, 0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let catalog = ec_catalog(2, 1);
        let p = ArrivalProcess::Closed { queue_length: 10 };
        let a = run_ec(&catalog, p, &FaultConfig::NONE, 3);
        let b = run_ec(&catalog, p, &FaultConfig::NONE, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn degraded_mode_fails_over_to_parity_shards() {
        let catalog = ec_catalog(2, 2);
        // Spontaneous permanent tape failures: lost shards force
        // retargets onto parity cells, and heavily damaged stripes
        // become typed unavailabilities rather than hangs.
        let faults = FaultConfig {
            tape_mtbf: Some(Micros::from_secs(40_000)),
            tape_mttr: None,
            ..FaultConfig::NONE
        };
        let r = run_ec(
            &catalog,
            ArrivalProcess::Closed { queue_length: 20 },
            &faults,
            5,
        );
        assert!(r.completed > 10, "completed {}", r.completed);
        assert_eq!(r.admitted, r.served + r.failed_requests + r.unserved);
        assert_eq!(r.ec_unavailable, r.failed_requests);
    }

    #[test]
    fn generated_arrivals_refuse_striped_catalogs() {
        let catalog = ec_catalog(2, 1);
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let sampler = BlockSampler::from_catalog(&catalog, 40.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 10 }, 1);
        let err = crate::multidrive::run_multi_drive(
            &catalog,
            &TimingModel::paper_default(),
            sched.as_mut(),
            &mut factory,
            &quick_cfg(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn erasure_driver_refuses_plain_catalogs() {
        let catalog = build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig {
                layout: LayoutKind::Horizontal,
                ph_percent: 10.0,
                scheme: PlacementScheme::Replication { nr: 1 },
                sp: 0.0,
            },
        )
        .unwrap()
        .catalog;
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let sampler = BlockSampler::from_catalog(&catalog, 40.0);
        let err = run_erasure_simulation(
            &catalog,
            &TimingModel::paper_default(),
            sched.as_mut(),
            sampler,
            ArrivalProcess::Closed { queue_length: 10 },
            &quick_cfg(),
            &FaultConfig::NONE,
            1,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }
}
