//! Multi-seed simulation runner.
//!
//! The paper's figures average numerous simulation runs; this module runs
//! one `(catalog, algorithm, workload)` specification under several RNG
//! seeds — in parallel across OS threads — and averages the reports.

use tapesim_layout::Catalog;
use tapesim_model::{substream, FaultConfig, TimingModel};
use tapesim_sched::{make_scheduler, AlgorithmId};
use tapesim_workload::{ArrivalProcess, BlockSampler, RequestFactory};

use crate::error::SimError;
use crate::metrics::MetricsReport;
use crate::multidrive::{run_multi_drive_with_faults, SimConfig};

/// Substream offset deriving a run's fault seed from its workload seed
/// (offsets below `0x100` are reserved by `tapesim_model::faults`).
const FAULT_SEED_STREAM: u64 = 0x200;

/// A complete description of one simulated experiment point.
#[derive(Clone)]
pub struct RunSpec<'a> {
    /// The data layout under test.
    pub catalog: &'a Catalog,
    /// The timing model (paper default: EXB-8505XL / EXB-210).
    pub timing: &'a TimingModel,
    /// The scheduling algorithm.
    pub algorithm: AlgorithmId,
    /// Closed or open arrivals, with their intensity.
    pub process: ArrivalProcess,
    /// Percent of requests directed to hot data (`RH`).
    pub rh_percent: f64,
    /// Probability of continuing a sequential run (0 = the paper's
    /// independent stream; see the clustered-workload extension).
    pub cluster_run_p: f64,
    /// Number of tape drives (1 = the paper's configuration; more is the
    /// multi-drive extension). Zero is rejected with
    /// [`SimError::InvalidConfig`].
    pub drives: u16,
    /// Horizon, warmup, and overload bound.
    pub config: SimConfig,
    /// Fault model ([`FaultConfig::NONE`] reproduces the paper's
    /// fault-free runs exactly). The fault streams are seeded from the
    /// run's workload seed, so one seed reproduces the whole run.
    pub faults: FaultConfig,
}

/// Runs the specification once with the given seed.
pub fn run_one(spec: &RunSpec<'_>, seed: u64) -> Result<MetricsReport, SimError> {
    let sampler = BlockSampler::from_catalog(spec.catalog, spec.rh_percent);
    let mut factory =
        RequestFactory::new_clustered(sampler, spec.process, spec.cluster_run_p, seed);
    let mut scheduler = make_scheduler(spec.algorithm);
    run_multi_drive_with_faults(
        spec.catalog,
        spec.timing,
        scheduler.as_mut(),
        &mut factory,
        &spec.config,
        spec.drives,
        &spec.faults,
        substream(seed, FAULT_SEED_STREAM),
    )
}

/// Runs the specification under each seed (in parallel) and returns the
/// averaged report plus the per-seed reports, in seed order.
#[expect(
    clippy::disallowed_methods,
    reason = "deterministic fork-join: one scoped thread per seed, results collected in seed order"
)]
pub fn run_seeds(
    spec: &RunSpec<'_>,
    seeds: &[u64],
) -> Result<(MetricsReport, Vec<MetricsReport>), SimError> {
    if seeds.is_empty() {
        return Err(SimError::InvalidConfig("need at least one seed"));
    }
    let reports: Vec<MetricsReport> = if let [seed] = seeds {
        vec![run_one(spec, *seed)?]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| scope.spawn(move || run_one(spec, seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(worker_panic_error)?)
                .collect::<Result<Vec<_>, SimError>>()
        })?
    };
    Ok((MetricsReport::mean_of(&reports), reports))
}

/// Converts a thread-join panic payload into a [`SimError`], preserving
/// the panic message when it was a string.
fn worker_panic_error(payload: Box<dyn std::any::Any + Send>) -> SimError {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
    };
    SimError::WorkerPanicked(msg)
}

/// The default seed set used by the experiment harnesses.
pub fn default_seeds(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 0x1CDE_1999_u64 + i * 7919).collect()
}

/// Paired comparison with common random numbers: every algorithm replays
/// the *same* recorded block trace, so metric differences are caused by
/// scheduling decisions alone, not sampling noise. Returns one report per
/// algorithm, in input order.
pub fn run_paired(
    catalog: &Catalog,
    timing: &TimingModel,
    algorithms: &[AlgorithmId],
    trace: Vec<tapesim_layout::BlockId>,
    process: ArrivalProcess,
    config: &SimConfig,
    seed: u64,
) -> Result<Vec<MetricsReport>, SimError> {
    algorithms
        .iter()
        .map(|&alg| {
            let mut factory = RequestFactory::from_trace(trace.clone(), process, seed);
            let mut scheduler = make_scheduler(alg);
            run_multi_drive_with_faults(
                catalog,
                timing,
                scheduler.as_mut(),
                &mut factory,
                config,
                1,
                &FaultConfig::NONE,
                0,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::{build_placement, PlacementConfig};
    use tapesim_model::{BlockSize, JukeboxGeometry};
    use tapesim_sched::TapeSelectPolicy;
    use tapesim_workload::generate_trace;

    fn catalog() -> tapesim_layout::PlacedCatalog {
        build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig::paper_baseline(),
        )
        .unwrap()
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn run_seeds_averages_and_preserves_order() {
        let placed = catalog();
        let timing = TimingModel::paper_default();
        let spec = RunSpec {
            catalog: &placed.catalog,
            timing: &timing,
            algorithm: AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            process: ArrivalProcess::Closed { queue_length: 40 },
            rh_percent: 40.0,
            cluster_run_p: 0.0,
            drives: 1,
            config: SimConfig::quick(),
            faults: FaultConfig::NONE,
        };
        let seeds = default_seeds(3);
        let (mean, per_seed) = run_seeds(&spec, &seeds).unwrap();
        assert_eq!(per_seed.len(), 3);
        // Averaging really averaged.
        let manual: f64 = per_seed.iter().map(|r| r.throughput_kb_per_s).sum::<f64>() / 3.0;
        assert!((mean.throughput_kb_per_s - manual).abs() < 1e-9);
        // Per-seed order is deterministic: rerunning matches.
        let (_, again) = run_seeds(&spec, &seeds).unwrap();
        assert_eq!(per_seed, again);
    }

    #[test]
    fn empty_seed_set_is_an_error() {
        let placed = catalog();
        let timing = TimingModel::paper_default();
        let spec = RunSpec {
            catalog: &placed.catalog,
            timing: &timing,
            algorithm: AlgorithmId::Fifo,
            process: ArrivalProcess::Closed { queue_length: 10 },
            rh_percent: 40.0,
            cluster_run_p: 0.0,
            drives: 1,
            config: SimConfig::quick(),
            faults: FaultConfig::NONE,
        };
        assert!(matches!(
            run_seeds(&spec, &[]),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_drives_is_an_error() {
        let placed = catalog();
        let timing = TimingModel::paper_default();
        let spec = RunSpec {
            catalog: &placed.catalog,
            timing: &timing,
            algorithm: AlgorithmId::Fifo,
            process: ArrivalProcess::Closed { queue_length: 10 },
            rh_percent: 40.0,
            cluster_run_p: 0.0,
            drives: 0,
            config: SimConfig::quick(),
            faults: FaultConfig::NONE,
        };
        assert!(matches!(run_one(&spec, 1), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn multi_drive_specs_route_to_the_multidrive_engine() {
        let placed = catalog();
        let timing = TimingModel::paper_default();
        let mk = |drives| RunSpec {
            catalog: &placed.catalog,
            timing: &timing,
            algorithm: AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            process: ArrivalProcess::Closed { queue_length: 120 },
            rh_percent: 40.0,
            cluster_run_p: 0.0,
            drives,
            config: SimConfig::quick(),
            faults: FaultConfig::NONE,
        };
        let one = run_one(&mk(1), 5).unwrap();
        let three = run_one(&mk(3), 5).unwrap();
        assert!(three.throughput_kb_per_s > 2.0 * one.throughput_kb_per_s);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn paired_runs_share_the_exact_trace() {
        let placed = catalog();
        let timing = TimingModel::paper_default();
        let sampler = tapesim_workload::BlockSampler::from_catalog(&placed.catalog, 40.0);
        let trace = generate_trace(&sampler, 10_000, 77);
        let algs = [
            AlgorithmId::Static(TapeSelectPolicy::MaxBandwidth),
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
            AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth), // duplicate
        ];
        let reports = run_paired(
            &placed.catalog,
            &timing,
            &algs,
            trace,
            ArrivalProcess::Closed { queue_length: 60 },
            &SimConfig::quick(),
            1,
        )
        .unwrap();
        assert_eq!(reports.len(), 3);
        // Identical algorithm + identical trace = identical report.
        assert_eq!(reports[1], reports[2]);
        // Different algorithms still differ.
        assert_ne!(reports[0], reports[1]);
        // And on the same trace, dynamic cannot lose to static.
        assert!(reports[1].throughput_kb_per_s >= reports[0].throughput_kb_per_s * 0.99);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn faulty_specs_report_availability_metrics() {
        let placed = catalog();
        let timing = TimingModel::paper_default();
        let spec = RunSpec {
            catalog: &placed.catalog,
            timing: &timing,
            algorithm: AlgorithmId::paper_recommended(),
            process: ArrivalProcess::Closed { queue_length: 40 },
            rh_percent: 40.0,
            cluster_run_p: 0.0,
            drives: 1,
            config: SimConfig::quick(),
            faults: FaultConfig {
                tape_mtbf: Some(tapesim_model::Micros::from_secs(150_000)),
                tape_mttr: Some(tapesim_model::Micros::from_secs(10_000)),
                ..FaultConfig::NONE
            },
        };
        let r = run_one(&spec, 3).unwrap();
        assert!(r.degraded_frac > 0.0);
        assert_eq!(r.admitted, r.served + r.failed_requests + r.unserved);
    }
}
