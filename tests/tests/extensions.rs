//! Integration tests for the beyond-the-paper extensions, driven through
//! the public `tapesim` API.

use tapesim::prelude::*;
use tapesim::sim::{run_with_writeback, FlushPolicy, WriteBackConfig};
use tapesim::workload::{generate_trace, ZipfSampler};
use tapesim::Scale;

fn quick(cfg: ExperimentConfig) -> MetricsReport {
    run_experiment(&ExperimentConfig {
        scale: Scale::Quick,
        ..cfg
    })
    .expect("feasible")
    .report
}

#[test]
fn multi_drive_through_experiment_config() {
    let one = quick(ExperimentConfig {
        process: ArrivalProcess::Closed { queue_length: 120 },
        ..ExperimentConfig::paper_baseline()
    });
    let three = quick(ExperimentConfig {
        drives: 3,
        process: ArrivalProcess::Closed { queue_length: 120 },
        ..ExperimentConfig::paper_baseline()
    });
    assert!(
        three.throughput_kb_per_s > 2.0 * one.throughput_kb_per_s,
        "3 drives {:.1} vs 1 drive {:.1}",
        three.throughput_kb_per_s,
        one.throughput_kb_per_s
    );
    assert!(three.mean_delay_s < one.mean_delay_s);
}

#[test]
fn clustering_through_experiment_config() {
    let independent = quick(ExperimentConfig::paper_baseline());
    let clustered = quick(ExperimentConfig {
        cluster_run_p: 0.95,
        ..ExperimentConfig::paper_baseline()
    });
    // Long sequential runs turn locates into streaming reads.
    assert!(
        clustered.throughput_kb_per_s > independent.throughput_kb_per_s,
        "clustered {:.1} vs independent {:.1}",
        clustered.throughput_kb_per_s,
        independent.throughput_kb_per_s
    );
}

#[test]
fn zipf_stream_served_end_to_end() {
    let placed = ExperimentConfig::paper_baseline()
        .build_catalog()
        .expect("feasible");
    let timing = TimingModel::paper_default();
    let sampler = ZipfSampler::new(placed.catalog.num_blocks(), 1.0);
    let mut factory =
        RequestFactory::new_zipf(sampler, ArrivalProcess::Closed { queue_length: 60 }, 3);
    let mut sched = make_scheduler(AlgorithmId::paper_recommended());
    let r = run_multi_drive(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &SimConfig::quick(),
        1,
    )
    .expect("zipf run is valid");
    assert!(r.completed > 100);
    assert!(!r.saturated);
}

#[test]
fn trace_replay_is_bit_identical() {
    let placed = ExperimentConfig::paper_baseline()
        .build_catalog()
        .expect("feasible");
    let timing = TimingModel::paper_default();
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let trace = generate_trace(&sampler, 5_000, 11);
    let run = || {
        let mut factory = RequestFactory::from_trace(
            trace.clone(),
            ArrivalProcess::Closed { queue_length: 40 },
            0,
        );
        let mut sched = make_scheduler(AlgorithmId::Dynamic(TapeSelectPolicy::MaxRequests));
        run_multi_drive(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            1,
        )
        .expect("trace replay is valid")
    };
    assert_eq!(run(), run());
}

#[test]
fn writeback_policies_trade_freshness_for_latency() {
    let placed = ExperimentConfig::paper_baseline()
        .build_catalog()
        .expect("feasible");
    let timing = TimingModel::paper_default();
    let run = |policy| {
        let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
        let mut factory = RequestFactory::new(
            sampler,
            ArrivalProcess::OpenPoisson {
                mean_interarrival: Micros::from_secs(300),
            },
            7,
        );
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        run_with_writeback(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            &WriteBackConfig {
                write_mean_interarrival: Micros::from_secs(200),
                flush_batch: 8,
                piggyback_min: 4,
                policy,
            },
            42,
        )
        .expect("write-back run is valid")
    };
    let idle = run(FlushPolicy::IdleOnly);
    let piggy = run(FlushPolicy::Piggyback);
    assert!(idle.deltas_flushed > 50);
    assert!(piggy.deltas_flushed > 50);
    assert!(
        piggy.mean_delta_age_s < idle.mean_delta_age_s,
        "piggyback {:.0}s vs idle {:.0}s",
        piggy.mean_delta_age_s,
        idle.mean_delta_age_s
    );
}

#[test]
fn experiment_result_reports_confidence_intervals() {
    let res = run_experiment(&ExperimentConfig::paper_baseline()).expect("feasible");
    // Default scale runs 3 seeds, so a CI exists and is modest relative
    // to the mean (the simulator is long-run stable).
    assert_eq!(res.per_seed.len(), 3);
    assert!(res.throughput_ci95 > 0.0);
    assert!(
        res.throughput_ci95 < 0.1 * res.report.throughput_kb_per_s,
        "CI {:.2} too wide for mean {:.1}",
        res.throughput_ci95,
        res.report.throughput_kb_per_s
    );
    assert!(res.delay_ci95 >= 0.0);
}

#[test]
fn faulty_experiments_are_reproducible_from_one_seed() {
    // The entire run — workload, fault schedule, repairs, failovers — is
    // a pure function of the top-level seed: every stochastic component
    // draws from its own substream of it. Two identical specs must agree
    // bit for bit, across both engines.
    use tapesim::model::Micros;
    use tapesim::sim::{run_seeds, RunSpec};

    let g = JukeboxGeometry::PAPER_DEFAULT;
    let placed = tapesim::layout::build_placement(
        g,
        BlockSize::PAPER_DEFAULT,
        tapesim::layout::PlacementConfig::paper_full_replication(g),
    )
    .expect("feasible");
    let timing = TimingModel::paper_default();
    let faults = FaultConfig {
        media_error_per_read: 0.02,
        media_retries: 1,
        load_failure_p: 0.01,
        load_retries: 2,
        tape_mtbf: Some(Micros::from_secs(200_000)),
        tape_mttr: Some(Micros::from_secs(15_000)),
        drive_mtbf: Some(Micros::from_secs(300_000)),
        drive_mttr: Micros::from_secs(5_000),
        copy_heal_mttr: None,
    };
    for drives in [1u16, 2] {
        let spec = RunSpec {
            catalog: &placed.catalog,
            timing: &timing,
            algorithm: AlgorithmId::paper_recommended(),
            process: ArrivalProcess::Closed { queue_length: 60 },
            rh_percent: 40.0,
            cluster_run_p: 0.0,
            drives,
            config: SimConfig::quick(),
            faults,
        };
        let seeds = [3u64, 17];
        let (mean_a, per_a) = run_seeds(&spec, &seeds).expect("faulty spec is valid");
        let (mean_b, per_b) = run_seeds(&spec, &seeds).expect("faulty spec is valid");
        assert_eq!(
            per_a, per_b,
            "per-seed reports diverged with {drives} drives"
        );
        assert_eq!(mean_a, mean_b);
        // The fault model actually did something in these runs.
        assert!(
            mean_a.degraded_frac > 0.0 || mean_a.media_errors > 0,
            "fault config was inert with {drives} drives"
        );
        // Different seeds still produce different runs.
        assert_ne!(per_a[0], per_a[1], "seeds collapsed with {drives} drives");
    }
}
