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
use tapesim_bench::{cached_csv, write_csv, FigureCache, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    let mut cache = FigureCache::from_opts(&opts);
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
    let (csv, _) = cached_csv(&mut cache, "ext_clustered", || {
        let mut t = Table::new(["run_p", "mean run", "algorithm", "KB/s", "delay s"]);
        for run_p in [0.0, 0.5, 0.8, 0.95] {
            let mut ranking = Vec::new();
            for alg in algorithms {
                let mut reports = Vec::new();
                for seed in opts.scale.seeds() {
                    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
                    let mut factory = RequestFactory::new_clustered(
                        sampler,
                        ArrivalProcess::Closed { queue_length: 60 },
                        run_p,
                        seed,
                    );
                    let mut sched = make_scheduler(alg);
                    reports.push(
                        run_multi_drive(
                            &placed.catalog,
                            &timing,
                            sched.as_mut(),
                            &mut factory,
                            &sim,
                            1,
                        )
                        .expect("clustered config is valid"),
                    );
                }
                let r = MetricsReport::mean_of(&reports);
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
    });
    write_csv(&opts, "ext_clustered", &csv);
    println!("(clustering raises absolute throughput; the paper's algorithm ranking persists)");
}
