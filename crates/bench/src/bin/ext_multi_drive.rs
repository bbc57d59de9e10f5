//! Extension experiment: multi-drive jukeboxes (the paper's stated
//! future work). Sweeps the number of drives sharing one robot arm and
//! reports throughput/delay scaling, with and without replication.
#![expect(
    clippy::expect_used,
    reason = "a binary stops with a message on an invalid static configuration"
)]

use tapesim::prelude::*;
use tapesim::sim::run_multi_drive;
use tapesim_bench::{cached_csv, write_csv, FigureCache, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    let mut cache = FigureCache::from_opts(&opts);
    let timing = TimingModel::paper_default();
    let sim = opts.scale.sim_config();

    println!("Multi-drive extension: closed queue 120, PH-10 RH-40, envelope max-bandwidth\n");
    let (csv, _) = cached_csv(&mut cache, "ext_multi_drive", || {
        let mut t = Table::new(["layout", "drives", "KB/s", "speedup", "delay s", "switches"]);
        for (label, cfg) in [
            ("no replication", PlacementConfig::paper_baseline()),
            (
                "full replication",
                PlacementConfig::paper_full_replication(JukeboxGeometry::PAPER_DEFAULT),
            ),
        ] {
            let placed = build_placement(
                JukeboxGeometry::PAPER_DEFAULT,
                BlockSize::PAPER_DEFAULT,
                cfg,
            )
            .expect("feasible");
            let mut base = None;
            for drives in [1u16, 2, 3, 4] {
                let mut reports = Vec::new();
                for seed in opts.scale.seeds() {
                    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
                    let mut factory = RequestFactory::new(
                        sampler,
                        ArrivalProcess::Closed { queue_length: 120 },
                        seed,
                    );
                    let mut sched = make_scheduler(AlgorithmId::paper_recommended());
                    reports.push(
                        run_multi_drive(
                            &placed.catalog,
                            &timing,
                            sched.as_mut(),
                            &mut factory,
                            &sim,
                            drives,
                        )
                        .expect("multi-drive config is valid"),
                    );
                }
                let r = MetricsReport::mean_of(&reports);
                let b = *base.get_or_insert(r.throughput_kb_per_s);
                t.push([
                    label.to_string(),
                    drives.to_string(),
                    fnum(r.throughput_kb_per_s, 1),
                    format!("{:.2}x", r.throughput_kb_per_s / b),
                    fnum(r.mean_delay_s, 0),
                    r.tape_switches.to_string(),
                ]);
            }
        }
        println!("{}", t.to_aligned());
        t.to_csv()
    });
    write_csv(&opts, "ext_multi_drive", &csv);
    println!("(speedup is sub-linear: drives contend for the shared robot arm,\n and concurrent sweeps steal each other's batching opportunities)");
}
