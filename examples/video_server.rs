//! Video-on-demand archive: a tape jukebox holding a deep library of
//! video segments, with sporadic viewer requests (open queuing).
//!
//! A small set of popular titles receives most of the traffic — a classic
//! hot/cold skew. The example asks the paper's practical question: the
//! jukebox is 75% full, so should we fill the spare capacity with
//! replicas of the popular segments ("replication for free", Section
//! 4.8), and what does it do to viewer startup latency?
//!
//! Run with: `cargo run --release -p tapesim-examples --bin video_server`
#![expect(
    clippy::expect_used,
    reason = "an example stops with a message on an infeasible configuration"
)]

use tapesim::prelude::*;
use tapesim_examples::summarize;

fn main() {
    let geometry = JukeboxGeometry::PAPER_DEFAULT;
    let block = BlockSize::PAPER_DEFAULT; // 16 MB video segments
    let timing = TimingModel::paper_default();
    // 10% of titles are popular and draw 70% of the requests.
    let ph = 10.0;
    let rh = 70.0;
    // Viewers arrive sporadically: one request every ~75 s on average.
    let arrivals = ArrivalProcess::OpenPoisson {
        mean_interarrival: Micros::from_secs(75),
    };
    let sim = SimConfig::default();

    println!("Video archive: 10 tapes x 7 GB, 75% full, 16 MB segments");
    println!("Popularity skew: {ph}% of titles get {rh}% of requests");
    println!("Viewers: Poisson arrivals, one request per 75 s on average\n");

    let mut results = Vec::new();
    for (label, spare_use) in [
        ("spare capacity left empty", SpareUse::LeaveEmpty),
        ("spare filled with replicas", SpareUse::FillWithReplicas),
    ] {
        let placed = build_spare_layout(
            geometry,
            block,
            SpareConfig {
                ph_percent: ph,
                fill_fraction: 0.75,
                spare_use,
            },
        )
        .expect("75% fill is feasible");
        let spec = RunSpec {
            catalog: &placed.catalog,
            timing: &timing,
            algorithm: AlgorithmId::paper_recommended(),
            process: arrivals,
            rh_percent: rh,
            cluster_run_p: 0.0,
            drives: 1,
            config: sim,
            faults: tapesim::model::FaultConfig::NONE,
        };
        let (report, _) = tapesim::sim::run_seeds(&spec, &tapesim::sim::default_seeds(3))
            .expect("video-server config is valid");
        println!(
            "{label}: {} segments stored, {} copies on tape (E = {:.2})",
            placed.catalog.num_blocks(),
            placed.catalog.total_copies(),
            placed.expansion
        );
        summarize("  viewer experience", &report);
        results.push(report);
    }

    let (empty, filled) = (&results[0], &results[1]);
    println!(
        "\nfilling the spare capacity changes mean startup latency by {:+.1}% \
         and p95 by {:+.1}% — at zero additional hardware cost",
        (filled.mean_delay_s / empty.mean_delay_s - 1.0) * 100.0,
        (filled.p95_delay_s / empty.p95_delay_s - 1.0) * 100.0,
    );
    println!(
        "(the benefit depends on the fill level: below ~60% full, packing the\n\
         library onto fewer tapes wins instead — fewer switches beat replicas)"
    );
}
