//! Quickstart: build a tape jukebox, run the paper's baseline workload,
//! and compare the trivial FIFO scheduler with the paper's recommended
//! max-bandwidth envelope algorithm.
//!
//! Run with: `cargo run --release -p tapesim-examples --bin quickstart`
#![expect(
    clippy::expect_used,
    reason = "an example stops with a message on an infeasible configuration"
)]

use tapesim::prelude::*;
use tapesim::Scale;
use tapesim_examples::summarize;

fn main() {
    // A jukebox modeled on the paper's testbed: an Exabyte EXB-210
    // library (10 tapes x 7 GB) with an EXB-8505XL helical-scan drive,
    // 16 MB logical blocks.
    println!("Jukebox: 10 tapes x 7 GB, Exabyte EXB-8505XL drive, 16 MB blocks");
    println!("Workload: closed queue of 60 readers; 10% of data hot, 40% of requests hot\n");

    // 1. The paper's moderate-skew baseline, no replication.
    let baseline = ExperimentConfig {
        scale: Scale::Default,
        ..ExperimentConfig::paper_baseline()
    };

    // 2. Same workload under FIFO — the "why scheduling matters" baseline.
    let fifo = ExperimentConfig {
        algorithm: AlgorithmId::Fifo,
        ..baseline.clone()
    };

    // 3. The paper's full recipe: vertical hot tape, replicas of hot data
    //    at the ends of the other tapes, max-bandwidth envelope schedule.
    let replicated = ExperimentConfig {
        scale: Scale::Default,
        ..ExperimentConfig::paper_full_replication()
    };

    let r_fifo = run_experiment(&fifo).expect("fifo config is feasible");
    let r_base = run_experiment(&baseline).expect("baseline config is feasible");
    let r_repl = run_experiment(&replicated).expect("replicated config is feasible");

    summarize("FIFO, no replication", &r_fifo.report);
    summarize("dynamic max-bandwidth, no repl.", &r_base.report);
    summarize("envelope max-bw, full replication", &r_repl.report);

    println!(
        "\nscheduling alone: {:.1}x the FIFO throughput",
        r_base.report.throughput_kb_per_s / r_fifo.report.throughput_kb_per_s
    );
    println!(
        "replication + envelope on top: {:+.1}% throughput, {:+.1}% mean delay",
        (r_repl.report.throughput_kb_per_s / r_base.report.throughput_kb_per_s - 1.0) * 100.0,
        (r_repl.report.mean_delay_s / r_base.report.mean_delay_s - 1.0) * 100.0,
    );
    println!(
        "storage cost of the replicas: expansion factor E = {:.2}",
        r_repl.expansion
    );
}
