//! Drive-sensitivity ablation (Section 2.1's claim): a much faster
//! hypothetical drive improves every absolute number but does not change
//! the paper's conclusions about scheduling, placement, or replication.
#![expect(
    clippy::expect_used,
    reason = "a binary stops with a message on an invalid static configuration"
)]

use tapesim::prelude::*;
use tapesim_bench::{Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale]);
    let mut t = Table::new(["drive", "config", "KB/s", "delay s", "switches"]);
    let mut summary = Vec::new();
    for (drive_name, timing) in [
        ("EXB-8505XL (paper)", TimingModel::paper_default()),
        ("hypothetical fast", TimingModel::hypothetical_fast()),
    ] {
        let mut row = Vec::new();
        for (label, cfg) in [
            (
                "fifo no-repl",
                ExperimentConfig {
                    algorithm: AlgorithmId::Fifo,
                    timing: timing.clone(),
                    scale: opts.scale,
                    ..ExperimentConfig::paper_baseline()
                },
            ),
            (
                "dyn max-bw no-repl",
                ExperimentConfig {
                    timing: timing.clone(),
                    scale: opts.scale,
                    ..ExperimentConfig::paper_baseline()
                },
            ),
            (
                "envelope full-repl",
                ExperimentConfig {
                    timing: timing.clone(),
                    scale: opts.scale,
                    ..ExperimentConfig::paper_full_replication()
                },
            ),
        ] {
            let r = run_experiment(&cfg).expect("feasible").report;
            t.push([
                drive_name.to_string(),
                label.to_string(),
                fnum(r.throughput_kb_per_s, 1),
                fnum(r.mean_delay_s, 0),
                r.tape_switches.to_string(),
            ]);
            row.push(r.throughput_kb_per_s);
        }
        summary.push((drive_name, row));
    }
    println!("{}", t.to_aligned());
    for (name, row) in &summary {
        println!(
            "{name}: scheduling gain {:.1}x, replication gain {:+.1}%",
            row[1] / row[0],
            (row[2] / row[1] - 1.0) * 100.0
        );
    }
    println!("\n(the rankings must match across drives; only absolute numbers differ)");
}
