//! Capacity planner: given a workload skew, decide how many replicas of
//! hot data to store — trading storage expansion against throughput and
//! latency, the Section 4.8 cost-performance analysis as a tool.
//!
//! Run with:
//! `cargo run --release -p tapesim-examples --bin capacity_planner [RH]`
//! where `RH` is the percent of requests hitting hot data (default 60).
#![expect(
    clippy::expect_used,
    reason = "an example stops with a message on an infeasible configuration"
)]

use tapesim::prelude::*;
use tapesim::Scale;

fn main() {
    let rh: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60.0);
    assert!((0.0..=100.0).contains(&rh), "RH must be in 0..=100");
    let ph = 10.0;
    let base_queue = 60;

    println!("Capacity planner: PH-{ph} skew, RH-{rh}, base queue {base_queue}\n");
    println!("Per-jukebox performance (replicated farms spread the same total");
    println!("workload over E times more jukeboxes, so queue = {base_queue}/E):\n");

    let mut t = Table::new([
        "NR",
        "E",
        "queue",
        "KB/s",
        "delay s",
        "perf ratio",
        "verdict",
    ]);
    let mut baseline: Option<MetricsReport> = None;
    let mut best: Option<(u32, f64)> = None;
    for nr in [0u32, 1, 2, 4, 6, 9] {
        let e = expansion_factor(nr, ph);
        let queue = tapesim::layout::scaled_queue_length(base_queue, e);
        let cfg = ExperimentConfig {
            layout: LayoutKind::Vertical,
            replicas: nr,
            sp: 1.0,
            rh_percent: rh,
            algorithm: AlgorithmId::paper_recommended(),
            process: ArrivalProcess::Closed {
                queue_length: queue,
            },
            scale: Scale::Default,
            ..ExperimentConfig::paper_baseline()
        };
        let r = run_experiment(&cfg).expect("feasible").report;
        let base = baseline.get_or_insert_with(|| r.clone());
        let ratio = r.throughput_kb_per_s / base.throughput_kb_per_s;
        let verdict = if nr == 0 {
            "baseline"
        } else if ratio > 1.02 {
            "pays for itself"
        } else if ratio > 0.99 {
            "about break-even"
        } else {
            "costs more than it gains"
        };
        if best.is_none_or(|(_, b)| ratio > b) {
            best = Some((nr, ratio));
        }
        t.push([
            nr.to_string(),
            fnum(e, 2),
            queue.to_string(),
            fnum(r.throughput_kb_per_s, 1),
            fnum(r.mean_delay_s, 0),
            fnum(ratio, 3),
            verdict.to_string(),
        ]);
    }
    println!("{}", t.to_aligned());

    let (nr, ratio) = best.expect("grid is non-empty");
    if nr == 0 || ratio <= 1.0 {
        println!(
            "recommendation: at RH-{rh}, buying extra capacity for replicas does not\n\
             pay for itself — but if the jukebox has existing SPARE capacity, fill it\n\
             with replicas at the tape ends anyway: that improves performance for free."
        );
    } else {
        println!(
            "recommendation: NR-{nr} replicas — {:.1}% better throughput per dollar\n\
             than the non-replicated layout, hot data and replicas at the tape ends.",
            (ratio - 1.0) * 100.0
        );
    }
}
