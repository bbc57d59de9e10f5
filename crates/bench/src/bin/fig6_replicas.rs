//! Figure 6: throughput and latency as a function of the number of
//! replicas of hot data (vertical layout, replicas at the tape ends).

use tapesim_bench::{emit_figure, HarnessOpts};

#[expect(
    clippy::cast_precision_loss,
    reason = "switch counts stay far below 2^53"
)]
fn main() {
    let opts = HarnessOpts::from_args();
    let series = tapesim::fig6_replicas(opts.scale, opts.open);
    emit_figure(
        &opts,
        "fig6_replicas",
        "Figure 6: number of replicas of hot data (PH-10 RH-40 SP-1.0, vertical)",
        "intensity",
        &series,
    );
    // The paper's headline deltas at full replication.
    if let (Some(nr0), Some(nr9)) = (series.first(), series.last()) {
        if let (Some(a), Some(b)) = (nr0.points.last(), nr9.points.last()) {
            println!(
                "full vs no replication at highest intensity: {:+.1}% req/min, {:+.1}% delay, {:+.1}% switches",
                (b.report.requests_per_min / a.report.requests_per_min - 1.0) * 100.0,
                (b.report.mean_delay_s / a.report.mean_delay_s - 1.0) * 100.0,
                (b.report.tape_switches as f64 / a.report.tape_switches as f64 - 1.0) * 100.0,
            );
            println!("(paper: about +18% requests/min, -13% response time, -20% switches)");
        }
    }
}
