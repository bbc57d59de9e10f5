//! Figure 8: relative performance of scheduling algorithms with full
//! replication at the tape ends, including the envelope variants.

use tapesim_bench::{emit_figure, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Open]);
    let series = tapesim::fig8_sched_replication(opts.scale, opts.open);
    emit_figure(
        &opts,
        "fig8_sched_repl",
        "Figure 8: scheduling algorithms, full replication (PH-10 RH-40 NR-9 SP-1.0)",
        "intensity",
        &series,
    );
    // Envelope max-bandwidth vs dynamic max-bandwidth headline.
    let find = |name: &str| series.iter().find(|s| s.label == name);
    if let (Some(d), Some(e)) = (
        find("dynamic max-bandwidth"),
        find("envelope max-bandwidth"),
    ) {
        if let (Some(dp), Some(ep)) = (d.points.last(), e.points.last()) {
            println!(
                "envelope vs dynamic max-bandwidth at highest intensity: {:+.1}% throughput, {:+.1}% delay (paper: +6% / -5%)",
                (ep.report.throughput_kb_per_s / dp.report.throughput_kb_per_s - 1.0) * 100.0,
                (ep.report.mean_delay_s / dp.report.mean_delay_s - 1.0) * 100.0,
            );
        }
    }
}
