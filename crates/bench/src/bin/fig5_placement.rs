//! Figure 5: throughput and latency as a function of hot-data placement
//! (no replication): horizontal layouts at SP 0..1 plus vertical.

use tapesim_bench::{emit_figure, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Open]);
    let series = tapesim::fig5_placement(opts.scale, opts.open);
    emit_figure(
        &opts,
        "fig5_placement",
        "Figure 5: hot-data placement, no replication (PH-10 RH-40 NR-0)",
        "intensity",
        &series,
    );
}
