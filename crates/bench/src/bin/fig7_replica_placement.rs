//! Figure 7: throughput and latency as a function of replica placement
//! (full replication, SP from tape beginning to tape end).

use tapesim_bench::{emit_figure, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Open]);
    let series = tapesim::fig7_replica_placement(opts.scale, opts.open);
    emit_figure(
        &opts,
        "fig7_replica_placement",
        "Figure 7: replica placement (PH-10 RH-40 NR-9, vertical)",
        "intensity",
        &series,
    );
}
