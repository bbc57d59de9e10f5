//! Figure 4: relative performance of scheduling algorithms without
//! replication (FIFO, five static, five dynamic). PH-10 RH-40 NR-0 SP-0.

use tapesim_bench::{emit_figure, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Open]);
    let series = tapesim::fig4_sched_algorithms(opts.scale, opts.open);
    emit_figure(
        &opts,
        "fig4_sched_norepl",
        "Figure 4: scheduling algorithms, no replication (PH-10 RH-40 NR-0 SP-0)",
        "intensity",
        &series,
    );
}
