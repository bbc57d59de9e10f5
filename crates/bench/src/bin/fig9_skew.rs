//! Figure 9: the relationship between skew and performance improvements.
//! RH 20..80 at PH-10; non-replicated (dotted in the paper) vs fully
//! replicated (solid), max-bandwidth envelope.

use tapesim_bench::{emit_figure, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Open]);
    let series = tapesim::fig9_skew(opts.scale, opts.open);
    emit_figure(
        &opts,
        "fig9_skew",
        "Figure 9: skew vs performance (PH-10, envelope max-bandwidth)",
        "intensity",
        &series,
    );
}
