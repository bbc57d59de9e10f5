//! Figure 3: the effect of the I/O transfer size on throughput.
//! PH-10 RH-40 NR-0 SP-0, dynamic max-bandwidth, one curve per intensity.

use tapesim::prelude::*;
use tapesim_bench::{series_to_csv, series_to_table, write_csv, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Open]);
    let series = tapesim::fig3_transfer_size(opts.scale, opts.open);

    // Throughput vs block size plot (x = block MB, y = KB/s).
    let plot: Vec<Series> = series
        .iter()
        .map(|s| {
            Series::new(
                s.label.clone(),
                s.points
                    .iter()
                    .map(|p| (p.param, p.report.throughput_kb_per_s))
                    .collect(),
            )
        })
        .collect();
    println!(
        "{}",
        ascii_plot(
            "Figure 3: throughput vs transfer size (PH-10 RH-40 NR-0 SP-0)",
            "transfer size (MB)",
            "throughput (KB/s)",
            &plot,
            64,
            18,
        )
    );
    println!("{}", series_to_table(&series, "block_mb"));
    write_csv(
        &opts,
        &format!("fig3_transfer_size_{}", opts.variant()),
        &series_to_csv(&series, "block_mb"),
    );

    // The paper's headline: going from 16 MB to 8 MB costs ~2x.
    if let Some(s) = series.last() {
        let at = |mb: f64| {
            s.points
                .iter()
                .find(|p| p.param == mb)
                .map(|p| p.report.throughput_kb_per_s)
        };
        if let (Some(t8), Some(t16)) = (at(8.0), at(16.0)) {
            println!(
                "16 MB vs 8 MB throughput ratio at highest intensity: {:.2}x (paper: ~2x)",
                t16 / t8
            );
        }
    }
}
