//! Runs every figure and table binary's logic in sequence — the one-shot
//! "regenerate the paper's evaluation" entry point.

use tapesim_bench::{emit_figure, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Open]);
    println!("=== Reproducing Hillyer/Rastogi/Silberschatz, ICDE 1999 ===\n");

    println!("--- Figure 1 + Section 2.1 validation ---");
    let f1 = tapesim::fig1_locate_model(2130, 0x51);
    println!(
        "forward fit: short {:.3}+{:.4}k, long {:.3}+{:.4}k  (true 4.834+0.378k / 14.342+0.028k)",
        f1.forward.0.intercept, f1.forward.0.slope, f1.forward.1.intercept, f1.forward.1.slope
    );
    let v = tapesim::model_validation();
    println!(
        "validation: locate max/mean {:.2}%/{:.2}%, read max/mean {:.2}%/{:.2}%\n",
        v.max_locate_rel_err * 100.0,
        v.mean_locate_rel_err * 100.0,
        v.max_read_rel_err * 100.0,
        v.mean_read_rel_err * 100.0
    );

    println!("--- Figure 3 ---");
    emit_figure(
        &opts,
        "fig3_transfer_size",
        "Figure 3",
        "block_mb",
        &tapesim::fig3_transfer_size(opts.scale, opts.open),
    );

    println!("--- Figure 4 ---");
    emit_figure(
        &opts,
        "fig4_sched_norepl",
        "Figure 4",
        "intensity",
        &tapesim::fig4_sched_algorithms(opts.scale, opts.open),
    );

    println!("--- Figure 5 ---");
    emit_figure(
        &opts,
        "fig5_placement",
        "Figure 5",
        "intensity",
        &tapesim::fig5_placement(opts.scale, opts.open),
    );

    println!("--- Figure 6 ---");
    emit_figure(
        &opts,
        "fig6_replicas",
        "Figure 6",
        "intensity",
        &tapesim::fig6_replicas(opts.scale, opts.open),
    );

    println!("--- Figure 7 ---");
    emit_figure(
        &opts,
        "fig7_replica_placement",
        "Figure 7",
        "intensity",
        &tapesim::fig7_replica_placement(opts.scale, opts.open),
    );

    println!("--- Figure 8 ---");
    emit_figure(
        &opts,
        "fig8_sched_repl",
        "Figure 8",
        "intensity",
        &tapesim::fig8_sched_replication(opts.scale, opts.open),
    );

    println!("--- Figure 9 ---");
    emit_figure(
        &opts,
        "fig9_skew",
        "Figure 9",
        "intensity",
        &tapesim::fig9_skew(opts.scale, opts.open),
    );

    println!("--- Figure 10 ---");
    let c = tapesim::fig10b_cost_performance(opts.scale, 60);
    for series in &c {
        if let Some(last) = series.points.last() {
            println!(
                "RH-{}: full-replication cost-performance ratio {:.3}",
                series.rh_percent, last.ratio
            );
        }
    }
    println!("\ndone.");
}
