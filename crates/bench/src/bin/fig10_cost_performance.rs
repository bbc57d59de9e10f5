//! Figure 10: cost effectiveness of replication.
//!
//! (a) the analytic expansion factor E = 1 + NR*PH/100;
//! (b) the cost-performance ratio of replication vs no replication as NR
//!     grows, for several skews, with the replicated jukebox's queue
//!     scaled down by E (same total workload over E times more jukeboxes).

use tapesim::prelude::*;
use tapesim_bench::{write_csv, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out]);

    // (a) expansion factor.
    println!("Figure 10(a): storage expansion factor E = 1 + NR*PH/100\n");
    let mut ta = Table::new(["PH %", "NR-0", "NR-1", "NR-2", "NR-4", "NR-6", "NR-9"]);
    for row in tapesim::fig10a_expansion() {
        let at = |nr: u32| {
            row.points
                .iter()
                .find(|p| p.0 == nr)
                .map(|p| fnum(p.1, 2))
                .unwrap_or_default()
        };
        ta.push([
            fnum(row.ph_percent, 0),
            at(0),
            at(1),
            at(2),
            at(4),
            at(6),
            at(9),
        ]);
    }
    println!("{}", ta.to_aligned());
    write_csv(&opts, "fig10a_expansion", &ta.to_csv());

    // (b) cost-performance at queue 60 (and 20 for the light-load case).
    for base_queue in [60u32, 20u32] {
        println!("Figure 10(b): cost-performance ratio, base queue {base_queue}\n");
        let curves = tapesim::fig10b_cost_performance(opts.scale, base_queue);
        let mut tb = Table::new(["RH %", "NR", "E", "queue", "KB/s", "ratio"]);
        let mut plot = Vec::new();
        for c in &curves {
            let pts: Vec<(f64, f64)> = c.points.iter().map(|p| (p.nr as f64, p.ratio)).collect();
            plot.push(Series::new(format!("RH-{}", c.rh_percent), pts));
            for p in &c.points {
                tb.push([
                    fnum(c.rh_percent, 0),
                    p.nr.to_string(),
                    fnum(p.expansion, 2),
                    p.queue.to_string(),
                    fnum(p.throughput, 1),
                    fnum(p.ratio, 3),
                ]);
            }
        }
        println!(
            "{}",
            ascii_plot(
                &format!("cost-performance ratio vs replicas (base queue {base_queue})"),
                "replicas (NR)",
                "ratio vs NR-0",
                &plot,
                64,
                16,
            )
        );
        println!("{}", tb.to_aligned());
        write_csv(
            &opts,
            &format!("fig10b_cost_performance_q{base_queue}"),
            &tb.to_csv(),
        );
    }
    println!("(paper: moderate skew degrades cost-performance by up to ~3%; very high skew gains ~8-10%, ~14% at queue 20)");
}
