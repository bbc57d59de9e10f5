//! Section 4.8's spare-capacity experiment: for a partially filled
//! jukebox, compare (a) packing the data onto as few tapes as possible
//! and leaving the spare empty against (b) spreading the data and filling
//! the spare slots at the tape ends with replicas of hot data.
#![expect(
    clippy::expect_used,
    reason = "a binary stops with a message on an invalid static configuration"
)]

use tapesim::prelude::*;
use tapesim_bench::{write_csv, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    let timing = TimingModel::paper_default();
    let sim = opts.scale.sim_config();
    let seeds = opts.scale.seeds();

    let mut t = Table::new([
        "fill %", "scheme", "E", "KB/s", "delay s", "p95 s", "switches",
    ]);
    println!("Spare capacity: PH-10 RH-60, closed queue 60, envelope max-bandwidth\n");
    for fill in [0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
        let mut pair = Vec::new();
        for (name, spare_use) in [
            ("packed, spare empty", SpareUse::LeaveEmpty),
            ("spread + replicas", SpareUse::FillWithReplicas),
        ] {
            let placed = build_spare_layout(
                JukeboxGeometry::PAPER_DEFAULT,
                BlockSize::PAPER_DEFAULT,
                SpareConfig {
                    ph_percent: 10.0,
                    fill_fraction: fill,
                    spare_use,
                },
            )
            .expect("feasible fill");
            let spec = RunSpec {
                catalog: &placed.catalog,
                timing: &timing,
                algorithm: AlgorithmId::paper_recommended(),
                process: ArrivalProcess::Closed { queue_length: 60 },
                rh_percent: 60.0,
                cluster_run_p: 0.0,
                drives: 1,
                config: sim,
                faults: tapesim::model::FaultConfig::NONE,
            };
            let (r, _) = tapesim::sim::run_seeds(&spec, &seeds).expect("spare config is valid");
            t.push([
                format!("{:.0}", fill * 100.0),
                name.to_string(),
                fnum(placed.expansion, 2),
                fnum(r.throughput_kb_per_s, 1),
                fnum(r.mean_delay_s, 0),
                fnum(r.p95_delay_s, 0),
                r.tape_switches.to_string(),
            ]);
            pair.push(r.throughput_kb_per_s);
        }
        println!(
            "fill {:>3.0}%: replicas change throughput by {:+.1}%",
            fill * 100.0,
            (pair[1] / pair[0] - 1.0) * 100.0
        );
    }
    println!("\n{}", t.to_aligned());
    write_csv(&opts, "spare_capacity", &t.to_csv());
    println!("(paper: filling existing spare capacity with replicas improves performance \"for free\";\n the packed scheme is within a percent or two of the full non-replicated layout)");
}
