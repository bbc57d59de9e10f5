//! Extension experiment: response time and availability under faults.
//!
//! A Figure-6-style sweep — replication degree NR in {0, 1, 3} — but
//! against an increasingly hostile fault model instead of an
//! increasingly loaded queue: media errors permanently kill individual
//! copies (no retries), and whole tapes fail and are repaired on an
//! exponential MTBF/MTTR clock. Replication is what the paper proposes
//! for *performance*; this experiment shows the same copies buying
//! *availability* — hot requests fail over to surviving replicas, so
//! permanently failed requests drop as NR grows, while the cold data
//! (single-copy under every NR) bounds how far availability can go.
#![expect(
    clippy::expect_used,
    reason = "a binary stops with a message on an invalid static configuration"
)]

use tapesim::model::Micros;
use tapesim::prelude::*;
use tapesim_bench::{write_csv, Flag, HarnessOpts};

/// Fault intensities swept: (label, media error probability per read,
/// whole-tape MTBF in seconds; `None` = no tape failures).
const LEVELS: [(&str, f64, Option<u64>); 4] = [
    ("none", 0.0, None),
    ("low", 0.002, Some(800_000)),
    ("medium", 0.01, Some(300_000)),
    ("high", 0.03, Some(120_000)),
];

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Open]);

    println!(
        "Fault injection: PH-10 RH-40, envelope max-bandwidth, {} queue\n",
        opts.variant()
    );
    let csv = {
        let mut t = Table::new([
            "NR",
            "faults",
            "KB/s",
            "delay s",
            "degraded %",
            "failovers",
            "failed",
            "media errs",
        ]);
        for nr in [0u32, 1, 3] {
            let mut base = ExperimentConfig {
                replicas: nr,
                sp: 1.0,
                layout: if nr == 0 {
                    LayoutKind::Horizontal
                } else {
                    LayoutKind::Vertical
                },
                algorithm: AlgorithmId::paper_recommended(),
                scale: opts.scale,
                ..ExperimentConfig::paper_baseline()
            };
            if opts.open {
                base = base.with_open(90);
            }
            let placed = base.build_catalog().expect("feasible placement");
            for (label, media_p, mtbf_s) in LEVELS {
                let cfg = ExperimentConfig {
                    faults: FaultConfig {
                        media_error_per_read: media_p,
                        media_retries: 0,
                        tape_mtbf: mtbf_s.map(Micros::from_secs),
                        tape_mttr: Some(Micros::from_secs(20_000)),
                        ..FaultConfig::NONE
                    },
                    ..base.clone()
                };
                let (r, _) = run_with_catalog(&cfg, &placed).expect("fault sweep config is valid");
                t.push([
                    nr.to_string(),
                    label.to_string(),
                    fnum(r.throughput_kb_per_s, 1),
                    fnum(r.mean_delay_s, 0),
                    fnum(100.0 * r.degraded_frac, 1),
                    r.replica_failovers.to_string(),
                    r.failed_requests.to_string(),
                    r.media_errors.to_string(),
                ]);
            }
        }
        println!("{}", t.to_aligned());
        t.to_csv()
    };
    write_csv(&opts, "ext_faults", &csv);
    println!(
        "(failed = requests whose every copy was permanently lost; replication\n \
         cuts them to the cold-data share and converts the rest into failovers)"
    );
}
