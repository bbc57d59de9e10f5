//! Records, validates, and summarizes one fully traced baseline run.
//!
//! Runs the paper's recommended configuration (PH-10 RH-40, envelope
//! max-bandwidth) with the event-trace layer attached, feeds the trace
//! through the §2.2 invariant checker, prints the latency percentiles and
//! drive-time phase breakdown derived *from the trace*, and — with
//! `--trace FILE` — writes the raw events as JSON Lines for external
//! analysis.
//!
//! ```sh
//! cargo run --release --bin trace_sample -- --scale quick --trace sample.jsonl
//! ```
#![expect(
    clippy::expect_used,
    reason = "a binary stops with a message on an invalid static configuration"
)]

use tapesim::model::FaultConfig;
use tapesim::prelude::*;
use tapesim::sim::trace::summarize;
use tapesim::sim::{check_trace, run_multi_drive_traced, MemorySink};
use tapesim_bench::{write_trace, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    let timing = TimingModel::paper_default();
    let cfg = opts.scale.sim_config();
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .expect("paper baseline placement is feasible");

    let process = if opts.open {
        ArrivalProcess::OpenPoisson {
            mean_interarrival: Micros::from_secs(300),
        }
    } else {
        ArrivalProcess::Closed { queue_length: 40 }
    };
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(sampler, process, 7);
    let mut sched = make_scheduler(AlgorithmId::paper_recommended());
    let mut sink = MemorySink::new();
    let report = run_multi_drive_traced(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &cfg,
        1,
        &FaultConfig::NONE,
        0,
        &mut sink,
    )
    .expect("baseline run");
    let trace = sink.into_events();

    println!(
        "Traced baseline ({}, {}): {} events\n",
        AlgorithmId::paper_recommended().name(),
        opts.variant(),
        trace.len()
    );

    match check_trace(&trace) {
        Ok(stats) => {
            let mut t = Table::new(["invariant checker", "count"]);
            t.push(["arrivals".into(), stats.arrivals.to_string()]);
            t.push(["completions".into(), stats.completions.to_string()]);
            t.push(["outstanding at end".into(), stats.outstanding.to_string()]);
            t.push(["sweeps".into(), stats.sweeps.to_string()]);
            t.push(["mounts".into(), stats.mounts.to_string()]);
            t.push(["reads".into(), stats.reads.to_string()]);
            println!("{}", t.to_aligned());
        }
        Err(violations) => {
            eprintln!("TRACE INVARIANT VIOLATIONS ({}):", violations.len());
            for v in violations.iter().take(10) {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }

    let s = summarize(&trace);
    let mut t = Table::new(["trace summary", "value"]);
    t.push(["p50 delay".into(), format!("{}", s.p50)]);
    t.push(["p95 delay".into(), format!("{}", s.p95)]);
    t.push(["p99 delay".into(), format!("{}", s.p99)]);
    t.push(["max delay".into(), format!("{}", s.max)]);
    t.push(["mean delay".into(), format!("{}", s.mean)]);
    t.push([
        "mount time".into(),
        format!(
            "{} ({:.1}%)",
            s.phases.mount,
            100.0 * s.phases.frac(s.phases.mount)
        ),
    ]);
    t.push([
        "locate time".into(),
        format!(
            "{} ({:.1}%)",
            s.phases.locate,
            100.0 * s.phases.frac(s.phases.locate)
        ),
    ]);
    t.push([
        "transfer time".into(),
        format!(
            "{} ({:.1}%)",
            s.phases.transfer,
            100.0 * s.phases.frac(s.phases.transfer)
        ),
    ]);
    t.push([
        "idle time".into(),
        format!(
            "{} ({:.1}%)",
            s.phases.idle,
            100.0 * s.phases.frac(s.phases.idle)
        ),
    ]);
    println!("{}", t.to_aligned());

    println!(
        "metrics cross-check: mean delay {:.1}s, p95 {:.1}s (report) — the trace-derived \
         figures above include warmup, the report's window does not",
        report.mean_delay_s, report.p95_delay_s
    );
    write_trace(&opts, &trace);
}
