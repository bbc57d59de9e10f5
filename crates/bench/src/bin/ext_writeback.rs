//! Extension experiment: the paper's write-handling assumption, measured.
//!
//! Writes accumulate in a disk-resident delta buffer and are destaged to
//! tape during idle time, optionally piggybacked on read sweeps. The
//! experiment quantifies the two costs the paper waves at: how much read
//! latency the destaging steals, and how long deltas sit on disk.
#![expect(
    clippy::expect_used,
    reason = "a binary stops with a message on an invalid static configuration"
)]

use tapesim::prelude::*;
use tapesim::sim::{
    run_with_writeback, run_with_writeback_traced, FlushPolicy, MemorySink, WriteBackConfig,
};
use tapesim_bench::{write_csv, write_trace, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out, Flag::Trace]);
    let timing = TimingModel::paper_default();
    let sim = opts.scale.sim_config();
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .expect("feasible");

    println!(
        "Write-back extension: open reads (1 per 300 s), PH-10 RH-40, envelope max-bandwidth\n"
    );
    let csv = {
        let mut t = Table::new([
            "write gap s",
            "policy",
            "read delay s",
            "deltas flushed",
            "delta age s",
            "piggy",
            "idle",
        ]);
        for write_gap in [1_000_000u64, 600, 300, 150] {
            for policy in [FlushPolicy::IdleOnly, FlushPolicy::Piggyback] {
                let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
                let mut factory = RequestFactory::new(
                    sampler,
                    ArrivalProcess::OpenPoisson {
                        mean_interarrival: Micros::from_secs(300),
                    },
                    7,
                );
                let mut sched = make_scheduler(AlgorithmId::paper_recommended());
                let r = run_with_writeback(
                    &placed.catalog,
                    &timing,
                    sched.as_mut(),
                    &mut factory,
                    &sim,
                    &WriteBackConfig {
                        write_mean_interarrival: Micros::from_secs(write_gap),
                        flush_batch: 10,
                        piggyback_min: 5,
                        policy,
                    },
                    1234,
                )
                .expect("write-back config is valid");
                t.push([
                    if write_gap >= 1_000_000 {
                        "(none)".to_string()
                    } else {
                        write_gap.to_string()
                    },
                    format!("{policy:?}"),
                    fnum(r.reads.mean_delay_s, 0),
                    r.deltas_flushed.to_string(),
                    fnum(r.mean_delta_age_s, 0),
                    r.piggyback_flushes.to_string(),
                    r.idle_flushes.to_string(),
                ]);
            }
        }
        println!("{}", t.to_aligned());
        t.to_csv()
    };
    write_csv(&opts, "ext_writeback", &csv);
    if opts.trace.is_some() {
        // Record the representative piggyback run (write gap 300 s) with
        // the event-trace layer attached.
        let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
        let mut factory = RequestFactory::new(
            sampler,
            ArrivalProcess::OpenPoisson {
                mean_interarrival: Micros::from_secs(300),
            },
            7,
        );
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let mut sink = MemorySink::new();
        run_with_writeback_traced(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &sim,
            &WriteBackConfig {
                write_mean_interarrival: Micros::from_secs(300),
                flush_batch: 10,
                piggyback_min: 5,
                policy: FlushPolicy::Piggyback,
            },
            1234,
            &mut sink,
        )
        .expect("write-back config is valid");
        write_trace(&opts, &sink.into_events());
    }
    println!("(piggybacking destages deltas far sooner — a freshness/latency trade-off the\n paper's \"piggybacked on the read schedule\" suggestion leaves implicit)");
}
