//! Telecom call-detail-record archive: terabytes of CDRs on tape, mined
//! by a fixed pool of analytics workers (closed queuing).
//!
//! The example walks the two capacity-planning questions the paper's
//! Section 4.1-4.2 answers: what I/O transfer size should the archive
//! use, and which scheduling algorithm should drive the jukebox?
//!
//! Run with: `cargo run --release -p tapesim-examples --bin telco_cdr`
#![expect(
    clippy::expect_used,
    reason = "an example stops with a message on an infeasible configuration"
)]

use tapesim::prelude::*;
use tapesim::Scale;
use tapesim_examples::summarize;

fn main() {
    // Recent months are queried constantly (hot); old history rarely.
    let base = ExperimentConfig {
        ph_percent: 10.0,
        rh_percent: 40.0,
        process: ArrivalProcess::Closed { queue_length: 60 },
        scale: Scale::Default,
        ..ExperimentConfig::paper_baseline()
    };

    println!("CDR archive: 10 tapes x 7 GB, 60 concurrent analytics readers\n");

    // Question 1: transfer size. Small blocks starve the workers.
    println!("-- choosing the I/O transfer size --");
    let mut t = Table::new(["block size", "throughput KB/s", "effective vs streaming"]);
    let streaming_kb = 1024.0 / 1.77; // EXB-8505XL streaming rate
    for mb in [1u32, 4, 8, 16, 32, 64] {
        let cfg = ExperimentConfig {
            block: BlockSize::from_mb(mb),
            ..base.clone()
        };
        let r = run_experiment(&cfg).expect("feasible").report;
        t.push([
            format!("{mb} MB"),
            fnum(r.throughput_kb_per_s, 1),
            format!("{:.0}%", r.throughput_kb_per_s / streaming_kb * 100.0),
        ]);
    }
    println!("{}", t.to_aligned());
    println!("(the paper recommends at least 16 MB: >30% of the streaming rate)\n");

    // Question 2: the scheduling algorithm, at the chosen 16 MB size.
    println!("-- choosing the scheduling algorithm --");
    for alg in [
        AlgorithmId::Fifo,
        AlgorithmId::Static(TapeSelectPolicy::MaxBandwidth),
        AlgorithmId::Dynamic(TapeSelectPolicy::RoundRobin),
        AlgorithmId::Dynamic(TapeSelectPolicy::MaxRequests),
        AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
        AlgorithmId::paper_recommended(),
    ] {
        let cfg = ExperimentConfig {
            algorithm: alg,
            ..base.clone()
        };
        let r = run_experiment(&cfg).expect("feasible").report;
        summarize(&alg.name(), &r);
    }
    println!("\n(dynamic max-bandwidth and the envelope algorithm lead, as in Figure 4)");
}
