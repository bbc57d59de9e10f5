//! Write-back runs pinned as data: both destage policies with no writes,
//! a write every 300 s and a write every 150 s, at quick scale with the
//! configuration of the `ext_writeback` binary (open reads every 300 s,
//! PH-10 RH-40, envelope max-bandwidth, flush batch 10, piggyback minimum
//! 5). Each row of `tests/golden/writeback_reports.txt` is the read
//! report in the row format of [`integration_tests::pinned`], followed by
//! the six write-side fields of [`WriteBackReport`]. Every run's trace
//! must pass `check_trace`, and its delta-flush records must add up to
//! the blocks flushed.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test writeback_reports
//! ```

use integration_tests::pinned::{self, Table};
use tapesim::layout::{build_placement, PlacementConfig};
use tapesim::model::{BlockSize, JukeboxGeometry, Micros, TimingModel};
use tapesim::sched::{make_scheduler, AlgorithmId};
use tapesim::sim::{
    check_trace, run_with_writeback_traced, FlushPolicy, MemorySink, WriteBackConfig,
    WriteBackReport,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};
use tapesim::Scale;

/// `ext_writeback`'s read seed and write seed.
const READ_SEED: u64 = 7;
const WRITE_SEED: u64 = 1_234;
/// `ext_writeback`'s stand-in for "no writes": one write per 10⁶ s.
const NO_WRITES_S: u64 = 1_000_000;

struct Scenario {
    policy: FlushPolicy,
    write_gap_s: u64,
}

impl Scenario {
    fn name(&self) -> String {
        let gap = if self.write_gap_s >= NO_WRITES_S {
            "none".to_owned()
        } else {
            format!("{}s", self.write_gap_s)
        };
        format!("{:?} write-gap-{gap}", self.policy)
    }
}

/// Every scenario, in the table's row order.
fn scenarios() -> Vec<Scenario> {
    [NO_WRITES_S, 300, 150]
        .into_iter()
        .flat_map(|write_gap_s| {
            [FlushPolicy::IdleOnly, FlushPolicy::Piggyback].map(|policy| Scenario {
                policy,
                write_gap_s,
            })
        })
        .collect()
}

fn row(sc: &Scenario) -> String {
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        PlacementConfig::paper_baseline(),
    )
    .unwrap();
    let mut factory = RequestFactory::new(
        BlockSampler::from_catalog(&placed.catalog, 40.0),
        ArrivalProcess::OpenPoisson {
            mean_interarrival: Micros::from_secs(300),
        },
        READ_SEED,
    );
    let mut sched = make_scheduler(AlgorithmId::paper_recommended());
    let mut sink = MemorySink::new();
    let r: WriteBackReport = run_with_writeback_traced(
        &placed.catalog,
        &TimingModel::paper_default(),
        sched.as_mut(),
        &mut factory,
        &Scale::Quick.sim_config(),
        &WriteBackConfig {
            write_mean_interarrival: Micros::from_secs(sc.write_gap_s),
            flush_batch: 10,
            piggyback_min: 5,
            policy: sc.policy,
        },
        WRITE_SEED,
        &mut sink,
    )
    .unwrap();
    let trace = sink.into_events();
    let name = sc.name();
    let stats = check_trace(&trace).unwrap_or_else(|v| panic!("{name}: trace invalid: {}", v[0]));
    assert_eq!(
        stats.delta_blocks, r.deltas_flushed,
        "{name}: flush records"
    );
    format!(
        "{} deltas_flushed={} deltas_buffered={} peak_buffer={} mean_delta_age_s={:?} \
         piggyback_flushes={} idle_flushes={}",
        pinned::row(&name, &r.reads, &trace),
        r.deltas_flushed,
        r.deltas_buffered,
        r.peak_buffer,
        r.mean_delta_age_s,
        r.piggyback_flushes,
        r.idle_flushes,
    )
}

const TABLE: Table<Scenario> = Table {
    file: "writeback_reports.txt",
    test: "writeback_reports",
    all: scenarios,
    name: Scenario::name,
    row,
};

#[test]
fn every_writeback_scenario_matches_its_pinned_report() {
    TABLE.assert_pinned(&scenarios());
}
