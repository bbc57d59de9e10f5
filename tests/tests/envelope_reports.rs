//! The envelope-extension scheduler (§3.2) pinned end to end: its three
//! tape-switch policies on three layouts (NR-0 and NR-1 horizontal, NR-9
//! vertical at the tape ends) with one drive and a closed queue of 140,
//! and each policy on NR-1 with two drives under light faults, where
//! tapes held by the other drive and offline tapes reach the envelope.
//! Each row of `tests/golden/envelope_reports.txt` is one scenario in the
//! row format of [`integration_tests::pinned`], and every row must match
//! exactly: the envelope may change how it computes a plan, not which
//! plan it computes.
//!
//! Every run goes through [`Lockstep`], which checks each major
//! reschedule's envelope against [`reference_upper_envelope`] on the same
//! view and available snapshot. A scheduler that carries state from one
//! call into the next fails there even when the plan happens to agree.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test envelope_reports
//! ```

use integration_tests::envelope_reference::reference_upper_envelope;
use integration_tests::light_faults;
use integration_tests::pinned::{self, Table};
use tapesim::layout::{build_placement, LayoutKind, PlacementConfig, PlacementScheme};
use tapesim::model::{BlockSize, FaultConfig, JukeboxGeometry, TapeId, TimingModel};
use tapesim::sched::{
    ArrivalOutcome, EnvelopePolicy, EnvelopeScheduler, JukeboxView, PendingList, Scheduler,
    ServiceList, SweepPlan,
};
use tapesim::sim::{run_multi_drive_traced, MemorySink, MetricsReport, SimConfig, TraceRecord};
use tapesim::workload::{ArrivalProcess, BlockSampler, Request, RequestFactory};

const SEED: u64 = 1;
const FAULT_SEED: u64 = 11;
const QUEUE: u32 = 140;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Nr0Horizontal,
    Nr1Horizontal,
    Nr9Vertical,
}

impl Layout {
    fn name(self) -> &'static str {
        match self {
            Layout::Nr0Horizontal => "nr0-horizontal",
            Layout::Nr1Horizontal => "nr1-horizontal",
            Layout::Nr9Vertical => "nr9-vertical-sp1",
        }
    }

    fn placement(self) -> PlacementConfig {
        let baseline = PlacementConfig::paper_baseline();
        match self {
            Layout::Nr0Horizontal => baseline,
            Layout::Nr1Horizontal => PlacementConfig {
                scheme: PlacementScheme::Replication { nr: 1 },
                ..baseline
            },
            Layout::Nr9Vertical => PlacementConfig {
                layout: LayoutKind::Vertical,
                scheme: PlacementScheme::Replication { nr: 9 },
                sp: 1.0,
                ..baseline
            },
        }
    }
}

struct Scenario {
    policy: EnvelopePolicy,
    layout: Layout,
    drives: u16,
    faulty: bool,
}

impl Scenario {
    fn name(&self) -> String {
        format!(
            "envelope-{} {} drives{} queue{QUEUE} seed{SEED} {}",
            self.policy.name(),
            self.layout.name(),
            self.drives,
            if self.faulty {
                "light-faults"
            } else {
                "no-faults"
            }
        )
    }
}

/// Every policy on `layout`, one drive, no faults.
fn one_drive(layout: Layout) -> Vec<Scenario> {
    EnvelopePolicy::ALL
        .into_iter()
        .map(|policy| Scenario {
            policy,
            layout,
            drives: 1,
            faulty: false,
        })
        .collect()
}

/// Every policy on NR-1, two drives, light faults.
fn faulted() -> Vec<Scenario> {
    EnvelopePolicy::ALL
        .into_iter()
        .map(|policy| Scenario {
            policy,
            layout: Layout::Nr1Horizontal,
            drives: 2,
            faulty: true,
        })
        .collect()
}

/// Every pinned scenario, in the table's row order.
fn scenarios() -> Vec<Scenario> {
    let mut rows = one_drive(Layout::Nr0Horizontal);
    rows.extend(one_drive(Layout::Nr1Horizontal));
    rows.extend(one_drive(Layout::Nr9Vertical));
    rows.extend(faulted());
    rows
}

/// An [`EnvelopeScheduler`] whose every planned major reschedule is
/// checked against the reference envelope of the same view and snapshot.
struct Lockstep {
    inner: EnvelopeScheduler,
    checked: usize,
}

impl Scheduler for Lockstep {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn major_reschedule(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &mut PendingList,
    ) -> Option<SweepPlan> {
        let snapshot: Vec<Request> = pending
            .iter()
            .filter(|r| {
                view.catalog
                    .replicas(r.block)
                    .iter()
                    .any(|a| view.is_available(a.tape))
            })
            .copied()
            .collect();
        let plan = self.inner.major_reschedule(view, pending)?;
        let reference = reference_upper_envelope(view, &snapshot);
        assert_eq!(
            self.inner.current_envelope(),
            &reference.env,
            "major reschedule {} at {} (mounted {:?}, head {:?}) left the reference envelope",
            self.checked,
            view.now,
            view.mounted,
            view.head
        );
        self.checked += 1;
        Some(plan)
    }

    fn on_arrival(
        &mut self,
        view: &JukeboxView<'_>,
        sweep_tape: TapeId,
        sweep: &mut ServiceList,
        request: Request,
        pending: &mut PendingList,
    ) -> ArrivalOutcome {
        self.inner
            .on_arrival(view, sweep_tape, sweep, request, pending)
    }
}

fn run(sc: &Scenario) -> (MetricsReport, Vec<TraceRecord>) {
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        sc.layout.placement(),
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let mut factory = RequestFactory::new(
        BlockSampler::from_catalog(&placed.catalog, 40.0),
        ArrivalProcess::Closed {
            queue_length: QUEUE,
        },
        SEED,
    );
    let mut sched = Lockstep {
        inner: EnvelopeScheduler::new(sc.policy),
        checked: 0,
    };
    let faults = if sc.faulty {
        light_faults()
    } else {
        FaultConfig::NONE
    };
    let mut sink = MemorySink::default();
    let report = run_multi_drive_traced(
        &placed.catalog,
        &timing,
        &mut sched,
        &mut factory,
        &SimConfig::quick(),
        sc.drives,
        &faults,
        FAULT_SEED,
        &mut sink,
    )
    .unwrap();
    assert!(sched.checked > 0, "{}: no major reschedule", sc.name());
    (report, sink.into_events())
}

const TABLE: Table<Scenario> = Table {
    file: "envelope_reports.txt",
    test: "envelope_reports",
    all: scenarios,
    name: Scenario::name,
    row: |sc| {
        let (report, trace) = run(sc);
        pinned::row(&sc.name(), &report, &trace)
    },
};

#[test]
fn every_policy_without_replication_matches_its_pinned_report() {
    TABLE.assert_pinned(&one_drive(Layout::Nr0Horizontal));
}

#[test]
fn every_policy_on_one_replica_matches_its_pinned_report() {
    TABLE.assert_pinned(&one_drive(Layout::Nr1Horizontal));
}

#[test]
fn every_policy_under_full_replication_matches_its_pinned_report() {
    TABLE.assert_pinned(&one_drive(Layout::Nr9Vertical));
}

#[test]
fn every_policy_on_two_drives_under_faults_matches_its_pinned_report() {
    TABLE.assert_pinned(&faulted());
}
