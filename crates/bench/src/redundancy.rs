//! The redundancy study: NR replication versus `k + m` erasure striping
//! versus no redundancy, compared at **matched storage expansion**.
//!
//! Storing one extra replica of the hot 10% costs `E = 1.1`; so does
//! `2 + 2` striping (`E = 1 + (PH/100) · m/k`). With the storage budget
//! pinned, the schemes differ only in how they spend it:
//!
//! * **Replication** buys *placement freedom* — a read needs any one
//!   copy, so the scheduler picks the cheapest tape and a hot read still
//!   mounts one tape.
//! * **Erasure striping** buys *durability* — a `2 + 2` stripe survives
//!   any two tape losses (replication's two copies survive one), but
//!   every hot read must gather `k = 2` shards from distinct tapes.
//!
//! Every point runs the paper's base workload (closed queue 20, RH-40
//! over a PH-10 horizontal layout, recommended scheduler, one drive) on
//! the same 10-tape cabinet; a fault axis sweeps permanent tape loss
//! from none to roughly three tapes per run, exposing the availability
//! ordering the schemes pay for.

use tapesim::prelude::*;
use tapesim::sim::{run_erasure_simulation, run_multi_drive_with_faults};

/// One redundancy scheme of the three-way comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeCase {
    /// CSV label (`none`, `nr1`, `ec2p2`).
    pub label: &'static str,
    /// The placement scheme under test.
    pub scheme: PlacementScheme,
}

/// The three-way comparison: no redundancy, one replica, and `2 + 2`
/// striping. The latter two have identical storage expansion (1.1 at
/// PH-10), which is the point of the study.
pub fn default_schemes() -> Vec<SchemeCase> {
    vec![
        SchemeCase {
            label: "none",
            scheme: PlacementScheme::Replication { nr: 0 },
        },
        SchemeCase {
            label: "nr1",
            scheme: PlacementScheme::Replication { nr: 1 },
        },
        SchemeCase {
            label: "ec2p2",
            scheme: PlacementScheme::Erasure { k: 2, m: 2 },
        },
    ]
}

/// The fault axis: mean time between permanent per-tape losses, in
/// simulated seconds (`None` = no faults). At the default 1M-second
/// horizon the finite levels lose roughly one and three of the cabinet's
/// ten tapes per run.
pub const TAPE_MTBF_LEVELS_S: [Option<u64>; 3] = [None, Some(10_000_000), Some(3_000_000)];

/// Fixed closed-queue length shared by every point (the paper's base).
pub const QUEUE_LENGTH: u32 = 20;

/// Rows the redundancy CSV always contains (excluding the header); the
/// CI schema check pins this count.
pub fn expected_rows() -> usize {
    default_schemes().len() * TAPE_MTBF_LEVELS_S.len()
}

fn fault_config(mtbf_s: Option<u64>) -> FaultConfig {
    match mtbf_s {
        None => FaultConfig::NONE,
        Some(s) => FaultConfig {
            tape_mtbf: Some(Micros::from_secs(s)),
            tape_mttr: None, // permanent: the copies on the tape are gone
            ..FaultConfig::NONE
        },
    }
}

/// Runs one (scheme, fault level) point, averaged over the scale's
/// seeds.
fn run_point(case: SchemeCase, mtbf_s: Option<u64>, scale: Scale) -> MetricsReport {
    let cfg = PlacementConfig {
        layout: LayoutKind::Horizontal,
        ph_percent: 10.0,
        scheme: case.scheme,
        sp: 0.0,
    };
    #[expect(
        clippy::expect_used,
        reason = "study placements fit a 10-tape cabinet by construction"
    )]
    let placed = build_placement(
        JukeboxGeometry::PAPER_DEFAULT,
        BlockSize::PAPER_DEFAULT,
        cfg,
    )
    .expect("study placements are feasible");
    let timing = TimingModel::paper_default();
    let sim = scale.sim_config();
    let faults = fault_config(mtbf_s);
    let process = ArrivalProcess::Closed {
        queue_length: QUEUE_LENGTH,
    };
    let mut reports = Vec::new();
    for seed in scale.seeds() {
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
        let report = if placed.catalog.stripe().is_some() {
            run_erasure_simulation(
                &placed.catalog,
                &timing,
                sched.as_mut(),
                sampler,
                process,
                &sim,
                &faults,
                seed,
                1,
            )
        } else {
            let mut factory = RequestFactory::new(sampler, process, seed);
            run_multi_drive_with_faults(
                &placed.catalog,
                &timing,
                sched.as_mut(),
                &mut factory,
                &sim,
                1,
                &faults,
                seed,
            )
        };
        #[expect(
            clippy::expect_used,
            reason = "the static study config is validated by build_placement"
        )]
        reports.push(report.expect("study config is valid"));
    }
    MetricsReport::mean_of(&reports)
}

#[expect(
    clippy::cast_precision_loss,
    reason = "read counts stay far below 2^53"
)]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the full scheme × fault matrix, prints the aligned summary
/// table, and returns the CSV (one row per point).
pub fn redundancy_csv(scale: Scale) -> String {
    let mut t = Table::new([
        "scheme",
        "expansion",
        "tape_mtbf_s",
        "throughput_kb_per_s",
        "requests_per_min",
        "mean_delay_s",
        "p95_delay_s",
        "tape_switches",
        "physical_reads",
        "reads_per_logical",
        "admitted",
        "served",
        "failed_requests",
        "failed_frac",
        "replica_failovers",
        "ec_unavailable",
        "saturated",
    ]);
    let mut shown = Table::new([
        "scheme",
        "mtbf(s)",
        "KB/s",
        "p95(s)",
        "reads/logical",
        "failed%",
    ]);
    for case in default_schemes() {
        let expansion = scheme_expansion_factor(case.scheme, 10.0);
        for mtbf_s in TAPE_MTBF_LEVELS_S {
            let r = run_point(case, mtbf_s, scale);
            let mtbf_label = mtbf_s.map_or_else(|| "none".to_string(), |s| s.to_string());
            t.push([
                case.label.to_string(),
                fnum(expansion, 2),
                mtbf_label.clone(),
                fnum(r.throughput_kb_per_s, 3),
                fnum(r.requests_per_min, 4),
                fnum(r.mean_delay_s, 1),
                fnum(r.p95_delay_s, 1),
                r.tape_switches.to_string(),
                r.physical_reads.to_string(),
                fnum(ratio(r.physical_reads, r.served), 3),
                r.admitted.to_string(),
                r.served.to_string(),
                r.failed_requests.to_string(),
                fnum(ratio(r.failed_requests, r.admitted), 4),
                r.replica_failovers.to_string(),
                r.ec_unavailable.to_string(),
                r.saturated.to_string(),
            ]);
            shown.push([
                case.label.to_string(),
                mtbf_label,
                fnum(r.throughput_kb_per_s, 1),
                fnum(r.p95_delay_s, 0),
                fnum(ratio(r.physical_reads, r.served), 2),
                fnum(100.0 * ratio(r.failed_requests, r.admitted), 2),
            ]);
        }
    }
    println!("{}", shown.to_aligned());
    t.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_match_storage_expansion() {
        let schemes = default_schemes();
        let e: Vec<f64> = schemes
            .iter()
            .map(|c| scheme_expansion_factor(c.scheme, 10.0))
            .collect();
        assert_eq!(e[0], 1.0, "baseline stores no extra copies");
        assert!(
            (e[1] - e[2]).abs() < 1e-9,
            "replication and striping must match: {} vs {}",
            e[1],
            e[2]
        );
    }

    #[test]
    fn expected_rows_matches_matrix() {
        assert_eq!(expected_rows(), 9);
    }

    #[test]
    fn fault_levels_include_a_faultless_baseline() {
        assert_eq!(TAPE_MTBF_LEVELS_S[0], None);
        assert!(fault_config(TAPE_MTBF_LEVELS_S[0]).is_inert());
        assert!(!fault_config(TAPE_MTBF_LEVELS_S[2]).is_inert());
    }
}
