//! The fleet saturation study: simulated throughput and tail response
//! versus fleet size (libraries × drives × robot arms) at a fixed
//! workload, contrasting in-library and cross-library replica placement.
//!
//! Every point runs the same closed queue (120 requests, RH-40 over a
//! PH-10 horizontal layout) under the paper's recommended scheduler, so
//! differences between rows measure only the fleet shape and the replica
//! scope: how much adding drives buys once they contend for robot arms,
//! and how much cross-library replicas relieve the home library's arm.

use tapesim::prelude::*;
use tapesim::sim::run_fleet;

/// One fleet shape in the saturation sweep. Libraries are identical
/// EXB-210-style cabinets of [`TAPES_PER_LIBRARY`] shelves, connected by
/// the default pass-through model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCase {
    /// Number of libraries.
    pub libraries: u16,
    /// Drives per library.
    pub drives: u16,
    /// Robot arms per library.
    pub robots: u16,
}

/// Shelf slots per library — one paper cabinet each, so fleet capacity
/// grows with library count.
pub const TAPES_PER_LIBRARY: u16 = 10;

/// Fixed closed-queue length shared by every point of the sweep.
pub const QUEUE_LENGTH: u32 = 120;

impl FleetCase {
    /// Short label like `2Lx2Dx1R`.
    pub fn label(&self) -> String {
        format!("{}Lx{}Dx{}R", self.libraries, self.drives, self.robots)
    }

    /// Total drives across the fleet.
    pub fn total_drives(&self) -> u16 {
        self.libraries * self.drives
    }

    /// The fleet topology for this case.
    #[expect(
        clippy::expect_used,
        reason = "sweep cases are static and non-degenerate"
    )]
    pub fn topology(&self) -> Topology {
        Topology::uniform(
            self.libraries,
            self.drives,
            self.robots,
            TAPES_PER_LIBRARY,
            RobotModel::exb210(),
            InterLibraryModel::DEFAULT,
        )
        .expect("sweep cases are non-degenerate")
    }

    /// The jukebox geometry matching this fleet's shelf total.
    pub fn geometry(&self) -> JukeboxGeometry {
        JukeboxGeometry::new(
            self.libraries * TAPES_PER_LIBRARY,
            JukeboxGeometry::PAPER_DEFAULT.tape_capacity_mb,
        )
    }
}

/// The default sweep: drive scaling across library counts (1, 2, 4
/// cabinets of two drives each), plus a single-library pair isolating
/// the robot-arm axis (four drives behind one arm versus two arms).
pub fn default_cases() -> Vec<FleetCase> {
    vec![
        FleetCase {
            libraries: 1,
            drives: 2,
            robots: 1,
        },
        FleetCase {
            libraries: 2,
            drives: 2,
            robots: 1,
        },
        FleetCase {
            libraries: 4,
            drives: 2,
            robots: 1,
        },
        FleetCase {
            libraries: 1,
            drives: 4,
            robots: 1,
        },
        FleetCase {
            libraries: 1,
            drives: 4,
            robots: 2,
        },
    ]
}

/// The replica counts contrasted at every fleet size.
pub const REPLICA_COUNTS: [u32; 3] = [0, 1, 3];

/// Rows the saturation CSV always contains (excluding the header):
/// NR-0 contributes one row per case, each NR > 0 contributes one row
/// per scope per case. The CI schema check pins this count.
pub fn expected_rows() -> usize {
    let per_case = 1 + 2 * (REPLICA_COUNTS.len() - 1);
    default_cases().len() * per_case
}

/// Runs one point of the sweep, averaged over the scale's seeds.
fn run_point(case: FleetCase, nr: u32, scope: ReplicaScope, scale: Scale) -> MetricsReport {
    let geometry = case.geometry();
    let topology = case.topology();
    let cfg = PlacementConfig {
        layout: LayoutKind::Horizontal,
        ph_percent: 10.0,
        scheme: PlacementScheme::Replication { nr },
        sp: 0.0,
    };
    #[expect(
        clippy::expect_used,
        reason = "NR <= 3 on 10-shelf cabinets always fits"
    )]
    let placed = build_fleet_placement(geometry, BlockSize::PAPER_DEFAULT, cfg, &topology, scope)
        .expect("sweep placements are feasible");
    let timing = TimingModel::paper_default();
    let sim = scale.sim_config();
    let mut reports = Vec::new();
    for seed in scale.seeds() {
        let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
        let mut factory = RequestFactory::new(
            sampler,
            ArrivalProcess::Closed {
                queue_length: QUEUE_LENGTH,
            },
            seed,
        );
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        #[expect(
            clippy::expect_used,
            reason = "the static sweep config is validated by topology()"
        )]
        reports.push(
            run_fleet(
                &placed.catalog,
                &timing,
                topology.clone(),
                sched.as_mut(),
                &mut factory,
                &sim,
                &FaultConfig::NONE,
                0,
            )
            .expect("fleet config is valid"),
        );
    }
    MetricsReport::mean_of(&reports)
}

/// Runs the full saturation matrix, prints the aligned summary table,
/// and returns the CSV (one row per fleet case × NR × scope).
pub fn saturation_csv(scale: Scale) -> String {
    let mut t = Table::new([
        "fleet",
        "libraries",
        "drives",
        "robots",
        "nr",
        "scope",
        "throughput_kb_per_s",
        "requests_per_min",
        "mean_delay_s",
        "p95_delay_s",
        "tape_switches",
        "saturated",
    ]);
    let mut shown = Table::new(["fleet", "nr", "scope", "KB/s", "p95(s)", "switches"]);
    for case in default_cases() {
        for nr in REPLICA_COUNTS {
            let scopes: &[(&str, ReplicaScope)] = if nr == 0 {
                &[("none", ReplicaScope::InLibrary)]
            } else {
                &[
                    ("in_lib", ReplicaScope::InLibrary),
                    ("cross_lib", ReplicaScope::CrossLibrary),
                ]
            };
            for (scope_label, scope) in scopes {
                let r = run_point(case, nr, *scope, scale);
                t.push([
                    case.label(),
                    case.libraries.to_string(),
                    case.total_drives().to_string(),
                    (case.libraries * case.robots).to_string(),
                    nr.to_string(),
                    (*scope_label).to_string(),
                    fnum(r.throughput_kb_per_s, 3),
                    fnum(r.requests_per_min, 4),
                    fnum(r.mean_delay_s, 1),
                    fnum(r.p95_delay_s, 1),
                    r.tape_switches.to_string(),
                    r.saturated.to_string(),
                ]);
                shown.push([
                    case.label(),
                    nr.to_string(),
                    (*scope_label).to_string(),
                    fnum(r.throughput_kb_per_s, 1),
                    fnum(r.p95_delay_s, 0),
                    r.tape_switches.to_string(),
                ]);
            }
        }
    }
    println!("{}", shown.to_aligned());
    t.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_at_least_three_fleet_sizes() {
        let cases = default_cases();
        let mut drive_counts: Vec<u16> = cases.iter().map(FleetCase::total_drives).collect();
        drive_counts.sort_unstable();
        drive_counts.dedup();
        assert!(drive_counts.len() >= 3, "need ≥ 3 distinct fleet sizes");
    }

    #[test]
    fn expected_rows_matches_matrix() {
        // 5 cases × (1 + 2 + 2) rows.
        assert_eq!(expected_rows(), 25);
    }

    #[test]
    fn cases_build_valid_topologies() {
        for case in default_cases() {
            let topo = case.topology();
            assert_eq!(topo.total_drives(), case.total_drives());
            topo.check_geometry(&case.geometry()).expect("consistent");
        }
    }
}
