//! Placements pinned as data: every replication configuration of the
//! paper's grid, on the paper and the five-tape geometries, plus fleet
//! placements under both replica scopes and erasure layouts. Each row
//! of `tests/golden/placement_reports.txt` holds one configuration's
//! `num_blocks`, `hot_count`, `hot_tapes` and an FNV-1a hash of every
//! block's replica list, or the [`PlacementError`] it is refused with.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test placement_reports
//! ```

use integration_tests::pinned::{fnv1a, Table};
use tapesim::layout::{
    build_fleet_placement, build_placement, BlockId, LayoutKind, PlacedCatalog, PlacementConfig,
    PlacementError, PlacementScheme, ReplicaScope,
};
use tapesim::model::{BlockSize, InterLibraryModel, JukeboxGeometry, RobotModel, Topology};

/// One placement: a configuration, and the fleet it spreads over
/// (`None` for the classic jukebox).
struct Scenario {
    name: String,
    geometry: JukeboxGeometry,
    cfg: PlacementConfig,
    fleet: Option<(Topology, ReplicaScope)>,
}

fn layout_name(layout: LayoutKind) -> &'static str {
    match layout {
        LayoutKind::Horizontal => "horizontal",
        LayoutKind::Vertical => "vertical",
    }
}

/// The classic grid: geometry × layout × NR 0/1/3/max × PH × SP.
fn classic() -> Vec<Scenario> {
    let mut all = Vec::new();
    for (geo, geometry) in [
        ("paper", JukeboxGeometry::PAPER_DEFAULT),
        ("five-tape", JukeboxGeometry::FIVE_TAPE),
    ] {
        for layout in [LayoutKind::Horizontal, LayoutKind::Vertical] {
            for nr in [0, 1, 3, u32::from(geometry.tapes) - 1] {
                for ph in [0.0, 10.0, 50.0] {
                    for sp in [0.0, 0.5, 1.0] {
                        all.push(Scenario {
                            name: format!("{geo} {} nr-{nr} ph-{ph} sp-{sp}", layout_name(layout)),
                            geometry,
                            cfg: PlacementConfig {
                                layout,
                                ph_percent: ph,
                                scheme: PlacementScheme::Replication { nr },
                                sp,
                            },
                            fleet: None,
                        });
                    }
                }
            }
        }
    }
    all
}

fn scheme_name(scheme: PlacementScheme) -> String {
    match scheme {
        PlacementScheme::Replication { nr } => format!("nr-{nr}"),
        PlacementScheme::Erasure { k, m } => format!("erasure-{k}+{m}"),
    }
}

/// The PH-10 placements beyond the classic grid: replication over
/// `tapebench`'s fleet-recall topology and a two-library paper jukebox,
/// then erasure striping in both layouts, on the classic jukebox at 4+2
/// and on both fleets at `redundancy_study`'s 2+2 (the two-library
/// jukebox at 4+2 too). Each fleet placement is built under both replica
/// scopes.
fn fleets() -> Vec<Scenario> {
    let uniform = |libraries, drives, tapes| {
        Topology::uniform(
            libraries,
            drives,
            1,
            tapes,
            RobotModel::exb210(),
            InterLibraryModel::DEFAULT,
        )
        .unwrap()
    };
    let paper = JukeboxGeometry::PAPER_DEFAULT;
    let fleet_recall = (
        "fleet-recall 4x50",
        JukeboxGeometry::new(200, paper.tape_capacity_mb),
        Some(uniform(4, 2, 50)),
    );
    let paper_2x5 = ("paper 2x5", paper, Some(uniform(2, 1, 5)));
    let classic = ("paper", paper, None);
    let (h, v) = (LayoutKind::Horizontal, LayoutKind::Vertical);
    let nr = |nr| PlacementScheme::Replication { nr };
    let ec = |k, m| PlacementScheme::Erasure { k, m };
    let mut runs = vec![
        (&fleet_recall, h, nr(1), 0.0),
        (&paper_2x5, h, nr(2), 0.0),
        (&paper_2x5, v, nr(3), 1.0),
        (&classic, h, ec(4, 2), 0.0),
        (&classic, v, ec(4, 2), 0.0),
    ];
    for layout in [h, v] {
        for (k, sp) in [(2, 0.0), (2, 1.0), (4, 0.0), (4, 1.0)] {
            runs.push((&paper_2x5, layout, ec(k, 2), sp));
        }
    }
    runs.extend([h, v].map(|layout| (&fleet_recall, layout, ec(2, 2), 0.0)));
    let mut all = Vec::new();
    for ((fleet, geometry, topology), layout, scheme, sp) in runs {
        let name = format!(
            "{fleet} {} {} ph-10 sp-{sp}",
            layout_name(layout),
            scheme_name(scheme)
        );
        let cfg = PlacementConfig {
            layout,
            ph_percent: 10.0,
            scheme,
            sp,
        };
        let Some(topology) = topology else {
            all.push(Scenario {
                name,
                geometry: *geometry,
                cfg,
                fleet: None,
            });
            continue;
        };
        for scope in [ReplicaScope::InLibrary, ReplicaScope::CrossLibrary] {
            all.push(Scenario {
                name: format!("{name} {scope:?}"),
                geometry: *geometry,
                cfg,
                fleet: Some((topology.clone(), scope)),
            });
        }
    }
    all
}

fn scenarios() -> Vec<Scenario> {
    classic().into_iter().chain(fleets()).collect()
}

fn name(sc: &Scenario) -> String {
    sc.name.clone()
}

/// Sorted tape ids as compact ranges, e.g. `0-2,5`.
fn tape_ranges(placed: &PlacedCatalog) -> String {
    let mut runs: Vec<(u16, u16)> = Vec::new();
    for t in placed.hot_tapes.iter().map(|t| t.0) {
        match runs.last_mut() {
            Some((_, hi)) if *hi + 1 == t => *hi = t,
            _ => runs.push((t, t)),
        }
    }
    let parts: Vec<String> = runs
        .iter()
        .map(|&(lo, hi)| {
            if lo == hi {
                lo.to_string()
            } else {
                format!("{lo}-{hi}")
            }
        })
        .collect();
    parts.join(",")
}

fn row(sc: &Scenario) -> String {
    let built: Result<PlacedCatalog, PlacementError> = match &sc.fleet {
        None => build_placement(sc.geometry, BlockSize::PAPER_DEFAULT, sc.cfg),
        Some((topology, scope)) => build_fleet_placement(
            sc.geometry,
            BlockSize::PAPER_DEFAULT,
            sc.cfg,
            topology,
            *scope,
        ),
    };
    match built {
        Ok(placed) => {
            let c = &placed.catalog;
            let copies = (0..c.num_blocks()).flat_map(|b| {
                let addrs = c.replicas(BlockId(b));
                let len = u32::try_from(addrs.len()).unwrap();
                len.to_le_bytes()
                    .into_iter()
                    .chain(addrs.iter().flat_map(|a| {
                        a.tape
                            .0
                            .to_le_bytes()
                            .into_iter()
                            .chain(a.slot.0.to_le_bytes())
                    }))
            });
            format!(
                "{}: num_blocks={} hot_count={} hot_tapes={} replicas={:016x}",
                sc.name,
                c.num_blocks(),
                c.hot_count(),
                tape_ranges(&placed),
                fnv1a(copies),
            )
        }
        Err(e) => format!("{}: error={e:?}", sc.name),
    }
}

const TABLE: Table<Scenario> = Table {
    file: "placement_reports.txt",
    test: "placement_reports",
    all: scenarios,
    name,
    row,
};

#[test]
fn classic_placements_match_their_pinned_reports() {
    TABLE.assert_pinned(&classic());
}

#[test]
fn fleet_and_erasure_placements_match_their_pinned_reports() {
    TABLE.assert_pinned(&fleets());
}
