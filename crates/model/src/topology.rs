//! Tape-library fleet topology: libraries × robots × drives × shelves.
//!
//! The paper's testbed is a single Exabyte EXB-210 — ten shelf slots, one
//! drive, one robot arm. This module generalizes that shape to a *fleet*:
//! several libraries, each with its own shelves, drives, and one or more
//! robot arms, connected by pass-through ports so a tape homed in one
//! library can be mounted by a drive in another (export at the source,
//! a per-hop pass-through walk, import at the destination).
//!
//! Identifier spaces stay **global and contiguous**: library `i` owns the
//! drive indices `[drive_base(i), drive_base(i) + drives_i)`, the robot
//! indices `[robot_base(i), robot_base(i) + robots_i)`, and the tape ids
//! `[tape_base(i), tape_base(i) + tapes_i)`. This keeps every existing
//! `TapeId`/drive-index table working unchanged and makes the
//! library-of-X mappings cheap range lookups.
//!
//! The **legacy contract**: a topology that is exactly one library with
//! one robot arm ([`Topology::is_legacy`]) must be indistinguishable from
//! the pre-fleet model — no cross-library penalties exist (there is
//! nowhere to cross to), and one robot serializes exchanges exactly the
//! way the single `robot_free` clock always has. The simulator and cost
//! model key their fleet-only behavior off `is_legacy()` so single-library
//! runs stay byte-identical to historical traces.

use crate::drive::RobotModel;
use crate::time::Micros;
use crate::units::{JukeboxGeometry, TapeId};
use std::fmt;

/// One library (jukebox cabinet) in a fleet: its shelf count, drive
/// count, and robot-arm pool.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryTopo {
    /// Number of tape drives installed in this library.
    pub drives: u16,
    /// Number of robot arms serving this library's exchanges (≥ 1).
    pub robots: u16,
    /// Number of shelf slots (tapes homed here).
    pub tapes: u16,
    /// Timing model of this library's robot arms (all arms identical).
    pub robot: RobotModel,
}

impl LibraryTopo {
    /// An EXB-210 cabinet: `drives` drives, one 20 s robot, `tapes` shelves.
    pub fn exb210(drives: u16, tapes: u16) -> Self {
        LibraryTopo {
            drives,
            robots: 1,
            tapes,
            robot: RobotModel::exb210(),
        }
    }
}

/// Latency model for moving a tape between libraries through pass-through
/// ports. Libraries are arranged in a line: moving a tape from library
/// `a` to library `b` costs one export, `|a − b|` pass-through hops, and
/// one import.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterLibraryModel {
    /// Seconds for the source library's robot to export the tape into the
    /// pass-through port.
    pub export_s: f64,
    /// Seconds per pass-through hop between adjacent libraries.
    pub pass_through_s: f64,
    /// Seconds for the destination library's robot to import the tape
    /// from the pass-through port.
    pub import_s: f64,
}

impl InterLibraryModel {
    /// No inter-library transfer capability (single-library topologies).
    pub const NONE: InterLibraryModel = InterLibraryModel {
        export_s: 0.0,
        pass_through_s: 0.0,
        import_s: 0.0,
    };

    /// A default pass-through model for fleet studies: 15 s export, 10 s
    /// per hop, 15 s import — the same order as one robot exchange, which
    /// matches published pass-through port mechanics for mid-range
    /// libraries.
    pub const DEFAULT: InterLibraryModel = InterLibraryModel {
        export_s: 15.0,
        pass_through_s: 10.0,
        import_s: 15.0,
    };

    /// Total transfer latency across `hops` adjacent-library hops (zero
    /// when `hops == 0`, i.e. the tape is already home).
    pub fn transfer(&self, hops: u16) -> Micros {
        if hops == 0 {
            return Micros::ZERO;
        }
        Micros::from_secs_f64(self.export_s + self.pass_through_s * f64::from(hops) + self.import_s)
    }
}

/// Errors detected by [`Topology::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The fleet has no libraries.
    NoLibraries,
    /// A library has zero robots (exchanges would never complete).
    NoRobots(usize),
    /// A library has zero shelf slots.
    NoTapes(usize),
    /// The fleet has zero drives in total.
    NoDrives,
    /// A global index space overflowed `u16`.
    IndexOverflow(&'static str),
    /// The fleet's total shelf count disagrees with a
    /// [`JukeboxGeometry`]'s tape count.
    GeometryMismatch {
        /// Shelves summed over all libraries.
        topology_tapes: u16,
        /// Tapes declared by the geometry.
        geometry_tapes: u16,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoLibraries => write!(f, "topology has no libraries"),
            TopologyError::NoRobots(i) => write!(f, "library {i} has no robot arms"),
            TopologyError::NoTapes(i) => write!(f, "library {i} has no shelf slots"),
            TopologyError::NoDrives => write!(f, "topology has no drives"),
            TopologyError::IndexOverflow(space) => {
                write!(f, "fleet {space} index space overflows u16")
            }
            TopologyError::GeometryMismatch {
                topology_tapes,
                geometry_tapes,
            } => write!(
                f,
                "topology holds {topology_tapes} tapes but geometry declares {geometry_tapes}"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A tape-library fleet: the ordered list of libraries plus the
/// inter-library transfer model.
///
/// Construct with [`Topology::single`] (the legacy one-cabinet shape),
/// [`Topology::uniform`] (N identical libraries), or [`Topology::new`]
/// for heterogeneous fleets. All constructors precompute the global
/// index bases so the library-of-drive/tape/robot mappings are O(log L).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    libraries: Vec<LibraryTopo>,
    /// Pass-through latency between adjacent libraries.
    pub interlib: InterLibraryModel,
    drive_base: Vec<u16>,
    robot_base: Vec<u16>,
    tape_base: Vec<u16>,
}

impl Topology {
    /// Builds a fleet from an explicit library list.
    ///
    /// # Errors
    /// Returns a [`TopologyError`] when any library is degenerate (no
    /// robots or shelves), the fleet has no drives, or a global index
    /// space overflows `u16`.
    pub fn new(
        libraries: Vec<LibraryTopo>,
        interlib: InterLibraryModel,
    ) -> Result<Self, TopologyError> {
        if libraries.is_empty() {
            return Err(TopologyError::NoLibraries);
        }
        let mut drive_base = Vec::with_capacity(libraries.len());
        let mut robot_base = Vec::with_capacity(libraries.len());
        let mut tape_base = Vec::with_capacity(libraries.len());
        let (mut d, mut r, mut t) = (0u16, 0u16, 0u16);
        for (i, lib) in libraries.iter().enumerate() {
            if lib.robots == 0 {
                return Err(TopologyError::NoRobots(i));
            }
            if lib.tapes == 0 {
                return Err(TopologyError::NoTapes(i));
            }
            drive_base.push(d);
            robot_base.push(r);
            tape_base.push(t);
            d = d
                .checked_add(lib.drives)
                .ok_or(TopologyError::IndexOverflow("drive"))?;
            r = r
                .checked_add(lib.robots)
                .ok_or(TopologyError::IndexOverflow("robot"))?;
            t = t
                .checked_add(lib.tapes)
                .ok_or(TopologyError::IndexOverflow("tape"))?;
        }
        if d == 0 {
            return Err(TopologyError::NoDrives);
        }
        Ok(Topology {
            libraries,
            interlib,
            drive_base,
            robot_base,
            tape_base,
        })
    }

    /// The legacy shape: one library, one robot arm, no pass-through.
    /// Runs under this topology are byte-identical to the pre-fleet
    /// engine (see the module docs for the contract).
    ///
    /// # Panics
    /// Panics if `drives` or `tapes` is zero (mirrors
    /// [`JukeboxGeometry::new`]).
    #[expect(
        clippy::expect_used,
        reason = "single-library invariants are asserted above, so construction cannot fail"
    )]
    pub fn single(drives: u16, tapes: u16, robot: RobotModel) -> Self {
        assert!(drives > 0, "fleet must have at least one drive");
        assert!(tapes > 0, "library must hold at least one tape");
        Topology::new(
            vec![LibraryTopo {
                drives,
                robots: 1,
                tapes,
                robot,
            }],
            InterLibraryModel::NONE,
        )
        .expect("single-library topology is always valid")
    }

    /// `libraries` identical cabinets of `drives`/`robots`/`tapes` each.
    ///
    /// # Errors
    /// Propagates [`Topology::new`] validation.
    pub fn uniform(
        libraries: u16,
        drives: u16,
        robots: u16,
        tapes: u16,
        robot: RobotModel,
        interlib: InterLibraryModel,
    ) -> Result<Self, TopologyError> {
        Topology::new(
            (0..libraries)
                .map(|_| LibraryTopo {
                    drives,
                    robots,
                    tapes,
                    robot,
                })
                .collect(),
            interlib,
        )
    }

    /// The libraries in fleet order.
    pub fn libraries(&self) -> &[LibraryTopo] {
        &self.libraries
    }

    /// Number of libraries in the fleet.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bounded by the u16 tape index space"
    )]
    pub fn library_count(&self) -> u16 {
        self.libraries.len() as u16
    }

    /// Total drives across the fleet.
    pub fn total_drives(&self) -> u16 {
        let last = self.libraries.len() - 1;
        self.drive_base[last] + self.libraries[last].drives
    }

    /// Total robot arms across the fleet.
    pub fn total_robots(&self) -> u16 {
        let last = self.libraries.len() - 1;
        self.robot_base[last] + self.libraries[last].robots
    }

    /// Total shelf slots (tapes) across the fleet.
    pub fn total_tapes(&self) -> u16 {
        let last = self.libraries.len() - 1;
        self.tape_base[last] + self.libraries[last].tapes
    }

    /// First global drive index owned by library `lib`.
    pub fn drive_base(&self, lib: u16) -> u16 {
        self.drive_base[usize::from(lib)]
    }

    /// First global robot index owned by library `lib`.
    pub fn robot_base(&self, lib: u16) -> u16 {
        self.robot_base[usize::from(lib)]
    }

    /// First tape id homed in library `lib`.
    pub fn tape_base(&self, lib: u16) -> u16 {
        self.tape_base[usize::from(lib)]
    }

    /// The library owning global drive index `drive`.
    pub fn library_of_drive(&self, drive: u16) -> u16 {
        Self::library_of(&self.drive_base, drive)
    }

    /// The library owning global robot index `robot`.
    pub fn library_of_robot(&self, robot: u16) -> u16 {
        Self::library_of(&self.robot_base, robot)
    }

    /// The library where tape `tape` is homed.
    pub fn library_of_tape(&self, tape: TapeId) -> u16 {
        Self::library_of(&self.tape_base, tape.0)
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "bounded by the u16 base table length"
    )]
    fn library_of(bases: &[u16], idx: u16) -> u16 {
        // partition_point: first base strictly greater than idx, minus one.
        let pos = bases.partition_point(|&b| b <= idx);
        debug_assert!(pos > 0, "index below first base");
        (pos - 1) as u16
    }

    /// Pass-through hops between two libraries (libraries form a line).
    pub fn hops(&self, from_lib: u16, to_lib: u16) -> u16 {
        from_lib.abs_diff(to_lib)
    }

    /// Extra latency to bring a tape homed in `tape_lib` to a drive in
    /// `drive_lib`: zero in-library, else export + hops + import.
    pub fn transfer_penalty(&self, drive_lib: u16, tape_lib: u16) -> Micros {
        self.interlib.transfer(self.hops(drive_lib, tape_lib))
    }

    /// Extra mount latency for global drive `drive` mounting `tape`,
    /// relative to an in-library mount. Zero whenever they share a
    /// library — in particular, always zero for legacy topologies.
    pub fn mount_penalty(&self, drive: u16, tape: TapeId) -> Micros {
        self.transfer_penalty(self.library_of_drive(drive), self.library_of_tape(tape))
    }

    /// `true` for the pre-fleet shape: one library, one robot arm. Legacy
    /// runs take the historical code paths exactly (no robot queueing
    /// beyond the single arm, no pass-through, no fleet trace events).
    pub fn is_legacy(&self) -> bool {
        self.libraries.len() == 1 && self.libraries.first().is_some_and(|l| l.robots == 1)
    }

    /// Checks the fleet's shelf total against a jukebox geometry.
    ///
    /// # Errors
    /// Returns [`TopologyError::GeometryMismatch`] when the totals differ.
    pub fn check_geometry(&self, geometry: &JukeboxGeometry) -> Result<(), TopologyError> {
        if self.total_tapes() != geometry.tapes {
            return Err(TopologyError::GeometryMismatch {
                topology_tapes: self.total_tapes(),
                geometry_tapes: geometry.tapes,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_legacy() {
        let t = Topology::single(2, 10, RobotModel::exb210());
        assert!(t.is_legacy());
        assert_eq!(t.library_count(), 1);
        assert_eq!(t.total_drives(), 2);
        assert_eq!(t.total_robots(), 1);
        assert_eq!(t.total_tapes(), 10);
        assert_eq!(t.mount_penalty(1, TapeId(9)), Micros::ZERO);
        assert!(t.check_geometry(&JukeboxGeometry::PAPER_DEFAULT).is_ok());
    }

    #[test]
    fn uniform_fleet_mappings() {
        let t = Topology::uniform(
            3,
            2,
            1,
            10,
            RobotModel::exb210(),
            InterLibraryModel::DEFAULT,
        )
        .unwrap();
        assert!(!t.is_legacy());
        assert_eq!(t.total_drives(), 6);
        assert_eq!(t.total_robots(), 3);
        assert_eq!(t.total_tapes(), 30);
        assert_eq!(t.library_of_drive(0), 0);
        assert_eq!(t.library_of_drive(1), 0);
        assert_eq!(t.library_of_drive(2), 1);
        assert_eq!(t.library_of_drive(5), 2);
        assert_eq!(t.library_of_tape(TapeId(9)), 0);
        assert_eq!(t.library_of_tape(TapeId(10)), 1);
        assert_eq!(t.library_of_tape(TapeId(29)), 2);
        assert_eq!(t.library_of_robot(2), 2);
        assert_eq!(t.drive_base(2), 4);
        assert_eq!(t.tape_base(1), 10);
    }

    #[test]
    fn transfer_penalty_scales_with_hops() {
        let t = Topology::uniform(3, 1, 1, 4, RobotModel::exb210(), InterLibraryModel::DEFAULT)
            .unwrap();
        assert_eq!(t.transfer_penalty(0, 0), Micros::ZERO);
        // 1 hop: 15 + 10 + 15 = 40 s.
        assert_eq!(t.transfer_penalty(0, 1), Micros::from_secs(40));
        // 2 hops: 15 + 20 + 15 = 50 s.
        assert_eq!(t.transfer_penalty(0, 2), Micros::from_secs(50));
        // Symmetric.
        assert_eq!(t.transfer_penalty(2, 0), t.transfer_penalty(0, 2));
        // Per-tape view.
        assert_eq!(t.mount_penalty(0, TapeId(5)), Micros::from_secs(40));
    }

    #[test]
    fn multi_robot_single_library_is_not_legacy() {
        let t = Topology::new(
            vec![LibraryTopo {
                drives: 4,
                robots: 2,
                tapes: 20,
                robot: RobotModel::exb210(),
            }],
            InterLibraryModel::NONE,
        )
        .unwrap();
        assert!(!t.is_legacy());
        assert_eq!(
            (t.total_drives(), t.total_robots(), t.total_tapes()),
            (4, 2, 20)
        );
    }

    #[test]
    fn validation_rejects_degenerate_fleets() {
        assert_eq!(
            Topology::new(vec![], InterLibraryModel::NONE),
            Err(TopologyError::NoLibraries)
        );
        let no_robot = vec![LibraryTopo {
            drives: 1,
            robots: 0,
            tapes: 1,
            robot: RobotModel::exb210(),
        }];
        assert_eq!(
            Topology::new(no_robot, InterLibraryModel::NONE),
            Err(TopologyError::NoRobots(0))
        );
        let no_drives = vec![LibraryTopo {
            drives: 0,
            robots: 1,
            tapes: 1,
            robot: RobotModel::exb210(),
        }];
        assert_eq!(
            Topology::new(no_drives, InterLibraryModel::NONE),
            Err(TopologyError::NoDrives)
        );
        let t = Topology::single(1, 5, RobotModel::exb210());
        assert_eq!(
            t.check_geometry(&JukeboxGeometry::PAPER_DEFAULT),
            Err(TopologyError::GeometryMismatch {
                topology_tapes: 5,
                geometry_tapes: 10,
            })
        );
    }

    #[test]
    fn geometry_roundtrip_tag() {
        let t = Topology::uniform(2, 2, 2, 5, RobotModel::exb210(), InterLibraryModel::DEFAULT)
            .unwrap();
        let shape: Vec<_> = t
            .libraries()
            .iter()
            .map(|l| (l.drives, l.robots, l.tapes))
            .collect();
        assert_eq!(shape, [(2, 2, 5), (2, 2, 5)]);
        assert!(t.check_geometry(&JukeboxGeometry::PAPER_DEFAULT).is_ok());
    }
}
