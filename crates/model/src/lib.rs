//! # tapesim-model
//!
//! The tape and jukebox performance model of *Scheduling and Data
//! Replication to Improve Tape Jukebox Performance* (Hillyer, Rastogi,
//! Silberschatz; ICDE 1999), Section 2.
//!
//! This crate provides:
//!
//! * integer simulation time ([`Micros`], [`SimTime`]);
//! * tape addressing and jukebox geometry ([`TapeId`], [`SlotIndex`],
//!   [`BlockSize`], [`JukeboxGeometry`]);
//! * the calibrated Exabyte EXB-8505XL / EXB-210 timing model
//!   ([`DriveModel`], [`RobotModel`], [`TimingModel`]) with the paper's
//!   four-regime piecewise-linear locate function, read model, rewind
//!   overhead, and tape-switch decomposition;
//! * a synthetic measurement source ([`synth`]) standing in for the
//!   physical drive, and the Section 2.1 random-walk validation
//!   ([`validate`]).
//!
//! The primary model assumes single-pass (helical-scan) tape technology,
//! as in the paper: the drive can read an entire tape in one forward pass
//! and must rewind a tape before ejecting it. The [`serpentine`] module
//! additionally models the multi-track formats the paper scopes out
//! (Travan/DLT/3590-style), for the single-tape scheduling comparison in
//! the `ext_serpentine` experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod faults;
pub mod serpentine;
pub mod synth;
pub mod time;
pub mod topology;
pub mod units;
pub mod validate;

pub use drive::{
    DriveModel, LinearSegment, LocateDirection, LocateModel, ReadContext, ReadModel, RobotModel,
    TimingModel,
};
pub use faults::{substream, FaultConfig, FaultInjector};
pub use serpentine::{
    logical_sweep_order, nearest_neighbor_order, SerpentineGeometry, SerpentineModel, SerpentinePos,
};
pub use time::{Micros, SimTime};
pub use topology::{InterLibraryModel, LibraryTopo, Topology, TopologyError};
pub use units::{BlockSize, JukeboxGeometry, PhysicalAddr, SlotIndex, TapeId};
pub use validate::{validate_model, ValidationConfig, ValidationReport, WalkError};
