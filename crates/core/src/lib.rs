//! # tapesim
//!
//! A complete reproduction of *Scheduling and Data Replication to Improve
//! Tape Jukebox Performance* (Hillyer, Rastogi, Silberschatz; ICDE 1999)
//! as a Rust library: the calibrated tape timing model, data placement
//! and replication schemes, fourteen scheduling algorithms including the
//! envelope-extension algorithm, a discrete-event simulator of the
//! service model, and experiment drivers that regenerate every figure of
//! the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use tapesim::prelude::*;
//!
//! // The paper's moderate-skew baseline on a short horizon.
//! let cfg = ExperimentConfig {
//!     scale: Scale::Quick,
//!     ..ExperimentConfig::paper_baseline()
//! };
//! let result = run_experiment(&cfg).unwrap();
//! assert!(result.report.throughput_kb_per_s > 0.0);
//! ```
//!
//! The crates underneath are re-exported in full: [`model`] (timing),
//! [`layout`] (placement/replication), [`workload`] (skew and arrival
//! processes), [`sched`] (algorithms), [`sim`] (engine), and
//! [`analysis`] (stats/tables/plots).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod par;

/// Statistics, fitting, tables, and plots.
pub use tapesim_analysis as analysis;
/// Data layout, placement, and replication (Sections 4.3-4.5, 4.8).
pub use tapesim_layout as layout;
/// The tape/drive/robot timing model (Section 2.1).
pub use tapesim_model as model;
/// Scheduling algorithms (Section 3).
pub use tapesim_sched as sched;
/// The discrete-event simulator (Section 2.2).
pub use tapesim_sim as sim;
/// Request generation: hot/cold skew, closed/open queuing (Section 4).
pub use tapesim_workload as workload;

pub use experiment::{
    run_experiment, run_with_catalog, ExperimentConfig, ExperimentError, ExperimentResult, Scale,
};
pub use figures::{
    baseline_report, fig10a_expansion, fig10b_cost_performance, fig1_locate_model,
    fig3_transfer_size, fig4_sched_algorithms, fig5_placement, fig6_replicas,
    fig7_replica_placement, fig8_sched_replication, fig9_skew, model_validation, sweep_intensity,
    CostPerfPoint, CostPerfSeries, Fig1Data, IntensityGrid, SweepPoint, SweepSeries,
};
pub use par::par_map_indexed;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::experiment::{
        run_experiment, run_with_catalog, ExperimentConfig, ExperimentError, ExperimentResult,
        Scale,
    };
    pub use crate::figures::*;
    pub use tapesim_analysis::{ascii_plot, fnum, Series, Table};
    pub use tapesim_layout::{
        build_fleet_placement, build_placement, build_spare_layout, expansion_factor,
        scheme_expansion_factor, BlockId, Catalog, LayoutKind, PlacementConfig, PlacementScheme,
        ReplicaScope, SpareConfig, SpareUse, StripeInfo,
    };
    pub use tapesim_model::FaultConfig;
    pub use tapesim_model::{
        BlockSize, DriveModel, InterLibraryModel, JukeboxGeometry, LibraryTopo, Micros, RobotModel,
        SimTime, SlotIndex, TapeId, TimingModel, Topology,
    };
    pub use tapesim_sched::{
        make_scheduler, AlgorithmId, EnvelopePolicy, Scheduler, TapeSelectPolicy,
    };
    pub use tapesim_sim::{run_multi_drive, MetricsReport, RunSpec, SimConfig, SimError};
    pub use tapesim_workload::{ArrivalProcess, BlockSampler, Request, RequestFactory};
}
