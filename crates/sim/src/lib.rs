//! # tapesim-sim
//!
//! Discrete-event simulator for the tape-jukebox service model of
//! *Scheduling and Data Replication to Improve Tape Jukebox Performance*
//! (ICDE 1999), Section 2.2.
//!
//! The read core, [`SteppedMultiDrive`] in [`multidrive`], executes the
//! four-step service loop (major reschedule, tape switch, sweep execution
//! with incremental scheduling of arrivals, idle wait) for each of one or
//! more drives, against any [`tapesim_sched::Scheduler`], a
//! [`tapesim_layout::Catalog`], and a [`tapesim_workload::RequestFactory`].
//! One drive is the paper's configuration. [`writeback`] keeps its own
//! single-drive core for the delta-destage extension.
//! [`metrics`] collects throughput/delay/switch statistics over a
//! measurement window, and [`runner`] averages runs across seeds in
//! parallel. [`trace`] records the per-event timeline of a run (mounts,
//! locates, reads, sweep boundaries, faults) for invariant checking and
//! golden-trace testing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ec;
pub mod error;
pub mod metrics;
pub mod multidrive;
pub mod runner;
pub mod service;
pub mod stepped;
pub mod trace;
pub mod writeback;

pub use ec::run_erasure_simulation;
pub use error::SimError;
pub use metrics::{DelayPercentiles, MetricsCollector, MetricsReport};
pub use multidrive::{
    run_fleet, run_fleet_traced, run_multi_drive, run_multi_drive_traced,
    run_multi_drive_with_faults, SimConfig, SteppedMultiDrive,
};
pub use runner::{default_seeds, run_one, run_paired, run_seeds, run_seeds_pooled, RunSpec};
pub use service::{
    AdmissionPolicy, JukeboxService, ServiceConfig, ServiceStats, Ticket, TicketState,
};
pub use stepped::{CheckpointOpts, EngineEvent, StepOutcome};
pub use trace::{
    check_trace, JsonlSink, MemorySink, NullSink, RingSink, TraceEvent, TraceRecord, TraceSink,
    Tracer,
};
pub use writeback::{
    run_with_writeback, run_with_writeback_traced, FlushPolicy, SteppedWriteBack, WriteBackConfig,
    WriteBackReport,
};
