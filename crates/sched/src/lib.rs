//! # tapesim-sched
//!
//! Retrieval scheduling algorithms for tape jukeboxes, implementing
//! Section 3 of *Scheduling and Data Replication to Improve Tape Jukebox
//! Performance* (ICDE 1999):
//!
//! * the trivial [`FifoScheduler`];
//! * five *static* and five *dynamic* algorithms parameterized by a
//!   [`TapeSelectPolicy`] ([`StaticScheduler`], [`DynamicScheduler`]);
//! * the globally-optimizing [`EnvelopeScheduler`] with three tape-switch
//!   variants ([`EnvelopePolicy`]).
//!
//! Every algorithm implements the [`Scheduler`] trait — a *major
//! rescheduler* invoked at tape-switch time and an *incremental scheduler*
//! invoked for arrivals during a sweep (Section 2.2's service model).
//! Sweep costs and effective bandwidths are computed with the exact
//! Section 2.1 timing model via the [`cost`] module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cost;
pub mod ec;
pub mod envelope;
pub mod families;
pub mod fifo;
pub mod optimal;
pub mod registry;
pub mod select;

pub use api::{
    ArrivalOutcome, FleetView, JukeboxView, PendingList, ScheduledRead, Scheduler, ServiceList,
    SweepPhase, SweepPlan,
};
pub use cost::{
    candidate_for_tape, effective_bandwidth, execution_cost, forward_list_for, mount_cost,
    split_sweep, start_head, walk_cost, TapeCandidate,
};
pub use ec::{choose_shards, shard_pick_cost};
pub use envelope::{
    compute_upper_envelope, prefix_cost, EnvelopePolicy, EnvelopeScheduler, UpperEnvelope,
};
pub use families::{DynamicScheduler, StaticScheduler};
pub use fifo::FifoScheduler;
pub use registry::{make_scheduler, AlgorithmId};
pub use select::TapeSelectPolicy;
