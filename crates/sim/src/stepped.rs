//! Shared vocabulary of the poll-driven stepped engine core.
//!
//! There is one stepped core, the read core
//! [`SteppedMultiDrive`](crate::SteppedMultiDrive), which runs one drive
//! (the paper's configuration) or more;
//! [`SteppedWriteBack`](crate::SteppedWriteBack) is that core with delta
//! destage attached as a work source. Every batch entry point
//! (`run_multi_drive*`, `run_fleet*`, `run_with_writeback*`) is a thin
//! driver over it: construct the core, call
//! [`step`](crate::SteppedMultiDrive::step) until it reports completion,
//! then `finish()` for the report. So a stepped run and a batch run of
//! the same configuration produce **byte-identical traces and exactly
//! equal metrics reports** — the equivalence contract defended by
//! `tests/tests/stepped_differential.rs`.
//!
//! The read core also runs in *external-arrival* mode (no workload
//! factory draws): requests enter through `submit_at` and leave through
//! [`EngineEvent`]s drained between steps. This is the substrate of the
//! [`crate::service::JukeboxService`] layer.

use tapesim_model::SimTime;
use tapesim_workload::RequestId;

/// Whether a stepped core has more work to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More events remain; call `step()` again.
    Running,
    /// The horizon was reached (or the run saturated); only `finish()`
    /// remains.
    Done,
}

/// Inert: the engines have no checkpoint, and this empty type carries
/// nothing. It stays only because the out-of-workspace `tapebench`
/// package passes `&CheckpointOpts::none()` as the last argument of
/// [`SteppedMultiDrive::new`](crate::SteppedMultiDrive::new) and
/// [`SteppedWriteBack::new`](crate::SteppedWriteBack::new), which ignore
/// it. The next benchmark change deletes the type and both parameters.
#[derive(Debug)]
pub struct CheckpointOpts;

impl CheckpointOpts {
    /// The only value.
    pub fn none() -> Self {
        CheckpointOpts
    }
}

/// An externally observable request outcome, produced by a stepped core
/// running in external-arrival mode and drained by the caller between
/// steps (batch runs never produce these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// The request's block was read; the request left the system served.
    Completed {
        /// The completed request.
        req: RequestId,
        /// Completion instant.
        at: SimTime,
    },
    /// Every replica of the request's block is permanently lost; the
    /// request left the system failed.
    Failed {
        /// The failed request.
        req: RequestId,
        /// Failure instant.
        at: SimTime,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_events_carry_identity_and_time() {
        let c = EngineEvent::Completed {
            req: RequestId(3),
            at: SimTime::from_secs(2),
        };
        let f = EngineEvent::Failed {
            req: RequestId(3),
            at: SimTime::from_secs(2),
        };
        assert_ne!(c, f);
        assert_eq!(c, c);
    }
}
