//! Typed simulation errors.
//!
//! The simulator used to `panic!`/`expect` on impossible-by-construction
//! conditions (a closed workload yielding no interarrival gap, a drive
//! count of zero). Those conditions are reachable from configuration, so
//! they are surfaced as values instead: every entry point returns
//! `Result<_, SimError>` and the process never aborts on bad input.

use std::fmt;

/// An error raised by a simulation entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A configuration parameter is out of range or inconsistent (for
    /// example `warmup >= duration`, zero drives, more drives than tapes,
    /// or an invalid fault probability).
    InvalidConfig(&'static str),
    /// An open-queuing code path asked the workload factory for an
    /// interarrival gap but the factory models a closed queue.
    ClosedArrivalStream,
    /// A per-seed simulation worker thread panicked; the payload is the
    /// panic message when one was available.
    WorkerPanicked(String),
    /// The service admission queue is full and the admission policy
    /// rejects new work ([`crate::service::AdmissionPolicy::RejectNew`],
    /// or shed-oldest with nothing cancellable to shed). Typed
    /// backpressure: the caller should retry later or slow down.
    Overloaded,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
            SimError::ClosedArrivalStream => {
                write!(f, "open-queuing arrivals requested from a closed workload")
            }
            SimError::WorkerPanicked(msg) => write!(f, "simulation worker panicked: {msg}"),
            SimError::Overloaded => {
                write!(f, "admission queue full: request rejected (backpressure)")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SimError::InvalidConfig("warmup must precede the horizon")
            .to_string()
            .contains("warmup"));
        assert!(SimError::ClosedArrivalStream.to_string().contains("closed"));
        assert!(SimError::WorkerPanicked("boom".into())
            .to_string()
            .contains("boom"));
    }
}
