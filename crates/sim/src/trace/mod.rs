//! Structured event tracing for the simulation engines.
//!
//! The paper's results hinge on the simulator faithfully executing the
//! Section 2.2 service model — sweeps, mounts, locates, rewinds — yet the
//! engines' aggregate metrics cannot show *how* a number was produced.
//! This module records the per-event timeline of a run: every request
//! arrival, dispatch, and completion; every tape mount/unmount; every
//! locate/read/rewind segment; sweep phase boundaries (major reschedules
//! and forward/reverse phase starts, plus incremental-scheduler
//! insertions); and every fault/failover event. Each record is stamped
//! with the simulation time at which the event *ended*, the drive that
//! performed it, and — where applicable — tape, slot, and request ids.
//!
//! Tracing is zero-cost when disabled: the engines consult
//! [`TraceSink::enabled`] once per run and skip event construction
//! entirely for the [`NullSink`], so the untraced entry points
//! ([`crate::run_multi_drive`] and friends) pay only a cached branch.
//!
//! On top of the raw stream sit:
//!
//! * [`check`] — a trace-invariant checker validating physical-model
//!   invariants (monotonic per-drive clocks, no read without a mounted
//!   tape, §2.2 forward/reverse stop ordering, request conservation);
//! * [`analysis`] — latency percentiles and a per-phase time breakdown
//!   (mount/locate/transfer/rewind/idle) derived from the event stream;
//! * [`jsonl`] — a line-per-event JSON serialization, its parser, and a
//!   structural golden-trace comparator with readable diffs.

pub mod analysis;
pub mod check;
pub mod jsonl;
mod sink;

use tapesim_layout::BlockId;
use tapesim_model::{Micros, SimTime, SlotIndex, TapeId};
use tapesim_sched::SweepPhase;
use tapesim_workload::RequestId;

pub use analysis::{summarize, PhaseBreakdown, TraceSummary};
pub use check::{check_trace, TraceStats, Violation};
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink};

/// Pseudo drive id for events that belong to the jukebox as a whole
/// rather than to one drive (request arrivals and permanent failures of
/// still-pending requests). Excluded from per-drive clock checks.
pub const SYSTEM_DRIVE: u16 = u16::MAX;

/// One traced event with its timestamp and originating drive.
///
/// `at` is the simulation time at which the event *completed* (for
/// durational events such as locates and reads, the end of the segment;
/// the duration is carried in the event payload). `seq` is a strictly
/// increasing emission counter that breaks timestamp ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Strictly increasing emission counter within one run.
    pub seq: u64,
    /// Simulation time at which the event ended.
    pub at: SimTime,
    /// The drive the event belongs to, or [`SYSTEM_DRIVE`].
    pub drive: u16,
    /// The event itself.
    pub event: TraceEvent,
}

/// The vocabulary of traced events.
///
/// Tape/slot/request ids are carried where the physical model defines
/// them; durations are integer microseconds ([`Micros`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request entered the system. `at` is the arrival instant.
    Arrival {
        /// The arriving request.
        req: RequestId,
        /// The block it asks for.
        block: BlockId,
    },
    /// The incremental scheduler handled an arrival during a sweep:
    /// inserted it into the running service list (`inserted`) or deferred
    /// it to the pending list.
    Incremental {
        /// The request handled.
        req: RequestId,
        /// The tape of the running sweep.
        tape: TapeId,
        /// True if the request was inserted into the sweep.
        inserted: bool,
    },
    /// The major rescheduler selected a tape and formed a service list.
    SweepStart {
        /// The selected tape.
        tape: TapeId,
        /// Stops in the initial service list.
        stops: u32,
        /// Requests across those stops.
        requests: u32,
    },
    /// The first stop of a sweep phase is about to execute (forward
    /// locates only vs. reverse locates only, §2.2).
    PhaseStart {
        /// The sweeping tape.
        tape: TapeId,
        /// Which phase begins.
        phase: SweepPhase,
    },
    /// A locate segment ended: the head moved from `from` to `to`.
    Locate {
        /// The mounted tape.
        tape: TapeId,
        /// Head position before the locate.
        from: SlotIndex,
        /// Head position after the locate (the slot about to be read).
        to: SlotIndex,
        /// Locate duration.
        dur: Micros,
    },
    /// A block transfer ended.
    Read {
        /// The mounted tape.
        tape: TapeId,
        /// The slot read.
        slot: SlotIndex,
        /// The sweep phase the stop belonged to.
        phase: SweepPhase,
        /// Transfer duration.
        dur: Micros,
    },
    /// A rewind to beginning-of-tape ended (always precedes an eject).
    Rewind {
        /// The mounted tape.
        tape: TapeId,
        /// Head position the rewind started from.
        from: SlotIndex,
        /// Rewind duration.
        dur: Micros,
    },
    /// The mounted tape was ejected and returned to its shelf.
    Unmount {
        /// The tape unmounted.
        tape: TapeId,
    },
    /// A tape finished loading into the drive. `dur` is the switch time
    /// excluding any preceding rewind (eject + robot exchange(s) + load,
    /// including failed-load retries).
    Mount {
        /// The tape now mounted.
        tape: TapeId,
        /// Eject + exchange + load duration.
        dur: Micros,
    },
    /// The service list was exhausted; the sweep is complete.
    SweepEnd {
        /// The tape that was swept.
        tape: TapeId,
    },
    /// A request's block was delivered.
    Complete {
        /// The completed request.
        req: RequestId,
        /// The tape it was served from.
        tape: TapeId,
        /// Response time (completion minus arrival).
        delay: Micros,
    },
    /// The drive idled waiting for the next event.
    Idle {
        /// Idle duration.
        dur: Micros,
    },
    /// A read pass failed with a media error (the pass's transfer time
    /// was still spent).
    MediaError {
        /// The mounted tape.
        tape: TapeId,
        /// The slot whose read failed.
        slot: SlotIndex,
    },
    /// Media-error retries were exhausted: this physical copy is
    /// permanently unreadable.
    CopyLost {
        /// The tape holding the lost copy.
        tape: TapeId,
        /// The slot of the lost copy.
        slot: SlotIndex,
    },
    /// Load retries were exhausted while switching to `tape`; the tape
    /// failed. `dur` is the switch time wasted on the attempts.
    LoadFailed {
        /// The tape that failed to load.
        tape: TapeId,
        /// Switch time spent before giving up.
        dur: Micros,
    },
    /// The tape went offline under an active sweep (tape failure); the
    /// sweep was aborted and its requests requeued.
    TapeOffline {
        /// The failed tape.
        tape: TapeId,
    },
    /// The drive was down for repair after a whole-drive failure.
    DriveRepair {
        /// Repair duration.
        dur: Micros,
    },
    /// Every copy of the request's block is lost; the request failed
    /// permanently.
    RequestFailed {
        /// The failed request.
        req: RequestId,
    },
    /// A request disrupted by a fault on `from` completed from a replica
    /// on `to`.
    Failover {
        /// The failed-over request.
        req: RequestId,
        /// The tape the fault disrupted.
        from: TapeId,
        /// The tape that served the request instead.
        to: TapeId,
    },
    /// A mount waited for its library's robot arm to come free (fleet
    /// topologies only; never emitted by the legacy single-robot shape).
    /// `at` is the instant the wait ended.
    RobotBusy {
        /// Global robot index (see `Topology::robot_base`).
        robot: u16,
        /// How long the mount waited behind earlier exchanges.
        dur: Micros,
    },
    /// A robot arm finished an exchange leg for `tape` (fleet topologies
    /// only). `at` is the instant the arm came free again; `dur` covers
    /// the whole leg (export, pass-through + exchange, or a retry
    /// exchange).
    RobotExchange {
        /// Global robot index performing the leg.
        robot: u16,
        /// The tape being moved.
        tape: TapeId,
        /// Arm-busy duration of this leg.
        dur: Micros,
    },
    /// Buffered delta blocks were destaged to `tape` (write-back
    /// extension).
    DeltaFlush {
        /// The destination tape.
        tape: TapeId,
        /// Delta blocks written.
        blocks: u32,
        /// True when piggybacked on a read sweep, false for a dedicated
        /// idle-time flush.
        piggyback: bool,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the event kind (the `ev` field of the
    /// JSONL schema).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::Incremental { .. } => "incremental",
            TraceEvent::SweepStart { .. } => "sweep_start",
            TraceEvent::PhaseStart { .. } => "phase_start",
            TraceEvent::Locate { .. } => "locate",
            TraceEvent::Read { .. } => "read",
            TraceEvent::Rewind { .. } => "rewind",
            TraceEvent::Unmount { .. } => "unmount",
            TraceEvent::Mount { .. } => "mount",
            TraceEvent::SweepEnd { .. } => "sweep_end",
            TraceEvent::Complete { .. } => "complete",
            TraceEvent::Idle { .. } => "idle",
            TraceEvent::MediaError { .. } => "media_error",
            TraceEvent::CopyLost { .. } => "copy_lost",
            TraceEvent::LoadFailed { .. } => "load_failed",
            TraceEvent::TapeOffline { .. } => "tape_offline",
            TraceEvent::DriveRepair { .. } => "drive_repair",
            TraceEvent::RequestFailed { .. } => "request_failed",
            TraceEvent::Failover { .. } => "failover",
            TraceEvent::RobotBusy { .. } => "robot_busy",
            TraceEvent::RobotExchange { .. } => "robot_exchange",
            TraceEvent::DeltaFlush { .. } => "delta_flush",
        }
    }
}

/// The engines' emission handle: caches `sink.enabled()` so the disabled
/// path costs one predictable branch per event site, and stamps records
/// with a strictly increasing sequence number.
pub struct Tracer<'a> {
    sink: &'a mut dyn TraceSink,
    /// Cached `sink.enabled()`; engines must skip event construction when
    /// false (the [`trace_event!`](crate::trace_event) macro does this).
    pub on: bool,
    seq: u64,
}

impl<'a> Tracer<'a> {
    /// Wraps a sink for one simulation run.
    pub fn new(sink: &'a mut dyn TraceSink) -> Self {
        let on = sink.enabled();
        Tracer { sink, on, seq: 0 }
    }

    /// Records one event. Callers should guard with `self.on` (or use the
    /// `trace_event!` macro) so payload construction is skipped when
    /// tracing is off.
    #[inline]
    pub fn push(&mut self, at: SimTime, drive: u16, event: TraceEvent) {
        if self.on {
            self.sink.record(TraceRecord {
                seq: self.seq,
                at,
                drive,
                event,
            });
            self.seq += 1;
        }
    }
}

/// Emits a trace event without constructing the payload when tracing is
/// disabled.
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $at:expr, $drive:expr, $ev:expr) => {
        if $tracer.on {
            $tracer.push($at, $drive, $ev);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_snake_case() {
        let kinds = [
            TraceEvent::Arrival {
                req: RequestId(0),
                block: BlockId(0),
            }
            .kind(),
            TraceEvent::Idle { dur: Micros::ZERO }.kind(),
            TraceEvent::SweepStart {
                tape: TapeId(0),
                stops: 0,
                requests: 0,
            }
            .kind(),
        ];
        assert_eq!(kinds, ["arrival", "idle", "sweep_start"]);
        for k in kinds {
            assert!(k.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn tracer_stamps_increasing_seq() {
        let mut sink = MemorySink::new();
        let mut t = Tracer::new(&mut sink);
        assert!(t.on);
        t.push(SimTime::ZERO, 0, TraceEvent::Idle { dur: Micros::ZERO });
        t.push(
            SimTime::from_secs(1),
            0,
            TraceEvent::Idle {
                dur: Micros::SECOND,
            },
        );
        let events = sink.into_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
    }

    #[test]
    fn null_sink_disables_tracer() {
        let mut sink = NullSink;
        let t = Tracer::new(&mut sink);
        assert!(!t.on);
    }
}
