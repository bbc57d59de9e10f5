//! Trace-invariant checker.
//!
//! Validates that a recorded event stream is consistent with the physical
//! model of §2.2 — independent of which scheduler produced it. The
//! invariants:
//!
//! 1. **Ordering** — `seq` is strictly increasing, and each drive's
//!    timestamps are non-decreasing. [`SYSTEM_DRIVE`] events (arrivals,
//!    pending-request failures) are stamped with the instant the request
//!    arrived/failed, which may precede the acting drive's clock, so the
//!    system stream is exempt from the clock check.
//! 2. **Mount state machine** — a drive reads, locates, or rewinds only
//!    the tape it has mounted; a mount requires an empty drive; an
//!    unmount names the mounted tape.
//! 3. **Sweep structure** — reads happen only inside a sweep
//!    (`sweep_start` … `sweep_end`/`tape_offline`) on the sweep's tape;
//!    forward-phase reads visit strictly ascending slots, reverse-phase
//!    reads strictly descending, and no forward read follows a reverse
//!    read within one sweep (§2.2: the forward phase completes before the
//!    reverse phase begins). Exception: an `incremental` insertion
//!    (`inserted: true`) licenses one subsequent ordering anomaly — a
//!    dynamic or envelope scheduler may legally splice a new stop into
//!    the in-progress sweep behind the ordering frontier, re-entering the
//!    forward phase or restarting it at a lower slot. Each insertion
//!    excuses at most one anomalous read. A sweep still open when the
//!    trace ends is fine (horizon expiry).
//! 4. **Request conservation** — every completion or failure names a
//!    request that arrived and has not already terminated, and a
//!    completion's reported delay equals completion time minus arrival
//!    time. Requests outstanding at end of trace are allowed.
//! 5. **Destage** — a `delta_flush` writes at least one block to the tape
//!    its drive has mounted, while no sweep is open on that drive (after
//!    `sweep_end` for a piggyback, or on an idle drive).

use std::collections::BTreeMap;
use std::fmt;

use tapesim_model::{SimTime, SlotIndex, TapeId};
use tapesim_sched::SweepPhase;
use tapesim_workload::RequestId;

use super::{TraceEvent, TraceRecord, SYSTEM_DRIVE};

/// One invariant violation, anchored to the offending record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// `seq` of the record that violated the invariant.
    pub seq: u64,
    /// Timestamp of that record.
    pub at: SimTime,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[seq {} @ {}] {}", self.seq, self.at, self.message)
    }
}

/// Aggregate counts from a trace that passed all invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total records in the trace.
    pub events: usize,
    /// Request arrivals.
    pub arrivals: u64,
    /// Request completions.
    pub completions: u64,
    /// Permanent request failures.
    pub failures: u64,
    /// Requests still outstanding when the trace ended.
    pub outstanding: u64,
    /// Sweeps started (major reschedules).
    pub sweeps: u64,
    /// Tape mounts.
    pub mounts: u64,
    /// Successful block reads.
    pub reads: u64,
    /// Failed read passes (media errors).
    pub media_errors: u64,
    /// Replica failovers.
    pub failovers: u64,
    /// Delta blocks destaged to tape.
    pub delta_blocks: u64,
    /// Distinct drives that emitted events (excluding the system stream).
    pub drives: usize,
    /// Timestamp of the last record.
    pub end: SimTime,
}

struct SweepState {
    tape: TapeId,
    in_reverse: bool,
    last_forward: Option<SlotIndex>,
    last_reverse: Option<SlotIndex>,
    /// Unconsumed incremental insertions: each licenses one read that
    /// breaks the static sweep ordering (see module docs, invariant 3).
    inserts: u32,
}

#[derive(Default)]
struct DriveState {
    clock: SimTime,
    mounted: Option<TapeId>,
    sweep: Option<SweepState>,
}

#[derive(Clone, Copy, PartialEq)]
enum ReqState {
    Open(SimTime),
    Done,
}

/// Checks every invariant over a trace. Returns aggregate stats on
/// success, or the full list of violations (not just the first) on
/// failure.
pub fn check_trace(trace: &[TraceRecord]) -> Result<TraceStats, Vec<Violation>> {
    let mut violations = Vec::new();
    let mut stats = TraceStats::default();
    let mut drives: BTreeMap<u16, DriveState> = BTreeMap::new();
    let mut requests: BTreeMap<RequestId, ReqState> = BTreeMap::new();
    let mut last_seq: Option<u64> = None;

    for rec in trace {
        stats.events += 1;
        stats.end = stats.end.max(rec.at);
        let mut fail = |message: String| {
            violations.push(Violation {
                seq: rec.seq,
                at: rec.at,
                message,
            })
        };

        // Invariant 1: global seq strictly increasing, per-drive clock
        // non-decreasing (system stream exempt).
        if let Some(prev) = last_seq {
            if rec.seq <= prev {
                fail(format!(
                    "seq {} not greater than previous {}",
                    rec.seq, prev
                ));
            }
        }
        last_seq = Some(rec.seq);
        let drive = drives.entry(rec.drive).or_default();
        if rec.drive != SYSTEM_DRIVE {
            if rec.at < drive.clock {
                fail(format!(
                    "drive {} clock moved backwards ({} after {})",
                    rec.drive, rec.at, drive.clock
                ));
            }
            drive.clock = drive.clock.max(rec.at);
        }

        // Invariants 2 and 3: mount state machine and sweep structure.
        match rec.event {
            TraceEvent::Locate { tape, .. } | TraceEvent::Rewind { tape, .. }
                if drive.mounted != Some(tape) =>
            {
                fail(format!(
                    "head motion on tape {} but drive {} has {:?} mounted",
                    tape.0,
                    rec.drive,
                    drive.mounted.map(|t| t.0)
                ));
            }
            TraceEvent::Read {
                tape, slot, phase, ..
            } => {
                stats.reads += 1;
                if drive.mounted != Some(tape) {
                    fail(format!(
                        "read of tape {} but drive {} has {:?} mounted",
                        tape.0,
                        rec.drive,
                        drive.mounted.map(|t| t.0)
                    ));
                }
                match drive.sweep.as_mut() {
                    None => fail(format!("read of tape {} outside any sweep", tape.0)),
                    Some(sweep) => {
                        if sweep.tape != tape {
                            fail(format!(
                                "read of tape {} inside a sweep of tape {}",
                                tape.0, sweep.tape.0
                            ));
                        }
                        match phase {
                            SweepPhase::Forward => {
                                let descended = sweep.last_forward.is_some_and(|prev| slot <= prev);
                                if sweep.in_reverse || descended {
                                    // Only a prior incremental insertion can
                                    // re-open or rewind the forward phase.
                                    if sweep.inserts > 0 {
                                        sweep.inserts -= 1;
                                        sweep.in_reverse = false;
                                    } else if sweep.in_reverse {
                                        fail(format!(
                                            "forward read at slot {} after the reverse phase began",
                                            slot.0
                                        ));
                                    } else {
                                        fail(format!(
                                            "forward reads not strictly ascending: slot {} after {}",
                                            slot.0,
                                            sweep.last_forward.map_or(0, |p| p.0)
                                        ));
                                    }
                                }
                                sweep.last_forward = Some(slot);
                            }
                            SweepPhase::Reverse => {
                                sweep.in_reverse = true;
                                if let Some(prev) = sweep.last_reverse {
                                    if slot >= prev {
                                        if sweep.inserts > 0 {
                                            sweep.inserts -= 1;
                                        } else {
                                            fail(format!(
                                                "reverse reads not strictly descending: slot {} after {}",
                                                slot.0, prev.0
                                            ));
                                        }
                                    }
                                }
                                sweep.last_reverse = Some(slot);
                            }
                        }
                    }
                }
            }
            TraceEvent::MediaError { tape, .. } => {
                stats.media_errors += 1;
                if drive.mounted != Some(tape) {
                    fail(format!(
                        "media error on tape {} but drive {} has {:?} mounted",
                        tape.0,
                        rec.drive,
                        drive.mounted.map(|t| t.0)
                    ));
                }
            }
            TraceEvent::Mount { tape, .. } => {
                stats.mounts += 1;
                if let Some(old) = drive.mounted {
                    fail(format!(
                        "mount of tape {} while tape {} is still mounted on drive {}",
                        tape.0, old.0, rec.drive
                    ));
                }
                drive.mounted = Some(tape);
            }
            TraceEvent::Unmount { tape } => {
                if drive.mounted != Some(tape) {
                    fail(format!(
                        "unmount of tape {} but drive {} has {:?} mounted",
                        tape.0,
                        rec.drive,
                        drive.mounted.map(|t| t.0)
                    ));
                }
                drive.mounted = None;
            }
            TraceEvent::SweepStart { tape, .. } => {
                stats.sweeps += 1;
                if let Some(open) = &drive.sweep {
                    fail(format!(
                        "sweep of tape {} started while a sweep of tape {} is open",
                        tape.0, open.tape.0
                    ));
                }
                drive.sweep = Some(SweepState {
                    tape,
                    in_reverse: false,
                    last_forward: None,
                    last_reverse: None,
                    inserts: 0,
                });
            }
            TraceEvent::Incremental { inserted: true, .. } => {
                if let Some(sweep) = drive.sweep.as_mut() {
                    sweep.inserts += 1;
                }
            }
            TraceEvent::PhaseStart { tape, .. } => match &drive.sweep {
                None => fail(format!("phase start for tape {} outside any sweep", tape.0)),
                Some(sweep) if sweep.tape != tape => fail(format!(
                    "phase start for tape {} inside a sweep of tape {}",
                    tape.0, sweep.tape.0
                )),
                Some(_) => {}
            },
            TraceEvent::SweepEnd { tape } => match drive.sweep.take() {
                None => fail(format!(
                    "sweep end for tape {} without a sweep start",
                    tape.0
                )),
                Some(sweep) if sweep.tape != tape => fail(format!(
                    "sweep end for tape {} closing a sweep of tape {}",
                    tape.0, sweep.tape.0
                )),
                Some(_) => {}
            },
            TraceEvent::DeltaFlush { tape, blocks, .. } => {
                stats.delta_blocks += u64::from(blocks);
                if drive.mounted != Some(tape) {
                    fail(format!(
                        "delta flush to tape {} but drive {} has {:?} mounted",
                        tape.0,
                        rec.drive,
                        drive.mounted.map(|t| t.0)
                    ));
                }
                if let Some(sweep) = &drive.sweep {
                    fail(format!(
                        "delta flush to tape {} inside a sweep of tape {}",
                        tape.0, sweep.tape.0
                    ));
                }
                if blocks == 0 {
                    fail(format!("delta flush to tape {} writes no block", tape.0));
                }
            }
            TraceEvent::TapeOffline { tape } => {
                // A tape failure aborts any sweep on it and removes the
                // cartridge from service wherever it sits.
                if drive.sweep.as_ref().is_some_and(|s| s.tape == tape) {
                    drive.sweep = None;
                }
                if drive.mounted == Some(tape) {
                    drive.mounted = None;
                }
            }
            _ => {}
        }

        // Invariant 4: request conservation.
        match rec.event {
            TraceEvent::Arrival { req, .. } => {
                stats.arrivals += 1;
                if requests.insert(req, ReqState::Open(rec.at)).is_some() {
                    fail(format!("request {} arrived twice", req.0));
                }
            }
            TraceEvent::Complete { req, delay, .. } => {
                stats.completions += 1;
                match requests.insert(req, ReqState::Done) {
                    None => fail(format!("request {} completed without arriving", req.0)),
                    Some(ReqState::Done) => {
                        fail(format!("request {} reached a second terminal event", req.0))
                    }
                    Some(ReqState::Open(arrived)) => {
                        if arrived + delay != rec.at {
                            fail(format!(
                                "request {} delay {} inconsistent with arrival {} and completion {}",
                                req.0, delay, arrived, rec.at
                            ));
                        }
                    }
                }
            }
            TraceEvent::RequestFailed { req } => {
                stats.failures += 1;
                match requests.insert(req, ReqState::Done) {
                    None => fail(format!("request {} failed without arriving", req.0)),
                    Some(ReqState::Done) => {
                        fail(format!("request {} reached a second terminal event", req.0))
                    }
                    Some(ReqState::Open(_)) => {}
                }
            }
            TraceEvent::Failover { req, .. } => {
                stats.failovers += 1;
                match requests.get(&req) {
                    None => fail(format!("request {} failed over without arriving", req.0)),
                    Some(ReqState::Done) => {
                        fail(format!("request {} failed over after terminating", req.0))
                    }
                    Some(ReqState::Open(_)) => {}
                }
            }
            _ => {}
        }
    }

    stats.outstanding = requests
        .values()
        .filter(|s| matches!(s, ReqState::Open(_)))
        .count() as u64;
    stats.drives = drives.keys().filter(|&&d| d != SYSTEM_DRIVE).count();

    if violations.is_empty() {
        Ok(stats)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::BlockId;
    use tapesim_model::Micros;

    struct Builder {
        seq: u64,
        out: Vec<TraceRecord>,
    }

    impl Builder {
        fn new() -> Self {
            Builder {
                seq: 0,
                out: Vec::new(),
            }
        }

        fn ev(&mut self, t: u64, drive: u16, event: TraceEvent) -> &mut Self {
            self.out.push(TraceRecord {
                seq: self.seq,
                at: SimTime::from_micros(t),
                drive,
                event,
            });
            self.seq += 1;
            self
        }
    }

    fn read(tape: u16, slot: u32, phase: SweepPhase) -> TraceEvent {
        TraceEvent::Read {
            tape: TapeId(tape),
            slot: SlotIndex(slot),
            phase,
            dur: Micros::from_micros(10),
        }
    }

    fn valid_trace() -> Vec<TraceRecord> {
        let mut b = Builder::new();
        b.ev(
            0,
            SYSTEM_DRIVE,
            TraceEvent::Arrival {
                req: RequestId(1),
                block: BlockId(5),
            },
        )
        .ev(
            10,
            0,
            TraceEvent::SweepStart {
                tape: TapeId(2),
                stops: 1,
                requests: 1,
            },
        )
        .ev(
            20,
            0,
            TraceEvent::Mount {
                tape: TapeId(2),
                dur: Micros::from_micros(10),
            },
        )
        .ev(
            21,
            0,
            TraceEvent::PhaseStart {
                tape: TapeId(2),
                phase: SweepPhase::Forward,
            },
        )
        .ev(
            25,
            0,
            TraceEvent::Locate {
                tape: TapeId(2),
                from: SlotIndex(0),
                to: SlotIndex(3),
                dur: Micros::from_micros(5),
            },
        )
        .ev(35, 0, read(2, 3, SweepPhase::Forward))
        .ev(
            35,
            0,
            TraceEvent::Complete {
                req: RequestId(1),
                tape: TapeId(2),
                delay: Micros::from_micros(35),
            },
        )
        .ev(35, 0, TraceEvent::SweepEnd { tape: TapeId(2) });
        b.out
    }

    #[test]
    fn accepts_a_valid_trace() {
        let stats = check_trace(&valid_trace()).unwrap();
        assert_eq!(stats.arrivals, 1);
        assert_eq!(stats.completions, 1);
        assert_eq!(stats.outstanding, 0);
        assert_eq!(stats.sweeps, 1);
        assert_eq!(stats.mounts, 1);
        assert_eq!(stats.drives, 1);
        assert_eq!(stats.end, SimTime::from_micros(35));
    }

    #[test]
    fn rejects_backwards_drive_clock() {
        let mut t = valid_trace();
        t[4].at = SimTime::from_micros(5); // locate before the mount that preceded it
        let v = check_trace(&t).unwrap_err();
        assert!(v
            .iter()
            .any(|v| v.message.contains("clock moved backwards")));
    }

    #[test]
    fn rejects_read_without_mount() {
        let mut t = valid_trace();
        t.remove(2); // drop the mount
        let v = check_trace(&t).unwrap_err();
        assert!(v.iter().any(|v| v.message.contains("read of tape 2")));
    }

    #[test]
    fn rejects_forward_read_after_reverse() {
        let mut b = Builder::new();
        b.ev(
            0,
            0,
            TraceEvent::SweepStart {
                tape: TapeId(0),
                stops: 2,
                requests: 2,
            },
        )
        .ev(
            1,
            0,
            TraceEvent::Mount {
                tape: TapeId(0),
                dur: Micros::from_micros(1),
            },
        )
        .ev(2, 0, read(0, 5, SweepPhase::Reverse))
        .ev(3, 0, read(0, 7, SweepPhase::Forward));
        let v = check_trace(&b.out).unwrap_err();
        assert!(v
            .iter()
            .any(|v| v.message.contains("after the reverse phase")));
    }

    #[test]
    fn incremental_insertion_licenses_forward_reentry() {
        let mut b = Builder::new();
        b.ev(
            0,
            SYSTEM_DRIVE,
            TraceEvent::Arrival {
                req: RequestId(1),
                block: BlockId(0),
            },
        )
        .ev(
            0,
            0,
            TraceEvent::SweepStart {
                tape: TapeId(0),
                stops: 2,
                requests: 2,
            },
        )
        .ev(
            1,
            0,
            TraceEvent::Mount {
                tape: TapeId(0),
                dur: Micros::from_micros(1),
            },
        )
        .ev(2, 0, read(0, 9, SweepPhase::Forward))
        .ev(3, 0, read(0, 5, SweepPhase::Reverse))
        .ev(
            4,
            0,
            TraceEvent::Incremental {
                req: RequestId(1),
                tape: TapeId(0),
                inserted: true,
            },
        )
        // Licensed by the insertion: the sweep re-enters the forward
        // phase below the old forward frontier.
        .ev(5, 0, read(0, 7, SweepPhase::Forward))
        .ev(6, 0, read(0, 4, SweepPhase::Reverse))
        .ev(6, 0, TraceEvent::SweepEnd { tape: TapeId(0) });
        check_trace(&b.out).unwrap();

        // A second unlicensed re-entry is still a violation.
        let mut b = Builder::new();
        b.ev(
            0,
            0,
            TraceEvent::SweepStart {
                tape: TapeId(0),
                stops: 2,
                requests: 2,
            },
        )
        .ev(
            1,
            0,
            TraceEvent::Mount {
                tape: TapeId(0),
                dur: Micros::from_micros(1),
            },
        )
        .ev(2, 0, read(0, 5, SweepPhase::Reverse))
        .ev(3, 0, read(0, 7, SweepPhase::Forward));
        assert!(check_trace(&b.out).is_err());
    }

    #[test]
    fn rejects_non_monotonic_sweep_slots() {
        let mut b = Builder::new();
        b.ev(
            0,
            0,
            TraceEvent::SweepStart {
                tape: TapeId(0),
                stops: 2,
                requests: 2,
            },
        )
        .ev(
            1,
            0,
            TraceEvent::Mount {
                tape: TapeId(0),
                dur: Micros::from_micros(1),
            },
        )
        .ev(2, 0, read(0, 5, SweepPhase::Forward))
        .ev(3, 0, read(0, 5, SweepPhase::Forward));
        let v = check_trace(&b.out).unwrap_err();
        assert!(v.iter().any(|v| v.message.contains("strictly ascending")));
    }

    #[test]
    fn rejects_double_completion_and_orphans() {
        let mut t = valid_trace();
        let dup = t[6];
        t.push(TraceRecord { seq: 8, ..dup });
        let v = check_trace(&t).unwrap_err();
        assert!(v.iter().any(|v| v.message.contains("second terminal")));

        let orphan = vec![TraceRecord {
            seq: 0,
            at: SimTime::ZERO,
            drive: SYSTEM_DRIVE,
            event: TraceEvent::RequestFailed { req: RequestId(9) },
        }];
        let v = check_trace(&orphan).unwrap_err();
        assert!(v.iter().any(|v| v.message.contains("without arriving")));
    }

    #[test]
    fn rejects_inconsistent_delay() {
        let mut t = valid_trace();
        t[6].event = TraceEvent::Complete {
            req: RequestId(1),
            tape: TapeId(2),
            delay: Micros::from_micros(1), // arrival was at t=0, completion at t=35
        };
        let v = check_trace(&t).unwrap_err();
        assert!(v.iter().any(|v| v.message.contains("delay")));
    }

    #[test]
    fn outstanding_requests_at_eof_are_fine() {
        let t = vec![TraceRecord {
            seq: 0,
            at: SimTime::ZERO,
            drive: SYSTEM_DRIVE,
            event: TraceEvent::Arrival {
                req: RequestId(1),
                block: BlockId(0),
            },
        }];
        let stats = check_trace(&t).unwrap();
        assert_eq!(stats.outstanding, 1);
    }

    fn flush(tape: u16, blocks: u32) -> TraceEvent {
        TraceEvent::DeltaFlush {
            tape: TapeId(tape),
            blocks,
            piggyback: true,
        }
    }

    /// Delta flushes in the valid trace: a piggyback after its sweep
    /// ends, and one more on the still-mounted tape.
    fn trace_with_flushes() -> Vec<TraceRecord> {
        let mut t = valid_trace();
        for (at, blocks) in [(40, 3), (50, 2)] {
            let seq = t.len() as u64;
            t.push(TraceRecord {
                seq,
                at: SimTime::from_micros(at),
                drive: 0,
                event: flush(2, blocks),
            });
        }
        t
    }

    #[test]
    fn delta_flushes_after_the_sweep_are_counted() {
        let stats = check_trace(&trace_with_flushes()).unwrap();
        assert_eq!(stats.delta_blocks, 5);
    }

    #[test]
    fn rejects_delta_flush_to_an_unmounted_tape() {
        let mut t = trace_with_flushes();
        t[8].event = flush(3, 3);
        let v = check_trace(&t).unwrap_err();
        assert!(v.iter().any(|v| v
            .message
            .contains("delta flush to tape 3 but drive 0 has Some(2) mounted")));
    }

    #[test]
    fn rejects_delta_flush_inside_a_sweep() {
        let mut t = trace_with_flushes();
        // Swap the flush in before the sweep end.
        t[7].event = flush(2, 3);
        t[8].event = TraceEvent::SweepEnd { tape: TapeId(2) };
        t[8].at = t[7].at;
        let v = check_trace(&t).unwrap_err();
        assert!(v
            .iter()
            .any(|v| v.message.contains("inside a sweep of tape 2")));
    }

    #[test]
    fn rejects_delta_flush_of_no_block() {
        let mut t = trace_with_flushes();
        t[9].event = flush(2, 0);
        let v = check_trace(&t).unwrap_err();
        assert!(v.iter().any(|v| v.message.contains("writes no block")));
    }

    #[test]
    fn tape_offline_closes_sweep_and_dismounts() {
        let mut b = Builder::new();
        b.ev(
            0,
            0,
            TraceEvent::SweepStart {
                tape: TapeId(0),
                stops: 1,
                requests: 1,
            },
        )
        .ev(
            1,
            0,
            TraceEvent::Mount {
                tape: TapeId(0),
                dur: Micros::from_micros(1),
            },
        )
        .ev(2, 0, TraceEvent::TapeOffline { tape: TapeId(0) })
        .ev(
            3,
            0,
            TraceEvent::SweepStart {
                tape: TapeId(1),
                stops: 1,
                requests: 1,
            },
        )
        .ev(
            4,
            0,
            TraceEvent::Mount {
                tape: TapeId(1),
                dur: Micros::from_micros(1),
            },
        )
        .ev(5, 0, read(1, 0, SweepPhase::Forward))
        .ev(5, 0, TraceEvent::SweepEnd { tape: TapeId(1) });
        check_trace(&b.out).unwrap();
    }
}
