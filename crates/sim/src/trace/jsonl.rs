//! JSON Lines serialization of trace records, a parser for the same
//! schema, and a structural comparator for golden-trace tests.
//!
//! ## Schema
//!
//! One JSON object per line, flat (no nesting), with integer values
//! except for `ev` and `phase` (strings) and `inserted`/`piggyback`
//! (booleans). Common fields:
//!
//! | field   | meaning                                            |
//! |---------|----------------------------------------------------|
//! | `seq`   | emission counter, strictly increasing              |
//! | `t_us`  | simulation time the event ended, microseconds      |
//! | `drive` | drive id; 65535 = jukebox-level (system) events    |
//! | `ev`    | event kind (snake_case, [`TraceEvent::kind`])      |
//!
//! Event-specific fields: `req`, `block`, `tape`, `slot`, `from`, `to`,
//! `from_tape`, `to_tape`, `dur_us`, `delay_us`, `stops`, `reqs`,
//! `blocks`, `phase` (`"forward"`/`"reverse"`), `inserted`, `piggyback`.
//! Field order within a line is fixed, so byte comparison of two
//! serialized traces is equivalent to structural comparison — but
//! [`compare`] still parses both sides so a mismatch can be reported
//! field-by-field.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tapesim_layout::BlockId;
use tapesim_model::{Micros, SimTime, SlotIndex, TapeId};
use tapesim_sched::SweepPhase;
use tapesim_workload::RequestId;

use super::{TraceEvent, TraceRecord};

/// Serializes one record as a single JSON line (no trailing newline).
pub fn to_jsonl(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"seq\":{},\"t_us\":{},\"drive\":{},\"ev\":\"{}\"",
        rec.seq,
        rec.at.as_micros(),
        rec.drive,
        rec.event.kind()
    );
    let mut f = |key: &str, val: String| {
        let _ = write!(s, ",\"{key}\":{val}");
    };
    match rec.event {
        TraceEvent::Arrival { req, block } => {
            f("req", req.0.to_string());
            f("block", block.0.to_string());
        }
        TraceEvent::Incremental {
            req,
            tape,
            inserted,
        } => {
            f("req", req.0.to_string());
            f("tape", tape.0.to_string());
            f("inserted", inserted.to_string());
        }
        TraceEvent::SweepStart {
            tape,
            stops,
            requests,
        } => {
            f("tape", tape.0.to_string());
            f("stops", stops.to_string());
            f("reqs", requests.to_string());
        }
        TraceEvent::PhaseStart { tape, phase } => {
            f("tape", tape.0.to_string());
            f("phase", format!("\"{}\"", phase.name()));
        }
        TraceEvent::Locate {
            tape,
            from,
            to,
            dur,
        } => {
            f("tape", tape.0.to_string());
            f("from", from.0.to_string());
            f("to", to.0.to_string());
            f("dur_us", dur.as_micros().to_string());
        }
        TraceEvent::Read {
            tape,
            slot,
            phase,
            dur,
        } => {
            f("tape", tape.0.to_string());
            f("slot", slot.0.to_string());
            f("phase", format!("\"{}\"", phase.name()));
            f("dur_us", dur.as_micros().to_string());
        }
        TraceEvent::Rewind { tape, from, dur } => {
            f("tape", tape.0.to_string());
            f("from", from.0.to_string());
            f("dur_us", dur.as_micros().to_string());
        }
        TraceEvent::Unmount { tape }
        | TraceEvent::SweepEnd { tape }
        | TraceEvent::TapeOffline { tape } => {
            f("tape", tape.0.to_string());
        }
        TraceEvent::Mount { tape, dur } => {
            f("tape", tape.0.to_string());
            f("dur_us", dur.as_micros().to_string());
        }
        TraceEvent::Complete { req, tape, delay } => {
            f("req", req.0.to_string());
            f("tape", tape.0.to_string());
            f("delay_us", delay.as_micros().to_string());
        }
        TraceEvent::Idle { dur } | TraceEvent::DriveRepair { dur } => {
            f("dur_us", dur.as_micros().to_string());
        }
        TraceEvent::MediaError { tape, slot } | TraceEvent::CopyLost { tape, slot } => {
            f("tape", tape.0.to_string());
            f("slot", slot.0.to_string());
        }
        TraceEvent::LoadFailed { tape, dur } => {
            f("tape", tape.0.to_string());
            f("dur_us", dur.as_micros().to_string());
        }
        TraceEvent::RequestFailed { req } => {
            f("req", req.0.to_string());
        }
        TraceEvent::Failover { req, from, to } => {
            f("req", req.0.to_string());
            f("from_tape", from.0.to_string());
            f("to_tape", to.0.to_string());
        }
        TraceEvent::RobotBusy { robot, dur } => {
            f("robot", robot.to_string());
            f("dur_us", dur.as_micros().to_string());
        }
        TraceEvent::RobotExchange { robot, tape, dur } => {
            f("robot", robot.to_string());
            f("tape", tape.0.to_string());
            f("dur_us", dur.as_micros().to_string());
        }
        TraceEvent::DeltaFlush {
            tape,
            blocks,
            piggyback,
        } => {
            f("tape", tape.0.to_string());
            f("blocks", blocks.to_string());
            f("piggyback", piggyback.to_string());
        }
    }
    s.push('}');
    s
}

/// Serializes a whole trace as JSON Lines (one record per line, trailing
/// newline included).
pub fn to_jsonl_string(events: &[TraceRecord]) -> String {
    let mut s = String::new();
    for rec in events {
        s.push_str(&to_jsonl(rec));
        s.push('\n');
    }
    s
}

/// A parse error with the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Parses one flat JSON object (quoted keys, integer / string / boolean
/// values, no nesting) into its fields. Values keep their textual form
/// (`"forward"` keeps its quotes stripped; numbers and booleans stay as
/// written). An empty bare value is an error; an empty quoted value `""`
/// is accepted, and a caller whose schema has no empty strings rejects
/// it itself.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, String>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut map = BTreeMap::new();
    let mut rest = body;
    while !rest.is_empty() {
        rest = rest.trim_start_matches(',');
        let key_start = rest.strip_prefix('"').ok_or("expected quoted key")?;
        let key_end = key_start.find('"').ok_or("unterminated key")?;
        let key = &key_start[..key_end];
        let after = key_start[key_end + 1..]
            .strip_prefix(':')
            .ok_or("expected ':' after key")?;
        let (value, remainder) = if let Some(v) = after.strip_prefix('"') {
            let end = v.find('"').ok_or("unterminated string value")?;
            (v[..end].to_string(), &v[end + 1..])
        } else {
            let end = after.find(',').unwrap_or(after.len());
            if after[..end].is_empty() {
                return Err(format!("empty value for key '{key}'"));
            }
            (after[..end].to_string(), &after[end..])
        };
        if map.insert(key.to_string(), value).is_some() {
            return Err(format!("duplicate key '{key}'"));
        }
        rest = remainder;
    }
    Ok(map)
}

/// Parses a JSONL trace into one field-map per event line. Blank lines
/// are skipped.
pub fn parse(text: &str) -> Result<Vec<BTreeMap<String, String>>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let map = parse_flat_object(line).map_err(|message| ParseError {
            line: i + 1,
            message,
        })?;
        // No trace field is ever an empty string.
        if let Some((key, _)) = map.iter().find(|(_, v)| v.is_empty()) {
            return Err(ParseError {
                line: i + 1,
                message: format!("empty value for key '{key}'"),
            });
        }
        for required in ["seq", "t_us", "drive", "ev"] {
            if !map.contains_key(required) {
                return Err(ParseError {
                    line: i + 1,
                    message: format!("missing required field '{required}'"),
                });
            }
        }
        out.push(map);
    }
    Ok(out)
}

/// Parses a JSONL trace back into [`TraceRecord`]s. Unknown event kinds
/// or missing fields are errors.
pub fn parse_records(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let maps = parse(text)?;
    maps.iter()
        .enumerate()
        .map(|(i, m)| {
            record_from_fields(m).map_err(|message| ParseError {
                line: i + 1,
                message,
            })
        })
        .collect()
}

fn record_from_fields(m: &BTreeMap<String, String>) -> Result<TraceRecord, String> {
    let int = |key: &str| -> Result<u64, String> {
        m.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))?
            .parse::<u64>()
            .map_err(|_| format!("field '{key}' is not an integer"))
    };
    // Narrow fields back to the widths they were written with; a value
    // that does not fit is an error, never a silently different record.
    let int16 = |key: &str| -> Result<u16, String> {
        u16::try_from(int(key)?).map_err(|_| format!("field '{key}' does not fit in 16 bits"))
    };
    let int32 = |key: &str| -> Result<u32, String> {
        u32::try_from(int(key)?).map_err(|_| format!("field '{key}' does not fit in 32 bits"))
    };
    let tape = |key: &str| -> Result<TapeId, String> { Ok(TapeId(int16(key)?)) };
    let slot = |key: &str| -> Result<SlotIndex, String> { Ok(SlotIndex(int32(key)?)) };
    let req = || -> Result<RequestId, String> { Ok(RequestId(int("req")?)) };
    let dur = |key: &str| -> Result<Micros, String> { Ok(Micros::from_micros(int(key)?)) };
    let boolean = |key: &str| -> Result<bool, String> {
        match m.get(key).map(String::as_str) {
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            _ => Err(format!("field '{key}' is not a boolean")),
        }
    };
    let phase = || -> Result<SweepPhase, String> {
        match m.get("phase").map(String::as_str) {
            Some("forward") => Ok(SweepPhase::Forward),
            Some("reverse") => Ok(SweepPhase::Reverse),
            other => Err(format!("bad phase {other:?}")),
        }
    };
    let ev = m.get("ev").ok_or("missing field 'ev'")?.as_str();
    let event = match ev {
        "arrival" => TraceEvent::Arrival {
            req: req()?,
            block: BlockId(int32("block")?),
        },
        "incremental" => TraceEvent::Incremental {
            req: req()?,
            tape: tape("tape")?,
            inserted: boolean("inserted")?,
        },
        "sweep_start" => TraceEvent::SweepStart {
            tape: tape("tape")?,
            stops: int32("stops")?,
            requests: int32("reqs")?,
        },
        "phase_start" => TraceEvent::PhaseStart {
            tape: tape("tape")?,
            phase: phase()?,
        },
        "locate" => TraceEvent::Locate {
            tape: tape("tape")?,
            from: slot("from")?,
            to: slot("to")?,
            dur: dur("dur_us")?,
        },
        "read" => TraceEvent::Read {
            tape: tape("tape")?,
            slot: slot("slot")?,
            phase: phase()?,
            dur: dur("dur_us")?,
        },
        "rewind" => TraceEvent::Rewind {
            tape: tape("tape")?,
            from: slot("from")?,
            dur: dur("dur_us")?,
        },
        "unmount" => TraceEvent::Unmount {
            tape: tape("tape")?,
        },
        "mount" => TraceEvent::Mount {
            tape: tape("tape")?,
            dur: dur("dur_us")?,
        },
        "sweep_end" => TraceEvent::SweepEnd {
            tape: tape("tape")?,
        },
        "complete" => TraceEvent::Complete {
            req: req()?,
            tape: tape("tape")?,
            delay: dur("delay_us")?,
        },
        "idle" => TraceEvent::Idle {
            dur: dur("dur_us")?,
        },
        "media_error" => TraceEvent::MediaError {
            tape: tape("tape")?,
            slot: slot("slot")?,
        },
        "copy_lost" => TraceEvent::CopyLost {
            tape: tape("tape")?,
            slot: slot("slot")?,
        },
        "load_failed" => TraceEvent::LoadFailed {
            tape: tape("tape")?,
            dur: dur("dur_us")?,
        },
        "tape_offline" => TraceEvent::TapeOffline {
            tape: tape("tape")?,
        },
        "drive_repair" => TraceEvent::DriveRepair {
            dur: dur("dur_us")?,
        },
        "request_failed" => TraceEvent::RequestFailed { req: req()? },
        "failover" => TraceEvent::Failover {
            req: req()?,
            from: tape("from_tape")?,
            to: tape("to_tape")?,
        },
        "robot_busy" => TraceEvent::RobotBusy {
            robot: int16("robot")?,
            dur: dur("dur_us")?,
        },
        "robot_exchange" => TraceEvent::RobotExchange {
            robot: int16("robot")?,
            tape: tape("tape")?,
            dur: dur("dur_us")?,
        },
        "delta_flush" => TraceEvent::DeltaFlush {
            tape: tape("tape")?,
            blocks: int32("blocks")?,
            piggyback: boolean("piggyback")?,
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(TraceRecord {
        seq: int("seq")?,
        at: SimTime::from_micros(int("t_us")?),
        drive: int16("drive")?,
        event,
    })
}

/// The result of structurally comparing an actual trace against an
/// expected (golden) one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Comparison {
    /// The traces are structurally identical.
    Match,
    /// The traces differ; the payload is a human-readable report showing
    /// the first divergence with surrounding context.
    Mismatch(String),
}

impl Comparison {
    /// True for [`Comparison::Match`].
    pub fn is_match(&self) -> bool {
        matches!(self, Comparison::Match)
    }
}

/// Structurally compares an actual trace against golden JSONL text:
/// both sides are parsed into per-event field maps, compared event by
/// event and field by field. On mismatch the report names the diverging
/// event index and fields and prints up to `context` events on either
/// side of the divergence.
pub fn compare(expected_jsonl: &str, actual: &[TraceRecord], context: usize) -> Comparison {
    let expected = match parse(expected_jsonl) {
        Ok(e) => e,
        Err(e) => return Comparison::Mismatch(format!("golden file is unparsable: {e}")),
    };
    let actual_lines: Vec<String> = actual.iter().map(to_jsonl).collect();
    let actual_maps = match parse(&actual_lines.join("\n")) {
        Ok(a) => a,
        Err(e) => return Comparison::Mismatch(format!("actual trace is unparsable: {e}")),
    };

    let n = expected.len().min(actual_maps.len());
    let mut diverged: Option<(usize, String)> = None;
    for i in 0..n {
        if expected[i] != actual_maps[i] {
            let mut detail = String::new();
            for key in expected[i].keys().chain(actual_maps[i].keys()) {
                let e = expected[i].get(key);
                let a = actual_maps[i].get(key);
                if e != a && !detail.contains(key.as_str()) {
                    let _ = writeln!(
                        detail,
                        "    field '{key}': expected {}, got {}",
                        e.map_or("<absent>".into(), |v| v.clone()),
                        a.map_or("<absent>".into(), |v| v.clone()),
                    );
                }
            }
            diverged = Some((i, detail));
            break;
        }
    }
    if diverged.is_none() && expected.len() != actual_maps.len() {
        diverged = Some((
            n,
            format!(
                "    trace length differs: expected {} events, got {}\n",
                expected.len(),
                actual_maps.len()
            ),
        ));
    }
    let Some((at, detail)) = diverged else {
        return Comparison::Match;
    };

    let mut report = format!("golden trace mismatch at event {at}:\n{detail}  context:\n");
    let expected_lines: Vec<&str> = expected_jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    let lo = at.saturating_sub(context);
    let hi = (at + context + 1).max(lo);
    for i in lo..hi {
        let marker = if i == at { ">" } else { " " };
        if let Some(l) = expected_lines.get(i) {
            let _ = writeln!(report, "  {marker} expected[{i}] {l}");
        }
        if let Some(l) = actual_lines.get(i) {
            let _ = writeln!(report, "  {marker}   actual[{i}] {l}");
        }
    }
    let _ = writeln!(
        report,
        "  (regenerate with UPDATE_GOLDEN=1 if the change is intentional)"
    );
    Comparison::Mismatch(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                seq: 0,
                at: SimTime::from_micros(5),
                drive: super::super::SYSTEM_DRIVE,
                event: TraceEvent::Arrival {
                    req: RequestId(0),
                    block: BlockId(7),
                },
            },
            TraceRecord {
                seq: 1,
                at: SimTime::from_micros(12),
                drive: 0,
                event: TraceEvent::Mount {
                    tape: TapeId(3),
                    dur: Micros::from_micros(12),
                },
            },
            TraceRecord {
                seq: 2,
                at: SimTime::from_micros(40),
                drive: 0,
                event: TraceEvent::Read {
                    tape: TapeId(3),
                    slot: SlotIndex(9),
                    phase: SweepPhase::Forward,
                    dur: Micros::from_micros(8),
                },
            },
        ]
    }

    #[test]
    fn serialization_round_trips() {
        let events = sample();
        let text = to_jsonl_string(&events);
        let parsed = parse_records(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn every_event_kind_round_trips() {
        let all = vec![
            TraceEvent::Arrival {
                req: RequestId(1),
                block: BlockId(2),
            },
            TraceEvent::Incremental {
                req: RequestId(1),
                tape: TapeId(0),
                inserted: true,
            },
            TraceEvent::SweepStart {
                tape: TapeId(1),
                stops: 3,
                requests: 4,
            },
            TraceEvent::PhaseStart {
                tape: TapeId(1),
                phase: SweepPhase::Reverse,
            },
            TraceEvent::Locate {
                tape: TapeId(1),
                from: SlotIndex(0),
                to: SlotIndex(5),
                dur: Micros::from_micros(9),
            },
            TraceEvent::Read {
                tape: TapeId(1),
                slot: SlotIndex(5),
                phase: SweepPhase::Forward,
                dur: Micros::from_micros(2),
            },
            TraceEvent::Rewind {
                tape: TapeId(1),
                from: SlotIndex(6),
                dur: Micros::from_micros(3),
            },
            TraceEvent::Unmount { tape: TapeId(1) },
            TraceEvent::Mount {
                tape: TapeId(2),
                dur: Micros::from_micros(4),
            },
            TraceEvent::SweepEnd { tape: TapeId(2) },
            TraceEvent::Complete {
                req: RequestId(1),
                tape: TapeId(2),
                delay: Micros::from_micros(100),
            },
            TraceEvent::Idle {
                dur: Micros::from_micros(50),
            },
            TraceEvent::MediaError {
                tape: TapeId(2),
                slot: SlotIndex(1),
            },
            TraceEvent::CopyLost {
                tape: TapeId(2),
                slot: SlotIndex(1),
            },
            TraceEvent::LoadFailed {
                tape: TapeId(2),
                dur: Micros::from_micros(7),
            },
            TraceEvent::TapeOffline { tape: TapeId(2) },
            TraceEvent::DriveRepair {
                dur: Micros::from_micros(8),
            },
            TraceEvent::RequestFailed { req: RequestId(9) },
            TraceEvent::Failover {
                req: RequestId(9),
                from: TapeId(2),
                to: TapeId(0),
            },
            TraceEvent::DeltaFlush {
                tape: TapeId(0),
                blocks: 11,
                piggyback: false,
            },
        ];
        let events: Vec<TraceRecord> = all
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                seq: i as u64,
                at: SimTime::from_micros(i as u64),
                drive: 0,
                event,
            })
            .collect();
        let parsed = parse_records(&to_jsonl_string(&events)).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn compare_matches_identical_traces() {
        let events = sample();
        let golden = to_jsonl_string(&events);
        assert!(compare(&golden, &events, 3).is_match());
    }

    #[test]
    fn compare_reports_field_level_divergence() {
        let events = sample();
        let golden = to_jsonl_string(&events);
        let mut altered = events.clone();
        altered[2].event = TraceEvent::Read {
            tape: TapeId(3),
            slot: SlotIndex(10),
            phase: SweepPhase::Forward,
            dur: Micros::from_micros(8),
        };
        let Comparison::Mismatch(report) = compare(&golden, &altered, 1) else {
            panic!("expected mismatch");
        };
        assert!(report.contains("event 2"), "{report}");
        assert!(report.contains("field 'slot'"), "{report}");
        assert!(report.contains("expected 9, got 10"), "{report}");
        assert!(report.contains("UPDATE_GOLDEN"), "{report}");
    }

    #[test]
    fn compare_reports_length_divergence() {
        let events = sample();
        let golden = to_jsonl_string(&events);
        let short = &events[..2];
        let Comparison::Mismatch(report) = compare(&golden, short, 2) else {
            panic!("expected mismatch");
        };
        assert!(report.contains("length differs"), "{report}");
        assert!(report.contains("expected 3 events, got 2"), "{report}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"seq\":1}").is_err()); // missing required fields
        let err = parse("{\"seq\":1,\"t_us\":2,\"drive\":0}").unwrap_err();
        assert!(err.to_string().contains("ev"));
        let err = parse("{\"seq\":1,\"t_us\":2,\"drive\":0,\"ev\":\"\"}").unwrap_err();
        assert!(err.to_string().contains("empty value for key 'ev'"));
        // Values wider than the field they were written from are errors,
        // not silently truncated records.
        let wide = "{\"seq\":0,\"t_us\":5,\"drive\":65536,\"ev\":\"incremental\",\"req\":1,\
                    \"tape\":65537,\"inserted\":true}";
        assert!(parse_records(wide).is_err());
        let drive = wide.replace("65537", "1");
        let err = parse_records(&drive).unwrap_err();
        assert!(err.to_string().contains("'drive'"), "{err}");
        let slot = "{\"seq\":0,\"t_us\":5,\"drive\":0,\"ev\":\"media_error\",\"tape\":1,\
                    \"slot\":4294967296}";
        let err = parse_records(slot).unwrap_err();
        assert!(err.to_string().contains("'slot'"), "{err}");
        // The system drive, u16::MAX, is in range.
        let system = "{\"seq\":0,\"t_us\":0,\"drive\":65535,\"ev\":\"arrival\",\"req\":0,\
                      \"block\":74}";
        assert_eq!(
            parse_records(system).unwrap()[0].drive,
            super::super::SYSTEM_DRIVE
        );
    }
}
