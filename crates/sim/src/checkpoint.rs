//! Checkpoint/restore for the simulation engines, with bit-identical
//! resume.
//!
//! A checkpoint captures the complete state of a run at an outer-loop
//! boundary (no read or locate in flight): the simulation clock, the
//! pending queue, every drive's mounted tape / head position / in-flight
//! service list, the workload factory's stream position, the fault
//! injector's timers and RNG states, the scheduler's private state (the
//! envelope boundaries), the metrics accumulators, and the trace sequence
//! counter. A run resumed from a checkpoint continues the event stream
//! exactly where the interrupted run left off: the resumed trace suffix
//! is byte-identical to the uninterrupted run's, and the final
//! [`crate::MetricsReport`] is exactly equal.
//!
//! ## File format
//!
//! One flat JSON object per line, in the style of the trace schema
//! ([`crate::trace::jsonl`]): integer and string values only, fixed field
//! order, hand-rolled writer and parser (no serialization dependency).
//! Every file starts with a `header` line carrying the schema version and
//! a configuration fingerprint, and ends with an `end` line carrying the
//! number of preceding lines, so truncated files are detected. Large
//! vectors (delay samples, pending requests, service lists) are packed
//! into compact delimiter-separated string fields rather than one line
//! per element.
//!
//! ## Safety of resume
//!
//! Resuming into a *different* configuration would silently produce a run
//! that matches neither the checkpointed nor the new configuration, so
//! [`load`]ed checkpoints carry an FNV-1a fingerprint over the engine
//! kind, catalog contents, timing model, scheduler, workload
//! configuration, fault plan, and drive count; the engines refuse to
//! resume when it does not match ([`SimError::CheckpointConfigMismatch`]).
//! The workload factory is restored by *replaying* its RNG draws rather
//! than serializing RNG internals, and the restored stream position is
//! verified against a recorded stream fingerprint, so a wrong seed is
//! also refused.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use tapesim_layout::{BlockId, Catalog};
use tapesim_model::{
    DriveFaultSnapshot, FaultSnapshot, Micros, SimTime, SlotIndex, TapeFaultSnapshot, TapeId,
    TimingModel,
};
use tapesim_sched::{ScheduledRead, ServiceList, SweepPhase, SweepPlan};
use tapesim_workload::{Request, RequestId};

use crate::error::SimError;
use crate::metrics::MetricsSnapshot;
use crate::trace::jsonl::parse_flat_object;

/// Current checkpoint schema version. Bumped whenever the line grammar or
/// the state captured changes incompatibly. Version 2 added the transient
/// copy-heal state (`heal_rng`, `healing`) to the faults line. Version 3
/// dropped the `single` engine: one-drive runs step the read core and
/// write `multi` checkpoints.
pub const SCHEMA_VERSION: u32 = 3;

/// Which engine wrote a checkpoint. Resuming a checkpoint into a
/// different engine is a configuration mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The read core, [`crate::SteppedMultiDrive`], at any drive count:
    /// [`crate::run_multi_drive_traced`] and friends.
    Multi,
    /// [`crate::run_with_writeback_traced`] and friends.
    WriteBack,
}

impl EngineKind {
    /// Stable name written into the header line.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Multi => "multi",
            EngineKind::WriteBack => "writeback",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "multi" => Some(EngineKind::Multi),
            "writeback" => Some(EngineKind::WriteBack),
            _ => None,
        }
    }
}

/// Checkpoint/resume options threaded through the engine entry points.
/// The default ([`CheckpointOpts::none`]) is completely inert: the
/// engines pay one `Option` check per outer-loop iteration.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOpts {
    write_every: Option<(Micros, PathBuf)>,
    resume: Option<PathBuf>,
}

impl CheckpointOpts {
    /// No checkpointing, no resume (the inert default).
    pub fn none() -> Self {
        CheckpointOpts::default()
    }

    /// Writes a checkpoint to `path` every `every` of simulated time
    /// (atomically: written to a temp file and renamed, so the file is
    /// always a complete checkpoint even if the process dies mid-write).
    pub fn checkpoint_every(every: Micros, path: impl Into<PathBuf>) -> Self {
        CheckpointOpts {
            write_every: Some((every, path.into())),
            resume: None,
        }
    }

    /// Resumes a run from the checkpoint at `path`.
    pub fn resume_from(path: impl Into<PathBuf>) -> Self {
        CheckpointOpts {
            write_every: None,
            resume: Some(path.into()),
        }
    }

    /// Adds periodic checkpointing to an existing option set (so a
    /// resumed run can keep checkpointing).
    #[must_use]
    pub fn and_checkpoint_every(mut self, every: Micros, path: impl Into<PathBuf>) -> Self {
        self.write_every = Some((every, path.into()));
        self
    }

    /// The periodic-write configuration, if any.
    pub(crate) fn write_every(&self) -> Option<(Micros, &Path)> {
        self.write_every.as_ref().map(|(e, p)| (*e, p.as_path()))
    }

    /// The resume source, if any.
    pub(crate) fn resume(&self) -> Option<&Path> {
        self.resume.as_deref()
    }

    /// Rejects option sets the engines cannot honor. A zero periodic
    /// interval has no next-checkpoint instant (the schedule would never
    /// advance past the clock), so the engines refuse it up front
    /// instead of spinning in the schedule computation.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        match self.write_every {
            Some((every, _)) if every == Micros::ZERO => Err(SimError::InvalidConfig(
                "checkpoint interval must be positive",
            )),
            _ => Ok(()),
        }
    }
}

/// First whole multiple of `every` strictly after `now`: the periodic
/// checkpoint schedule shared by the three engines, both for the initial
/// instant (including when resume lands the clock mid-schedule) and for
/// advancing past the instant just written.
///
/// `every` is rejected as [`SimError::InvalidConfig`] by
/// [`CheckpointOpts::validate`] when zero; the `max(1)` below keeps this
/// helper total regardless.
pub(crate) fn next_checkpoint_after(now: SimTime, every: Micros) -> SimTime {
    let every_us = every.as_micros().max(1);
    let intervals_elapsed = now.as_micros() / every_us;
    SimTime::from_micros((intervals_elapsed + 1).saturating_mul(every_us))
}

/// One drive's state at the checkpoint boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriveCheckpoint {
    /// Mounted tape, if any.
    pub mounted: Option<TapeId>,
    /// Head position.
    pub head: SlotIndex,
    /// In-flight sweep plan (read core only; the write-back engine
    /// checkpoints between sweeps).
    pub plan: Option<SweepPlan>,
    /// Phase of the last traced read in the current sweep.
    pub cur_phase: Option<SweepPhase>,
    /// When the drive next acts, in microseconds.
    pub free_at_us: u64,
    /// Whether `free_at` was set by the idle branch.
    pub idle: bool,
}

/// Multi-drive-only state: the not-yet-visible arrival queue and the
/// shared robot arm.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiCheckpoint {
    /// Arrival-queue tiebreak counter.
    pub seq: u64,
    /// When the robot arm is next free, in microseconds. For fleet
    /// topologies this is robot 0's clock (kept for format stability).
    pub robot_free_us: u64,
    /// Per-robot free instants for fleet topologies (all robots, in
    /// global robot order). Empty for the legacy single-arm shape, whose
    /// only arm is `robot_free_us` — keeping legacy checkpoint bytes
    /// identical to the pre-fleet format.
    pub robots_free_us: Vec<u64>,
    /// Queued arrivals: `(at_us, seq, request)`.
    pub queued: Vec<(u64, u64, Request)>,
}

/// Write-back-only state: the delta buffer, the write stream's RNG, and
/// the destage counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriteBackCheckpoint {
    /// Write-stream SplitMix64 state.
    pub wrng_state: u64,
    /// Write-stream destination counter.
    pub wrng_counter: u64,
    /// Next write arrival, in microseconds (absent when the stream ended).
    pub next_write_us: Option<u64>,
    /// Buffered deltas: `(created_us, dest_tape)`.
    pub buffer: Vec<(u64, u16)>,
    /// Delta blocks written to tape so far.
    pub deltas_flushed: u64,
    /// Largest buffer observed so far.
    pub peak_buffer: u64,
    /// Accumulated on-disk delta age, in microseconds.
    pub total_age_us: u64,
    /// Piggybacked flushes so far.
    pub piggyback_flushes: u64,
    /// Dedicated idle-time flushes so far.
    pub idle_flushes: u64,
}

/// Complete engine state at one outer-loop boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which engine wrote this checkpoint.
    pub engine: EngineKind,
    /// Configuration fingerprint ([`run_fingerprint`]).
    pub fingerprint: u64,
    /// Simulation clock at the boundary, in microseconds.
    pub now_us: u64,
    /// Sequence number the next trace record will carry.
    pub trace_seq: u64,
    /// Next open-queue arrival instant, in microseconds.
    pub next_arrival_us: Option<u64>,
    /// Requests made by the workload factory so far.
    pub factory_makes: u64,
    /// Interarrival gaps drawn by the workload factory so far.
    pub factory_gaps: u64,
    /// Stream fingerprint of the factory at the boundary.
    pub factory_fp: u64,
    /// The pending list, in queue order.
    pub pending: Vec<Request>,
    /// Metrics accumulators.
    pub metrics: MetricsSnapshot,
    /// Requests disrupted by a fault, keyed by request id, with the tape
    /// the fault hit.
    pub faulted: Vec<(u64, u16)>,
    /// Scheduler-private state (envelope boundaries), if the scheduler
    /// carries any.
    pub sched_state: Option<String>,
    /// Fault-injector state, present when fault injection is active.
    pub faults: Option<FaultSnapshot>,
    /// Per-drive state (exactly one entry for the write-back engine).
    pub drives: Vec<DriveCheckpoint>,
    /// Multi-drive extras.
    pub multi: Option<MultiCheckpoint>,
    /// Write-back extras.
    pub writeback: Option<WriteBackCheckpoint>,
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a fingerprint of everything a resumed run must share with the
/// checkpointed one: engine kind, catalog contents (placement and
/// replicas included, via per-tape slot maps), timing model, scheduler
/// name, workload configuration, simulation horizon, fault plan and
/// seed, drive count, and any engine-specific extra (the write-back
/// config). The workload *seed* is deliberately not part of the
/// fingerprint — a wrong seed is caught by the factory stream
/// fingerprint instead.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one fingerprinted run input"
)]
pub fn run_fingerprint(
    engine: EngineKind,
    catalog: &Catalog,
    timing: &TimingModel,
    scheduler_name: &str,
    factory_tag: &str,
    cfg_tag: &str,
    faults_tag: &str,
    fault_seed: u64,
    drives: u16,
    extra: &str,
) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, engine.name().as_bytes());
    for tape in catalog.geometry().tape_ids() {
        for (slot, block) in catalog.tape_contents(tape) {
            fnv1a(&mut h, &tape.0.to_le_bytes());
            fnv1a(&mut h, &slot.0.to_le_bytes());
            fnv1a(&mut h, &block.0.to_le_bytes());
        }
    }
    fnv1a(&mut h, &catalog.block_size().bytes().to_le_bytes());
    fnv1a(&mut h, format!("{timing:?}").as_bytes());
    fnv1a(&mut h, scheduler_name.as_bytes());
    fnv1a(&mut h, factory_tag.as_bytes());
    fnv1a(&mut h, cfg_tag.as_bytes());
    fnv1a(&mut h, faults_tag.as_bytes());
    fnv1a(&mut h, &fault_seed.to_le_bytes());
    fnv1a(&mut h, &drives.to_le_bytes());
    fnv1a(&mut h, extra.as_bytes());
    h
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Encodes requests as `id.block.arrival_us`, `;`-separated.
fn encode_requests(reqs: &[Request]) -> String {
    let mut s = String::with_capacity(reqs.len() * 12);
    for (i, r) in reqs.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        let _ = write!(s, "{}.{}.{}", r.id.0, r.block.0, r.arrival.as_micros());
    }
    s
}

fn decode_request(s: &str) -> Result<Request, String> {
    let mut it = s.split('.');
    let id = parse_u64(it.next().unwrap_or(""), "request id")?;
    let block = parse_u64(it.next().unwrap_or(""), "request block")?;
    let arrival = parse_u64(it.next().unwrap_or(""), "request arrival")?;
    if it.next().is_some() {
        return Err(format!("trailing fields in request '{s}'"));
    }
    Ok(Request {
        id: RequestId(id),
        block: BlockId(u32::try_from(block).map_err(|_| "request block out of range")?),
        arrival: SimTime::from_micros(arrival),
    })
}

fn decode_requests(s: &str) -> Result<Vec<Request>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';').map(decode_request).collect()
}

/// Encodes service-list stops as `slot:req,req|slot:req`, with requests
/// in the `encode_requests` grammar (`,`-separated within a stop).
fn encode_stops<'a>(stops: impl Iterator<Item = &'a ScheduledRead>) -> String {
    let mut s = String::new();
    for (i, stop) in stops.enumerate() {
        if i > 0 {
            s.push('|');
        }
        let _ = write!(s, "{}:", stop.slot.0);
        for (j, r) in stop.requests.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}.{}.{}", r.id.0, r.block.0, r.arrival.as_micros());
        }
    }
    s
}

fn decode_stops(s: &str) -> Result<Vec<ScheduledRead>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('|')
        .map(|stop| {
            let (slot, reqs) = stop
                .split_once(':')
                .ok_or_else(|| format!("stop '{stop}' has no slot"))?;
            let slot = SlotIndex(
                u32::try_from(parse_u64(slot, "stop slot")?).map_err(|_| "slot out of range")?,
            );
            let requests = reqs
                .split(',')
                .map(decode_request)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ScheduledRead { slot, requests })
        })
        .collect()
}

/// Encodes `u64` values `;`-separated.
fn encode_u64s(vals: &[u64]) -> String {
    let mut s = String::with_capacity(vals.len() * 8);
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        let _ = write!(s, "{v}");
    }
    s
}

fn decode_u64s(s: &str) -> Result<Vec<u64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|v| parse_u64(v, "vector element"))
        .collect()
}

/// Encodes `(u64, u64)` pairs as `a.b`, `;`-separated.
fn encode_pairs(vals: impl Iterator<Item = (u64, u64)>) -> String {
    let mut s = String::new();
    for (i, (a, b)) in vals.enumerate() {
        if i > 0 {
            s.push(';');
        }
        let _ = write!(s, "{a}.{b}");
    }
    s
}

fn decode_pairs(s: &str) -> Result<Vec<(u64, u64)>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|p| {
            let (a, b) = p
                .split_once('.')
                .ok_or_else(|| format!("malformed pair '{p}'"))?;
            Ok((parse_u64(a, "pair")?, parse_u64(b, "pair")?))
        })
        .collect()
}

struct LineWriter {
    out: String,
    lines: u64,
}

impl LineWriter {
    fn new() -> Self {
        LineWriter {
            out: String::with_capacity(4096),
            lines: 0,
        }
    }

    /// Writes one flat JSON line; `fields` are `(key, already-encoded
    /// JSON value)` pairs emitted in order after the `k` discriminator.
    fn line(&mut self, kind: &str, fields: &[(&str, String)]) {
        let _ = write!(self.out, "{{\"k\":\"{kind}\"");
        for (key, val) in fields {
            let _ = write!(self.out, ",\"{key}\":{val}");
        }
        self.out.push_str("}\n");
        self.lines += 1;
    }
}

fn js(s: &str) -> String {
    format!("\"{s}\"")
}

/// Serializes a checkpoint to its JSONL text.
pub fn to_text(c: &Checkpoint) -> String {
    let mut w = LineWriter::new();
    let mut header = vec![
        ("version", SCHEMA_VERSION.to_string()),
        ("engine", js(c.engine.name())),
        ("fingerprint", c.fingerprint.to_string()),
        ("now_us", c.now_us.to_string()),
        ("trace_seq", c.trace_seq.to_string()),
    ];
    if let Some(t) = c.next_arrival_us {
        header.push(("next_arrival_us", t.to_string()));
    }
    w.line("header", &header);
    w.line(
        "factory",
        &[
            ("makes", c.factory_makes.to_string()),
            ("gaps", c.factory_gaps.to_string()),
            ("fp", c.factory_fp.to_string()),
        ],
    );
    w.line(
        "pending",
        &[
            ("n", c.pending.len().to_string()),
            ("data", js(&encode_requests(&c.pending))),
        ],
    );
    let m = &c.metrics;
    w.line(
        "metrics",
        &[
            ("window_start_us", m.window_start_us.to_string()),
            ("completed", m.completed.to_string()),
            ("bytes", m.bytes_delivered.to_string()),
            ("reads", m.physical_reads.to_string()),
            ("switches", m.tape_switches.to_string()),
            ("total_delay_us", m.total_delay_us.to_string()),
            ("max_delay_us", m.max_delay_us.to_string()),
            ("locating_us", m.time_locating_us.to_string()),
            ("reading_us", m.time_reading_us.to_string()),
            ("switching_us", m.time_switching_us.to_string()),
            ("idle_us", m.time_idle_us.to_string()),
            ("repairing_us", m.time_repairing_us.to_string()),
            ("admitted", m.admitted.to_string()),
            ("served", m.served.to_string()),
            ("failed", m.failed_requests.to_string()),
            ("failovers", m.replica_failovers.to_string()),
            ("delays", js(&encode_u64s(&m.delays_us))),
        ],
    );
    w.line(
        "faulted",
        &[(
            "data",
            js(&encode_pairs(
                c.faulted.iter().map(|&(r, t)| (r, u64::from(t))),
            )),
        )],
    );
    if let Some(state) = &c.sched_state {
        w.line("sched", &[("state", js(state))]);
    }
    if let Some(f) = &c.faults {
        let mut healing = String::new();
        for (i, &(t, s, us)) in f.healing.iter().enumerate() {
            if i > 0 {
                healing.push(';');
            }
            let _ = write!(healing, "{t}.{s}.{us}");
        }
        let mut fields = vec![
            ("media_rng", f.media_rng.to_string()),
            ("load_rng", f.load_rng.to_string()),
            ("heal_rng", f.heal_rng.to_string()),
            ("now_us", f.now_us.to_string()),
            ("degraded_us", f.degraded_us.to_string()),
            ("media_errors", f.media_errors.to_string()),
            ("permanent", f.permanent_damage.to_string()),
            (
                "bad",
                js(&encode_pairs(
                    f.bad_copies
                        .iter()
                        .map(|&(t, s)| (u64::from(t), u64::from(s))),
                )),
            ),
            ("healing", js(&healing)),
        ];
        if let Some(t) = f.degraded_since_us {
            fields.push(("degraded_since_us", t.to_string()));
        }
        w.line("faults", &fields);
        for (i, t) in f.tapes.iter().enumerate() {
            let mut fields = vec![
                ("i", i.to_string()),
                ("rng", t.rng.to_string()),
                ("online", t.online.to_string()),
                ("offline_since_us", t.offline_since_us.to_string()),
                ("downtime_us", t.downtime_us.to_string()),
                ("permanent", t.permanent.to_string()),
            ];
            if let Some(n) = t.next_change_us {
                fields.push(("next_change_us", n.to_string()));
            }
            w.line("fault_tape", &fields);
        }
        for (i, d) in f.drives.iter().enumerate() {
            let mut fields = vec![("i", i.to_string()), ("rng", d.rng.to_string())];
            if let Some(n) = d.next_fail_us {
                fields.push(("next_fail_us", n.to_string()));
            }
            w.line("fault_drive", &fields);
        }
    }
    for (i, d) in c.drives.iter().enumerate() {
        let mut fields = vec![
            ("i", i.to_string()),
            ("head", d.head.0.to_string()),
            ("free_at_us", d.free_at_us.to_string()),
            ("idle", d.idle.to_string()),
        ];
        if let Some(t) = d.mounted {
            fields.push(("mounted", t.0.to_string()));
        }
        if let Some(p) = d.cur_phase {
            fields.push(("phase", js(p.name())));
        }
        let plan_parts = d.plan.as_ref().map(|p| {
            (
                p.tape.0.to_string(),
                js(&encode_stops(p.list.forward_stops())),
                js(&encode_stops(p.list.reverse_stops())),
            )
        });
        if let Some((tape, fwd, rev)) = &plan_parts {
            fields.push(("plan_tape", tape.clone()));
            fields.push(("fwd", fwd.clone()));
            fields.push(("rev", rev.clone()));
        }
        w.line("drive", &fields);
    }
    if let Some(mc) = &c.multi {
        let mut queued = String::new();
        for (i, (at, seq, r)) in mc.queued.iter().enumerate() {
            if i > 0 {
                queued.push(';');
            }
            let _ = write!(
                queued,
                "{at}.{seq}.{}.{}.{}",
                r.id.0,
                r.block.0,
                r.arrival.as_micros()
            );
        }
        let mut fields = vec![
            ("seq", mc.seq.to_string()),
            ("robot_free_us", mc.robot_free_us.to_string()),
        ];
        let robots = mc
            .robots_free_us
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(";");
        if !mc.robots_free_us.is_empty() {
            fields.push(("robots_free_us", js(&robots)));
        }
        fields.push(("queued", js(&queued)));
        w.line("multi", &fields);
    }
    if let Some(wb) = &c.writeback {
        let mut fields = vec![
            ("wrng_state", wb.wrng_state.to_string()),
            ("wrng_counter", wb.wrng_counter.to_string()),
            ("flushed", wb.deltas_flushed.to_string()),
            ("peak", wb.peak_buffer.to_string()),
            ("age_us", wb.total_age_us.to_string()),
            ("piggy", wb.piggyback_flushes.to_string()),
            ("idle_flushes", wb.idle_flushes.to_string()),
            (
                "buffer",
                js(&encode_pairs(
                    wb.buffer.iter().map(|&(c, d)| (c, u64::from(d))),
                )),
            ),
        ];
        if let Some(t) = wb.next_write_us {
            fields.push(("next_write_us", t.to_string()));
        }
        w.line("writeback", &fields);
    }
    let lines = w.lines;
    w.line("end", &[("lines", lines.to_string())]);
    w.out
}

/// Writes a checkpoint to `path` atomically and durably: the text goes
/// to `<path>.tmp` first, is fsynced, and is renamed into place — then
/// the parent directory is fsynced (on Unix) so the rename itself
/// survives a power loss. `path` therefore always holds a complete
/// checkpoint even if the process dies mid-write; a torn temp file is
/// simply overwritten by the next save.
pub fn save(c: &Checkpoint, path: &Path) -> Result<(), SimError> {
    use std::io::Write as _;
    let text = to_text(c);
    let tmp = path.with_extension("ckpt.tmp");
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| SimError::CheckpointIo(format!("creating {}: {e}", tmp.display())))?;
    file.write_all(text.as_bytes())
        .map_err(|e| SimError::CheckpointIo(format!("writing {}: {e}", tmp.display())))?;
    // Flush file contents to stable storage before the rename: a rename
    // is atomic in the namespace but says nothing about the data blocks,
    // so without this barrier a crash could leave `path` pointing at a
    // complete-looking name with torn contents.
    file.sync_all()
        .map_err(|e| SimError::CheckpointIo(format!("syncing {}: {e}", tmp.display())))?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| SimError::CheckpointIo(format!("renaming into {}: {e}", path.display())))?;
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let dh = std::fs::File::open(dir).map_err(|e| {
            SimError::CheckpointIo(format!("opening directory {}: {e}", dir.display()))
        })?;
        dh.sync_all().map_err(|e| {
            SimError::CheckpointIo(format!("syncing directory {}: {e}", dir.display()))
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("{what} '{s}' is not an integer"))
}

struct Fields<'a> {
    map: &'a BTreeMap<String, String>,
}

impl Fields<'_> {
    fn u64(&self, key: &str) -> Result<u64, String> {
        parse_u64(
            self.map
                .get(key)
                .ok_or_else(|| format!("missing field '{key}'"))?,
            key,
        )
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.map.get(key).map(|v| parse_u64(v, key)).transpose()
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("field '{key}' out of range"))
    }

    fn u16(&self, key: &str) -> Result<u16, String> {
        u16::try_from(self.u64(key)?).map_err(|_| format!("field '{key}' out of range"))
    }

    fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.map.get(key).map(String::as_str) {
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            _ => Err(format!("field '{key}' is not a boolean")),
        }
    }

    fn string(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing field '{key}'"))
    }
}

fn corrupt(line: usize, msg: impl std::fmt::Display) -> SimError {
    SimError::CheckpointCorrupt(format!("line {line}: {msg}"))
}

/// Parses checkpoint text (see [`to_text`]) back into a [`Checkpoint`].
///
/// # Errors
/// [`SimError::CheckpointVersion`] when the header carries an unsupported
/// schema version; [`SimError::CheckpointCorrupt`] for every structural
/// problem — missing header or footer, a line-count mismatch (truncated
/// file), malformed lines, or fields out of range.
pub fn from_text(text: &str) -> Result<Checkpoint, SimError> {
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let map = parse_flat_object(raw).map_err(|m| corrupt(i + 1, m))?;
        lines.push((i + 1, map));
    }
    let Some((footer_no, footer)) = lines.last() else {
        return Err(SimError::CheckpointCorrupt("file is empty".into()));
    };
    if footer.get("k").map(String::as_str) != Some("end") {
        return Err(SimError::CheckpointCorrupt(
            "missing end line (file truncated)".into(),
        ));
    }
    let declared = Fields { map: footer }
        .u64("lines")
        .map_err(|m| corrupt(*footer_no, m))?;
    if declared != (lines.len() - 1) as u64 {
        return Err(SimError::CheckpointCorrupt(format!(
            "end line declares {declared} lines but {} are present (file truncated)",
            lines.len() - 1
        )));
    }

    let Some((header_no, header)) = lines.first() else {
        // Unreachable: the footer check above required at least one line.
        return Err(SimError::CheckpointCorrupt("file is empty".into()));
    };
    let h = Fields { map: header };
    if header.get("k").map(String::as_str) != Some("header") {
        return Err(corrupt(*header_no, "first line is not the header"));
    }
    let version = h.u32("version").map_err(|m| corrupt(*header_no, m))?;
    if version != SCHEMA_VERSION {
        return Err(SimError::CheckpointVersion {
            found: version,
            expected: SCHEMA_VERSION,
        });
    }
    let engine = EngineKind::from_name(h.string("engine").map_err(|m| corrupt(*header_no, m))?)
        .ok_or_else(|| corrupt(*header_no, "unknown engine kind"))?;

    let mut c = Checkpoint {
        engine,
        fingerprint: h.u64("fingerprint").map_err(|m| corrupt(*header_no, m))?,
        now_us: h.u64("now_us").map_err(|m| corrupt(*header_no, m))?,
        trace_seq: h.u64("trace_seq").map_err(|m| corrupt(*header_no, m))?,
        next_arrival_us: h
            .opt_u64("next_arrival_us")
            .map_err(|m| corrupt(*header_no, m))?,
        factory_makes: 0,
        factory_gaps: 0,
        factory_fp: 0,
        pending: Vec::new(),
        metrics: MetricsSnapshot {
            window_start_us: 0,
            completed: 0,
            bytes_delivered: 0,
            physical_reads: 0,
            tape_switches: 0,
            total_delay_us: 0,
            max_delay_us: 0,
            delays_us: Vec::new(),
            time_locating_us: 0,
            time_reading_us: 0,
            time_switching_us: 0,
            time_idle_us: 0,
            time_repairing_us: 0,
            admitted: 0,
            served: 0,
            failed_requests: 0,
            replica_failovers: 0,
        },
        faulted: Vec::new(),
        sched_state: None,
        faults: None,
        drives: Vec::new(),
        multi: None,
        writeback: None,
    };
    let mut seen_factory = false;
    let mut seen_metrics = false;

    for (no, map) in &lines[1..lines.len() - 1] {
        let f = Fields { map };
        let kind = map
            .get("k")
            .map(String::as_str)
            .ok_or_else(|| corrupt(*no, "line has no kind"))?;
        let res: Result<(), String> = (|| {
            match kind {
                "factory" => {
                    c.factory_makes = f.u64("makes")?;
                    c.factory_gaps = f.u64("gaps")?;
                    c.factory_fp = f.u64("fp")?;
                    seen_factory = true;
                }
                "pending" => {
                    c.pending = decode_requests(f.string("data")?)?;
                    if c.pending.len() as u64 != f.u64("n")? {
                        return Err("pending count does not match data".into());
                    }
                }
                "metrics" => {
                    c.metrics = MetricsSnapshot {
                        window_start_us: f.u64("window_start_us")?,
                        completed: f.u64("completed")?,
                        bytes_delivered: f.u64("bytes")?,
                        physical_reads: f.u64("reads")?,
                        tape_switches: f.u64("switches")?,
                        total_delay_us: f.u64("total_delay_us")?,
                        max_delay_us: f.u64("max_delay_us")?,
                        delays_us: decode_u64s(f.string("delays")?)?,
                        time_locating_us: f.u64("locating_us")?,
                        time_reading_us: f.u64("reading_us")?,
                        time_switching_us: f.u64("switching_us")?,
                        time_idle_us: f.u64("idle_us")?,
                        time_repairing_us: f.u64("repairing_us")?,
                        admitted: f.u64("admitted")?,
                        served: f.u64("served")?,
                        failed_requests: f.u64("failed")?,
                        replica_failovers: f.u64("failovers")?,
                    };
                    seen_metrics = true;
                }
                "faulted" => {
                    c.faulted = decode_pairs(f.string("data")?)?
                        .into_iter()
                        .map(|(r, t)| {
                            Ok((
                                r,
                                u16::try_from(t).map_err(|_| "faulted tape out of range")?,
                            ))
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                }
                "sched" => {
                    c.sched_state = Some(f.string("state")?.to_string());
                }
                "faults" => {
                    c.faults = Some(FaultSnapshot {
                        media_rng: f.u64("media_rng")?,
                        load_rng: f.u64("load_rng")?,
                        heal_rng: f.u64("heal_rng")?,
                        now_us: f.u64("now_us")?,
                        degraded_since_us: f.opt_u64("degraded_since_us")?,
                        degraded_us: f.u64("degraded_us")?,
                        media_errors: f.u64("media_errors")?,
                        permanent_damage: f.boolean("permanent")?,
                        tapes: Vec::new(),
                        drives: Vec::new(),
                        bad_copies: decode_pairs(f.string("bad")?)?
                            .into_iter()
                            .map(|(t, s)| {
                                Ok((
                                    u16::try_from(t).map_err(|_| "bad-copy tape out of range")?,
                                    u32::try_from(s).map_err(|_| "bad-copy slot out of range")?,
                                ))
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                        healing: {
                            let enc = f.string("healing")?;
                            let mut v = Vec::new();
                            if !enc.is_empty() {
                                for part in enc.split(';') {
                                    let mut it = part.split('.');
                                    let t = parse_u64(it.next().unwrap_or(""), "healing tape")?;
                                    let s = parse_u64(it.next().unwrap_or(""), "healing slot")?;
                                    let us = parse_u64(it.next().unwrap_or(""), "healing instant")?;
                                    if it.next().is_some() {
                                        return Err("healing entry has extra fields".into());
                                    }
                                    v.push((
                                        u16::try_from(t)
                                            .map_err(|_| "healing tape out of range")?,
                                        u32::try_from(s)
                                            .map_err(|_| "healing slot out of range")?,
                                        us,
                                    ));
                                }
                            }
                            v
                        },
                    });
                }
                "fault_tape" => {
                    let snap = c
                        .faults
                        .as_mut()
                        .ok_or("fault_tape line before faults line")?;
                    if f.u64("i")? != snap.tapes.len() as u64 {
                        return Err("fault_tape lines out of order".into());
                    }
                    snap.tapes.push(TapeFaultSnapshot {
                        rng: f.u64("rng")?,
                        online: f.boolean("online")?,
                        next_change_us: f.opt_u64("next_change_us")?,
                        offline_since_us: f.u64("offline_since_us")?,
                        downtime_us: f.u64("downtime_us")?,
                        permanent: f.boolean("permanent")?,
                    });
                }
                "fault_drive" => {
                    let snap = c
                        .faults
                        .as_mut()
                        .ok_or("fault_drive line before faults line")?;
                    if f.u64("i")? != snap.drives.len() as u64 {
                        return Err("fault_drive lines out of order".into());
                    }
                    snap.drives.push(DriveFaultSnapshot {
                        rng: f.u64("rng")?,
                        next_fail_us: f.opt_u64("next_fail_us")?,
                    });
                }
                "drive" => {
                    if f.u64("i")? != c.drives.len() as u64 {
                        return Err("drive lines out of order".into());
                    }
                    let plan = match map.get("plan_tape") {
                        Some(_) => {
                            let tape = TapeId(f.u16("plan_tape")?);
                            let forward = decode_stops(f.string("fwd")?)?;
                            let reverse = decode_stops(f.string("rev")?)?;
                            let list = ServiceList::from_parts(forward, reverse)
                                .map_err(|m| format!("bad service list: {m}"))?;
                            Some(SweepPlan { tape, list })
                        }
                        None => None,
                    };
                    let cur_phase = match map.get("phase").map(String::as_str) {
                        Some("forward") => Some(SweepPhase::Forward),
                        Some("reverse") => Some(SweepPhase::Reverse),
                        Some(other) => return Err(format!("bad phase '{other}'")),
                        None => None,
                    };
                    c.drives.push(DriveCheckpoint {
                        mounted: map
                            .get("mounted")
                            .map(|_| f.u16("mounted").map(TapeId))
                            .transpose()?,
                        head: SlotIndex(f.u32("head")?),
                        plan,
                        cur_phase,
                        free_at_us: f.u64("free_at_us")?,
                        idle: f.boolean("idle")?,
                    });
                }
                "multi" => {
                    let mut queued = Vec::new();
                    let data = f.string("queued")?;
                    if !data.is_empty() {
                        for q in data.split(';') {
                            let mut it = q.split('.');
                            let (Some(at), Some(qs), Some(id), Some(blk), Some(arr), None) = (
                                it.next(),
                                it.next(),
                                it.next(),
                                it.next(),
                                it.next(),
                                it.next(),
                            ) else {
                                return Err(format!("malformed queued arrival '{q}'"));
                            };
                            queued.push((
                                parse_u64(at, "queued at")?,
                                parse_u64(qs, "queued seq")?,
                                Request {
                                    id: RequestId(parse_u64(id, "queued id")?),
                                    block: BlockId(
                                        u32::try_from(parse_u64(blk, "queued block")?)
                                            .map_err(|_| "queued block out of range")?,
                                    ),
                                    arrival: SimTime::from_micros(parse_u64(
                                        arr,
                                        "queued arrival",
                                    )?),
                                },
                            ));
                        }
                    }
                    let robots_free_us = match f.map.get("robots_free_us") {
                        Some(raw) => raw
                            .split(';')
                            .filter(|t| !t.is_empty())
                            .map(|t| parse_u64(t, "robots_free_us"))
                            .collect::<Result<Vec<u64>, String>>()?,
                        None => Vec::new(),
                    };
                    c.multi = Some(MultiCheckpoint {
                        seq: f.u64("seq")?,
                        robot_free_us: f.u64("robot_free_us")?,
                        robots_free_us,
                        queued,
                    });
                }
                "writeback" => {
                    c.writeback = Some(WriteBackCheckpoint {
                        wrng_state: f.u64("wrng_state")?,
                        wrng_counter: f.u64("wrng_counter")?,
                        next_write_us: f.opt_u64("next_write_us")?,
                        buffer: decode_pairs(f.string("buffer")?)?
                            .into_iter()
                            .map(|(created, d)| {
                                Ok((
                                    created,
                                    u16::try_from(d).map_err(|_| "delta dest out of range")?,
                                ))
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                        deltas_flushed: f.u64("flushed")?,
                        peak_buffer: f.u64("peak")?,
                        total_age_us: f.u64("age_us")?,
                        piggyback_flushes: f.u64("piggy")?,
                        idle_flushes: f.u64("idle_flushes")?,
                    });
                }
                other => return Err(format!("unknown line kind '{other}'")),
            }
            Ok(())
        })();
        res.map_err(|m| corrupt(*no, m))?;
    }
    if !seen_factory {
        return Err(SimError::CheckpointCorrupt("missing factory line".into()));
    }
    if !seen_metrics {
        return Err(SimError::CheckpointCorrupt("missing metrics line".into()));
    }
    if c.drives.is_empty() {
        return Err(SimError::CheckpointCorrupt("missing drive lines".into()));
    }
    Ok(c)
}

/// Reads and parses the checkpoint at `path`.
///
/// # Errors
/// [`SimError::CheckpointIo`] when the file cannot be read, plus
/// everything [`from_text`] raises.
pub fn load(path: &Path) -> Result<Checkpoint, SimError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::CheckpointIo(format!("reading {}: {e}", path.display())))?;
    from_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_checkpoint_after_is_strictly_after_and_aligned() {
        let every = Micros::from_micros(10);
        // Fresh run: first instant is one full interval in.
        assert_eq!(
            next_checkpoint_after(SimTime::ZERO, every),
            SimTime::from_micros(10)
        );
        // Mid-interval and exactly-on-boundary clocks both advance to the
        // next aligned multiple, never returning `now` itself.
        assert_eq!(
            next_checkpoint_after(SimTime::from_micros(7), every),
            SimTime::from_micros(10)
        );
        assert_eq!(
            next_checkpoint_after(SimTime::from_micros(10), every),
            SimTime::from_micros(20)
        );
        // A resume landing far into the schedule skips straight past the
        // elapsed intervals (the old per-interval loop made this O(now)).
        assert_eq!(
            next_checkpoint_after(SimTime::from_micros(1_000_000_007), every),
            SimTime::from_micros(1_000_000_010)
        );
    }

    #[test]
    fn zero_interval_is_rejected_by_validate() {
        // Regression: a zero interval used to hang the engines' schedule
        // advance; `validate` now refuses it before any loop runs.
        let opts = CheckpointOpts::checkpoint_every(Micros::ZERO, "x.ckpt");
        assert!(matches!(opts.validate(), Err(SimError::InvalidConfig(_))));
        let opts = CheckpointOpts::resume_from("x.ckpt").and_checkpoint_every(Micros::ZERO, "y");
        assert!(matches!(opts.validate(), Err(SimError::InvalidConfig(_))));
        assert!(CheckpointOpts::none().validate().is_ok());
        assert!(
            CheckpointOpts::checkpoint_every(Micros::from_micros(1), "x.ckpt")
                .validate()
                .is_ok()
        );
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            engine: EngineKind::Multi,
            fingerprint: 0xDEAD_BEEF_0123_4567,
            now_us: 42_000_000,
            trace_seq: 1234,
            next_arrival_us: Some(43_000_000),
            factory_makes: 99,
            factory_gaps: 100,
            factory_fp: 0x0BAD_F00D,
            pending: vec![
                Request {
                    id: RequestId(7),
                    block: BlockId(11),
                    arrival: SimTime::from_micros(41_000_000),
                },
                Request {
                    id: RequestId(8),
                    block: BlockId(0),
                    arrival: SimTime::from_micros(41_500_000),
                },
            ],
            metrics: MetricsSnapshot {
                window_start_us: 10_000_000,
                completed: 5,
                bytes_delivered: 5 << 20,
                physical_reads: 5,
                tape_switches: 3,
                total_delay_us: 700,
                max_delay_us: 300,
                delays_us: vec![100, 200, 300, 50, 50],
                time_locating_us: 11,
                time_reading_us: 22,
                time_switching_us: 33,
                time_idle_us: 44,
                time_repairing_us: 0,
                admitted: 9,
                served: 5,
                failed_requests: 0,
                replica_failovers: 1,
            },
            faulted: vec![(7, 2)],
            sched_state: Some("3,5,9".into()),
            faults: Some(FaultSnapshot {
                media_rng: 1,
                load_rng: 2,
                heal_rng: 3,
                now_us: 42_000_000,
                degraded_since_us: None,
                degraded_us: 500,
                media_errors: 4,
                permanent_damage: false,
                tapes: vec![
                    TapeFaultSnapshot {
                        rng: 10,
                        online: true,
                        next_change_us: Some(50_000_000),
                        offline_since_us: 0,
                        downtime_us: 0,
                        permanent: false,
                    },
                    TapeFaultSnapshot {
                        rng: 11,
                        online: false,
                        next_change_us: None,
                        offline_since_us: 40_000_000,
                        downtime_us: 123,
                        permanent: true,
                    },
                ],
                drives: vec![DriveFaultSnapshot {
                    rng: 20,
                    next_fail_us: Some(60_000_000),
                }],
                bad_copies: vec![(1, 42)],
                healing: vec![(2, 7, 55_000_000)],
            }),
            drives: vec![DriveCheckpoint {
                mounted: Some(TapeId(3)),
                head: SlotIndex(17),
                plan: Some(SweepPlan {
                    tape: TapeId(3),
                    list: ServiceList::from_parts(
                        vec![
                            ScheduledRead {
                                slot: SlotIndex(20),
                                requests: vec![Request {
                                    id: RequestId(9),
                                    block: BlockId(5),
                                    arrival: SimTime::from_micros(100),
                                }],
                            },
                            ScheduledRead {
                                slot: SlotIndex(30),
                                requests: vec![
                                    Request {
                                        id: RequestId(10),
                                        block: BlockId(6),
                                        arrival: SimTime::from_micros(200),
                                    },
                                    Request {
                                        id: RequestId(11),
                                        block: BlockId(6),
                                        arrival: SimTime::from_micros(300),
                                    },
                                ],
                            },
                        ],
                        vec![ScheduledRead {
                            slot: SlotIndex(12),
                            requests: vec![Request {
                                id: RequestId(12),
                                block: BlockId(7),
                                arrival: SimTime::from_micros(400),
                            }],
                        }],
                    )
                    .expect("valid list"),
                }),
                cur_phase: Some(SweepPhase::Forward),
                free_at_us: 42_000_100,
                idle: false,
            }],
            multi: Some(MultiCheckpoint {
                seq: 55,
                robot_free_us: 41_999_000,
                robots_free_us: Vec::new(),
                queued: vec![(
                    42_500_000,
                    54,
                    Request {
                        id: RequestId(13),
                        block: BlockId(8),
                        arrival: SimTime::from_micros(42_500_000),
                    },
                )],
            }),
            writeback: None,
        }
    }

    #[test]
    fn round_trips_through_text() {
        let c = sample();
        let text = to_text(&c);
        // Legacy (single-robot) checkpoints carry no fleet field, keeping
        // the on-disk format identical to the pre-fleet schema.
        assert!(!text.contains("robots_free_us"));
        let back = from_text(&text).expect("parse back");
        assert_eq!(back, c);
        // Serialization is deterministic.
        assert_eq!(to_text(&back), text);
        // An envelope scheduler checkpointed before its first reschedule
        // writes an empty state string.
        let c = Checkpoint {
            sched_state: Some(String::new()),
            ..c
        };
        let text = to_text(&c);
        assert!(text.contains("\"state\":\"\""));
        assert_eq!(from_text(&text).expect("parse back"), c);
    }

    #[test]
    fn round_trips_fleet_robot_clocks() {
        let mut c = sample();
        if let Some(mc) = &mut c.multi {
            mc.robots_free_us = vec![41_999_000, 0, 12_345];
        }
        let text = to_text(&c);
        assert!(text.contains("robots_free_us"));
        let back = from_text(&text).expect("parse back");
        assert_eq!(back, c);
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn round_trips_writeback_extras() {
        let mut c = sample();
        c.engine = EngineKind::WriteBack;
        c.multi = None;
        c.faults = None;
        c.sched_state = None;
        c.drives[0].plan = None;
        c.drives[0].cur_phase = None;
        c.writeback = Some(WriteBackCheckpoint {
            wrng_state: 777,
            wrng_counter: 12,
            next_write_us: Some(43_100_000),
            buffer: vec![(41_000_000, 0), (41_200_000, 5)],
            deltas_flushed: 30,
            peak_buffer: 9,
            total_age_us: 1_000_000,
            piggyback_flushes: 2,
            idle_flushes: 3,
        });
        let back = from_text(&to_text(&c)).expect("parse back");
        assert_eq!(back, c);
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O is unsupported under Miri isolation")]
    fn truncated_file_is_detected() {
        let text = to_text(&sample());
        // Drop the footer entirely.
        let without_footer: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            from_text(&without_footer),
            Err(SimError::CheckpointCorrupt(_))
        ));
        // Drop an interior line: the footer count no longer matches.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(2);
        let shortened = lines.join("\n");
        assert!(matches!(
            from_text(&shortened),
            Err(SimError::CheckpointCorrupt(_))
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let text = to_text(&sample());
        let bumped = text.replace(&format!("\"version\":{SCHEMA_VERSION}"), "\"version\":999");
        assert_eq!(
            from_text(&bumped),
            Err(SimError::CheckpointVersion {
                found: 999,
                expected: SCHEMA_VERSION,
            })
        );
    }

    #[test]
    fn garbage_is_corrupt_not_a_panic() {
        assert!(matches!(
            from_text("total nonsense"),
            Err(SimError::CheckpointCorrupt(_))
        ));
        assert!(matches!(from_text(""), Err(SimError::CheckpointCorrupt(_))));
        // Valid framing, malformed payload.
        let bad = format!(
            "{{\"k\":\"header\",\"version\":{SCHEMA_VERSION},\"engine\":\"multi\",\
             \"fingerprint\":1,\"now_us\":nope,\"trace_seq\":0}}\n{{\"k\":\"end\",\"lines\":1}}\n"
        );
        let bad = bad.as_str();
        assert!(matches!(
            from_text(bad),
            Err(SimError::CheckpointCorrupt(_))
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O is unsupported under Miri isolation")]
    fn save_and_load_round_trip_on_disk() {
        let c = sample();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tapesim-ckpt-test-{}.ckpt", std::process::id()));
        save(&c, &path).expect("save");
        let back = load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, c);
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O is unsupported under Miri isolation")]
    fn missing_file_is_an_io_error() {
        let err = load(Path::new("/nonexistent/definitely/not/here.ckpt"));
        assert!(matches!(err, Err(SimError::CheckpointIo(_))));
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O is unsupported under Miri isolation")]
    fn truncation_mid_record_is_corrupt_not_a_panic() {
        // A file cut off in the *middle of a line* — the torn-write shape
        // the fsync-before-rename in `save` prevents, and the shape a
        // reader must survive if it ever meets one (e.g. a checkpoint
        // copied off a dying disk). Every prefix that ends mid-record
        // must parse as CheckpointCorrupt, never panic or half-load.
        let text = to_text(&sample());
        // Cut inside the third line, two-thirds of the way through it.
        let third_line_start = text
            .match_indices('\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .expect("at least three lines");
        let third_line_end = text[third_line_start..]
            .find('\n')
            .map(|i| third_line_start + i)
            .expect("line terminator");
        let cut = third_line_start + (third_line_end - third_line_start) * 2 / 3;
        let torn = &text[..cut];
        assert!(
            matches!(from_text(torn), Err(SimError::CheckpointCorrupt(_))),
            "mid-record truncation must be typed corruption"
        );

        // Same shape through the on-disk path.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tapesim-ckpt-torn-{}.ckpt", std::process::id()));
        std::fs::write(&path, torn).expect("write torn file");
        let err = load(&path);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, Err(SimError::CheckpointCorrupt(_))));
    }
}
