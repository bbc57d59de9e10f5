//! Write-back simulation — exercising the paper's write-handling
//! assumption.
//!
//! Section 4 scopes the study to reads: "Writes would be directed to
//! disk-resident delta files, occasionally written to tape during idle
//! time or piggybacked on the read schedule." This module implements that
//! assumption so it can be measured instead of assumed: writes arrive as
//! a Poisson stream, accumulate in a disk-resident delta buffer, and are
//! destaged to the tapes either
//!
//! * **during idle time only** — when no reads are pending and the buffer
//!   holds at least a flush batch, the drive mounts the tape owed the
//!   most deltas and streams them out; or
//! * **piggybacked** — additionally, whenever a read sweep finishes on a
//!   tape that is owed deltas, they are appended while the tape is still
//!   mounted (saving the extra switch).
//!
//! Deltas are appended to a per-tape append region after the data blocks;
//! writing a block is assumed to cost the same as reading one. Reads
//! always have priority: a flush never starts while reads are pending,
//! and read arrivals interrupt a flush at the next block boundary.
//!
//! Like the base engine, the loop is factored into a poll-driven
//! [`SteppedWriteBack`] core: each [`SteppedWriteBack::step`] executes
//! exactly one iteration of the original monolithic loop (a read sweep,
//! an idle-time flush, or an idle period), so the batch driver
//! [`run_with_writeback`] — construct, step to completion, finish — is
//! byte-for-byte equivalent to the pre-refactor code.
#![allow(clippy::cast_possible_truncation)] // buffer and slot counts are bounded by jukebox geometry
#![allow(clippy::cast_precision_loss)] // delta counters stay far below 2^53

use std::collections::VecDeque;

use tapesim_layout::Catalog;
use tapesim_model::{
    LocateDirection, Micros, ReadContext, SimTime, SlotIndex, TapeId, TimingModel,
};
use tapesim_sched::{JukeboxView, PendingList, Scheduler, SweepPlan};
use tapesim_workload::RequestFactory;

use crate::checkpoint::{
    self, Checkpoint, CheckpointOpts, DriveCheckpoint, EngineKind, WriteBackCheckpoint,
};
use crate::error::SimError;
use crate::metrics::{MetricsCollector, MetricsReport};
use crate::multidrive::SimConfig;
use crate::stepped::StepOutcome;
use crate::trace::{NullSink, TraceEvent, TraceSink, Tracer, SYSTEM_DRIVE};
use crate::trace_event;

/// The single drive the write-back simulation models.
const DRIVE0: u16 = 0;

/// When delta blocks are destaged to tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushPolicy {
    /// Only during idle periods, in batches.
    IdleOnly,
    /// Idle-time batches plus piggybacking on read sweeps.
    Piggyback,
}

/// Configuration of the write stream and destage policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteBackConfig {
    /// Mean interarrival time of delta-block writes.
    pub write_mean_interarrival: Micros,
    /// Minimum buffered deltas before an idle flush starts.
    pub flush_batch: u32,
    /// Minimum deltas owed to the mounted tape before a piggyback flush
    /// is worth the extra sweep time (ignored for [`FlushPolicy::IdleOnly`]).
    pub piggyback_min: u32,
    /// Destage policy.
    pub policy: FlushPolicy,
}

/// Results of a write-back run: the read-side metrics plus write-side
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteBackReport {
    /// Read metrics, directly comparable with a write-free run.
    pub reads: MetricsReport,
    /// Delta blocks written to tape.
    pub deltas_flushed: u64,
    /// Delta blocks still buffered at the end of the run.
    pub deltas_buffered: u64,
    /// Largest delta buffer observed (blocks).
    pub peak_buffer: u64,
    /// Mean time a delta spent on disk before reaching tape, in seconds.
    pub mean_delta_age_s: f64,
    /// Flushes that were piggybacked on a read sweep.
    pub piggyback_flushes: u64,
    /// Dedicated idle-time flush mounts.
    pub idle_flushes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Delta {
    created: SimTime,
    dest: TapeId,
}

/// Runs an open-queuing read workload with a concurrent write stream
/// destaged per `wb`.
///
/// # Errors
/// Returns [`SimError::ClosedArrivalStream`] if the factory's arrival
/// process is closed (write-back idle time only exists in open systems)
/// and [`SimError::InvalidConfig`] if `warmup >= duration`.
pub fn run_with_writeback(
    catalog: &Catalog,
    timing: &TimingModel,
    scheduler: &mut dyn Scheduler,
    factory: &mut RequestFactory,
    cfg: &SimConfig,
    wb: &WriteBackConfig,
    write_seed: u64,
) -> Result<WriteBackReport, SimError> {
    run_with_writeback_traced(
        catalog,
        timing,
        scheduler,
        factory,
        cfg,
        wb,
        write_seed,
        &mut NullSink,
    )
}

/// [`run_with_writeback`] with an event-trace sink attached. Read sweeps
/// emit the same vocabulary as the base engine; destage activity appears
/// as [`TraceEvent::DeltaFlush`] records.
///
/// # Errors
/// Same as [`run_with_writeback`].
#[allow(clippy::too_many_arguments)]
pub fn run_with_writeback_traced(
    catalog: &Catalog,
    timing: &TimingModel,
    scheduler: &mut dyn Scheduler,
    factory: &mut RequestFactory,
    cfg: &SimConfig,
    wb: &WriteBackConfig,
    write_seed: u64,
    sink: &mut dyn TraceSink,
) -> Result<WriteBackReport, SimError> {
    run_with_writeback_checkpointed(
        catalog,
        timing,
        scheduler,
        factory,
        cfg,
        wb,
        write_seed,
        sink,
        &CheckpointOpts::none(),
    )
}

/// [`run_with_writeback_traced`] with checkpoint/resume support (see
/// [`crate::checkpoint`]). With [`CheckpointOpts::none`] this is exactly
/// [`run_with_writeback_traced`]. The delta buffer and the write
/// stream's RNG are part of the checkpoint, so a resumed run destages
/// the same deltas at the same instants.
///
/// # Errors
/// Same as [`run_with_writeback`], plus the checkpoint errors of
/// [`crate::checkpoint::load`] and
/// [`SimError::CheckpointConfigMismatch`] when resuming into a different
/// configuration.
#[allow(clippy::too_many_arguments)]
pub fn run_with_writeback_checkpointed(
    catalog: &Catalog,
    timing: &TimingModel,
    scheduler: &mut dyn Scheduler,
    factory: &mut RequestFactory,
    cfg: &SimConfig,
    wb: &WriteBackConfig,
    write_seed: u64,
    sink: &mut dyn TraceSink,
    opts: &CheckpointOpts,
) -> Result<WriteBackReport, SimError> {
    let mut engine = SteppedWriteBack::new(
        catalog, timing, scheduler, factory, cfg, wb, write_seed, sink, opts,
    )?;
    while engine.step()? == StepOutcome::Running {}
    Ok(engine.finish())
}

/// Poll-driven core of the write-back simulation.
///
/// Each [`step`](SteppedWriteBack::step) executes one iteration of the
/// destage loop — a full read sweep (with optional piggyback flush), a
/// dedicated idle-time flush, or one idle period — and advances the
/// clock accordingly. [`finish`](SteppedWriteBack::finish) closes the
/// accounting and yields the [`WriteBackReport`].
///
/// Unlike [`crate::SteppedMultiDrive`] there is no external-arrival mode:
/// the write-back study only makes sense against the generated open
/// Poisson read stream whose idle time it measures.
pub struct SteppedWriteBack<'a> {
    catalog: &'a Catalog,
    timing: &'a TimingModel,
    scheduler: &'a mut dyn Scheduler,
    factory: &'a mut RequestFactory,
    cfg: SimConfig,
    wb: WriteBackConfig,
    opts: CheckpointOpts,
    fp: u64,
    tracer: Tracer<'a>,
    block: tapesim_model::BlockSize,
    block_bytes: u64,
    end: SimTime,
    tapes: u16,
    append_at: Vec<SlotIndex>,
    wrng: WriteStream,
    next_write: Option<SimTime>,
    now: SimTime,
    mounted: Option<TapeId>,
    head: SlotIndex,
    pending: PendingList,
    metrics: MetricsCollector,
    buffer: VecDeque<Delta>,
    next_arrival: Option<SimTime>,
    deltas_flushed: u64,
    peak_buffer: u64,
    total_age: Micros,
    piggyback_flushes: u64,
    idle_flushes: u64,
    stranded: u64,
    next_ckpt_at: Option<SimTime>,
    /// How far an idle drive may advance when nothing is schedulable.
    /// Batch drivers leave this at the horizon (reproducing the
    /// monolithic loop exactly); [`SteppedWriteBack::step_until`] lowers
    /// it so a stepping caller regains control at its chosen instant.
    park: SimTime,
    done: bool,
}

impl<'a> SteppedWriteBack<'a> {
    /// Builds a stepped write-back engine whose workload, destage
    /// schedule, tracing, and checkpointing exactly match
    /// [`run_with_writeback_checkpointed`] with the same arguments.
    ///
    /// # Errors
    /// Same as [`run_with_writeback_checkpointed`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        scheduler: &'a mut dyn Scheduler,
        factory: &'a mut RequestFactory,
        cfg: &SimConfig,
        wb: &WriteBackConfig,
        write_seed: u64,
        sink: &'a mut dyn TraceSink,
        opts: &CheckpointOpts,
    ) -> Result<Self, SimError> {
        if cfg.warmup >= cfg.duration {
            return Err(SimError::InvalidConfig("warmup must precede the horizon"));
        }
        opts.validate()?;
        let fp = checkpoint::run_fingerprint(
            EngineKind::WriteBack,
            catalog,
            timing,
            scheduler.name(),
            &factory.config_tag(),
            &format!("{cfg:?}"),
            "",
            write_seed,
            1,
            &format!("{wb:?}"),
        );
        let resumed = match opts.resume() {
            Some(path) => {
                let ckpt = checkpoint::load(path)?;
                if ckpt.fingerprint != fp {
                    return Err(SimError::CheckpointConfigMismatch {
                        found: ckpt.fingerprint,
                        expected: fp,
                    });
                }
                Some(ckpt)
            }
            None => None,
        };
        // Probe the arrival stream first (this consumes one interarrival
        // draw, matching the stream position of earlier releases). On
        // resume the factory is replayed past this draw instead.
        if resumed.is_none()
            && factory.next_interarrival().is_none()
            && factory.process().initial_requests() != 0
        {
            return Err(SimError::ClosedArrivalStream);
        }
        let block = catalog.block_size();
        let block_bytes = block.bytes();
        let end = SimTime::ZERO + cfg.duration;
        let warmup_end = SimTime::ZERO + cfg.warmup;
        let tapes = catalog.geometry().tapes;
        // Append region start per tape: just past the last occupied slot.
        let append_at: Vec<SlotIndex> = catalog
            .geometry()
            .tape_ids()
            .map(|t| {
                catalog
                    .tape_contents(t)
                    .last()
                    .map(|(s, _)| s.next())
                    .unwrap_or(SlotIndex::BOT)
            })
            .collect();

        // Deterministic write stream, independent of the read stream.
        let mut wrng = WriteStream::new(wb.write_mean_interarrival, tapes, write_seed);
        let mut next_write = if resumed.is_none() {
            Some(SimTime::ZERO + wrng.next_gap())
        } else {
            None
        };

        let tracer = match &resumed {
            Some(ckpt) => Tracer::with_seq(sink, ckpt.trace_seq),
            None => Tracer::new(sink),
        };
        let mut now = SimTime::ZERO;
        let mut mounted: Option<TapeId> = None;
        let mut head = SlotIndex::BOT;
        let mut pending = PendingList::new();
        let mut metrics = MetricsCollector::new(warmup_end);
        let mut buffer: VecDeque<Delta> = VecDeque::new();
        let mut next_arrival = if resumed.is_none() {
            let gap = factory
                .next_interarrival()
                .ok_or(SimError::ClosedArrivalStream)?;
            Some(SimTime::ZERO + gap)
        } else {
            None
        };

        let mut deltas_flushed = 0u64;
        let mut peak_buffer = 0u64;
        let mut total_age = Micros::ZERO;
        let mut piggyback_flushes = 0u64;
        let mut idle_flushes = 0u64;

        if let Some(ckpt) = &resumed {
            factory
                .replay(ckpt.factory_makes, ckpt.factory_gaps)
                .map_err(|m| SimError::CheckpointCorrupt(m.to_string()))?;
            if factory.stream_fingerprint() != ckpt.factory_fp {
                return Err(SimError::CheckpointConfigMismatch {
                    found: ckpt.factory_fp,
                    expected: factory.stream_fingerprint(),
                });
            }
            if let Some(state) = &ckpt.sched_state {
                scheduler
                    .restore_state(state)
                    .map_err(|m| SimError::CheckpointCorrupt(m.to_string()))?;
            }
            let drive = ckpt.drives.first().ok_or_else(|| {
                SimError::CheckpointCorrupt("write-back checkpoint has no drive line".into())
            })?;
            let wbs = ckpt.writeback.as_ref().ok_or_else(|| {
                SimError::CheckpointCorrupt("write-back checkpoint has no writeback line".into())
            })?;
            now = SimTime::from_micros(ckpt.now_us);
            mounted = drive.mounted;
            head = drive.head;
            for req in ckpt.pending.iter() {
                pending.push(*req);
            }
            metrics = MetricsCollector::from_snapshot(&ckpt.metrics);
            next_arrival = ckpt.next_arrival_us.map(SimTime::from_micros);
            next_write = wbs.next_write_us.map(SimTime::from_micros);
            wrng.state = wbs.wrng_state;
            wrng.counter = wbs.wrng_counter;
            buffer = wbs
                .buffer
                .iter()
                .map(|&(created, dest)| Delta {
                    created: SimTime::from_micros(created),
                    dest: TapeId(dest),
                })
                .collect();
            deltas_flushed = wbs.deltas_flushed;
            peak_buffer = wbs.peak_buffer;
            total_age = Micros::from_micros(wbs.total_age_us);
            piggyback_flushes = wbs.piggyback_flushes;
            idle_flushes = wbs.idle_flushes;
        }
        // First periodic-checkpoint instant strictly after the current clock.
        let next_ckpt_at = opts
            .write_every()
            .map(|(every, _)| checkpoint::next_checkpoint_after(now, every));

        Ok(SteppedWriteBack {
            catalog,
            timing,
            scheduler,
            factory,
            cfg: *cfg,
            wb: *wb,
            opts: opts.clone(),
            fp,
            tracer,
            block,
            block_bytes,
            end,
            tapes,
            append_at,
            wrng,
            next_write,
            now,
            mounted,
            head,
            pending,
            metrics,
            buffer,
            next_arrival,
            deltas_flushed,
            peak_buffer,
            total_age,
            piggyback_flushes,
            idle_flushes,
            stranded: 0,
            next_ckpt_at,
            park: end,
            done: false,
        })
    }

    /// The engine clock: the instant of the last executed event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True once the horizon was reached or the run saturated.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Read requests waiting on the pending list.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Delta blocks currently buffered on disk.
    pub fn buffered_deltas(&self) -> usize {
        self.buffer.len()
    }

    /// The tape currently in the drive.
    pub fn mounted(&self) -> Option<TapeId> {
        self.mounted
    }

    /// Pops every due read/write event at `at`.
    fn deliver(&mut self, at: SimTime) -> Result<(), SimError> {
        while let Some(t) = self.next_arrival {
            if t > at {
                break;
            }
            let r = self.factory.make(t);
            trace_event!(
                self.tracer,
                t,
                SYSTEM_DRIVE,
                TraceEvent::Arrival {
                    req: r.id,
                    block: r.block,
                }
            );
            self.pending.push(r);
            self.metrics.record_admission();
            let gap = self
                .factory
                .next_interarrival()
                .ok_or(SimError::ClosedArrivalStream)?;
            self.next_arrival = Some(t + gap);
        }
        while let Some(t) = self.next_write {
            if t > at {
                break;
            }
            self.buffer.push_back(Delta {
                created: t,
                dest: self.wrng.next_dest(),
            });
            self.peak_buffer = self.peak_buffer.max(self.buffer.len() as u64);
            self.next_write = Some(t + self.wrng.next_gap());
        }
        Ok(())
    }

    /// Rewinds/unmounts the current tape if needed and mounts `tape`,
    /// attributing the switch time. No-op when `tape` is already in the
    /// drive.
    fn switch_to(&mut self, tape: TapeId) {
        if self.mounted == Some(tape) {
            return;
        }
        let mut switch = Micros::ZERO;
        let mut rewind = Micros::ZERO;
        if let Some(old) = self.mounted {
            rewind = self.timing.drive.rewind(self.head, self.block);
            switch += rewind + self.timing.drive.eject();
            trace_event!(
                self.tracer,
                self.now + rewind,
                DRIVE0,
                TraceEvent::Rewind {
                    tape: old,
                    from: self.head,
                    dur: rewind,
                }
            );
            trace_event!(
                self.tracer,
                self.now + rewind,
                DRIVE0,
                TraceEvent::Unmount { tape: old }
            );
        }
        switch += self.timing.robot.exchange() + self.timing.drive.load();
        self.now += switch;
        self.metrics.add_switch_time(self.now, switch);
        self.metrics.record_tape_switch(self.now);
        trace_event!(
            self.tracer,
            self.now,
            DRIVE0,
            TraceEvent::Mount {
                tape,
                dur: switch - rewind,
            }
        );
        self.mounted = Some(tape);
        self.head = SlotIndex::BOT;
    }

    /// Executes one read sweep end-to-end, then a piggyback flush if the
    /// policy allows and enough deltas are owed to the mounted tape.
    fn run_sweep(&mut self, mut plan: SweepPlan) -> Result<(), SimError> {
        trace_event!(
            self.tracer,
            self.now,
            DRIVE0,
            TraceEvent::SweepStart {
                tape: plan.tape,
                stops: plan.list.stops() as u32,
                requests: plan.list.requests() as u32,
            }
        );
        // Read sweep, exactly as in the base engine.
        self.switch_to(plan.tape);
        let mut cur_phase = None;
        loop {
            self.deliver(self.now)?;
            if self.now >= self.end {
                self.stranded = plan.list.requests() as u64;
                self.done = true;
                return Ok(());
            }
            // Route due reads through the incremental scheduler.
            // (deliver already pushed them to pending; good enough —
            // static semantics for the write-back study keeps the
            // comparison between flush policies apples-to-apples.)
            let Some((stop, phase)) = plan.list.pop() else {
                trace_event!(
                    self.tracer,
                    self.now,
                    DRIVE0,
                    TraceEvent::SweepEnd { tape: plan.tape }
                );
                break;
            };
            if self.tracer.on && cur_phase != Some(phase) {
                cur_phase = Some(phase);
                self.tracer.push(
                    self.now,
                    DRIVE0,
                    TraceEvent::PhaseStart {
                        tape: plan.tape,
                        phase,
                    },
                );
            }
            let (lt, dir) = self.timing.drive.locate(self.head, stop.slot, self.block);
            let ctx = match dir {
                None => ReadContext::Streaming,
                Some(LocateDirection::Forward) => ReadContext::AfterForwardLocate,
                Some(LocateDirection::Reverse) => ReadContext::AfterReverseLocate,
            };
            let rt = self.timing.drive.read_block(self.block, ctx);
            trace_event!(
                self.tracer,
                self.now + lt,
                DRIVE0,
                TraceEvent::Locate {
                    tape: plan.tape,
                    from: self.head,
                    to: stop.slot,
                    dur: lt,
                }
            );
            self.now += lt + rt;
            self.metrics.add_locate_time(self.now, lt);
            self.metrics.add_read_time(self.now, rt);
            self.head = stop.slot.next();
            self.metrics.record_physical_read(self.now);
            trace_event!(
                self.tracer,
                self.now,
                DRIVE0,
                TraceEvent::Read {
                    tape: plan.tape,
                    slot: stop.slot,
                    phase,
                    dur: rt,
                }
            );
            for r in &stop.requests {
                self.metrics
                    .record_completion(r.arrival, self.now, self.block_bytes);
                trace_event!(
                    self.tracer,
                    self.now,
                    DRIVE0,
                    TraceEvent::Complete {
                        req: r.id,
                        tape: plan.tape,
                        delay: self.now.duration_since(r.arrival),
                    }
                );
            }
        }
        // Piggyback: the tape is still mounted; append its deltas.
        if self.wb.policy == FlushPolicy::Piggyback {
            let tape = plan.tape;
            let owed = self.buffer.iter().filter(|d| d.dest == tape).count();
            if owed as u32 >= self.wb.piggyback_min.max(1) && self.now < self.end {
                self.piggyback_flushes += 1;
                let before = self.deltas_flushed;
                flush_deltas(
                    self.catalog,
                    self.timing,
                    &mut self.buffer,
                    tape,
                    self.append_at[tape.index()],
                    &mut self.now,
                    &mut self.head,
                    &mut self.deltas_flushed,
                    &mut self.total_age,
                );
                trace_event!(
                    self.tracer,
                    self.now,
                    DRIVE0,
                    TraceEvent::DeltaFlush {
                        tape,
                        blocks: (self.deltas_flushed - before) as u32,
                        piggyback: true,
                    }
                );
            }
        }
        Ok(())
    }

    /// Mounts the tape owed the most deltas and streams the batch out.
    fn idle_flush(&mut self) -> Result<(), SimError> {
        // The tape owed the most deltas.
        let mut owed = vec![0u32; self.tapes as usize];
        for d in &self.buffer {
            owed[d.dest.index()] += 1;
        }
        let Some((ti, _)) = owed
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        else {
            return Err(SimError::InvalidConfig("jukebox has no tapes"));
        };
        let tape = TapeId(ti as u16);
        self.switch_to(tape);
        self.idle_flushes += 1;
        let before = self.deltas_flushed;
        flush_deltas(
            self.catalog,
            self.timing,
            &mut self.buffer,
            tape,
            self.append_at[tape.index()],
            &mut self.now,
            &mut self.head,
            &mut self.deltas_flushed,
            &mut self.total_age,
        );
        trace_event!(
            self.tracer,
            self.now,
            DRIVE0,
            TraceEvent::DeltaFlush {
                tape,
                blocks: (self.deltas_flushed - before) as u32,
                piggyback: false,
            }
        );
        Ok(())
    }

    /// Executes one iteration of the destage loop: a read sweep, a
    /// dedicated flush, or one idle period. Returns whether more work
    /// remains before the horizon.
    ///
    /// # Errors
    /// Same as [`run_with_writeback_checkpointed`].
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        if self.done {
            return Ok(StepOutcome::Done);
        }
        if self.now >= self.end {
            self.done = true;
            return Ok(StepOutcome::Done);
        }
        if let (Some(at), Some((every, path))) = (self.next_ckpt_at, self.opts.write_every()) {
            if self.now >= at {
                let ckpt = Checkpoint {
                    engine: EngineKind::WriteBack,
                    fingerprint: self.fp,
                    now_us: self.now.as_micros(),
                    trace_seq: self.tracer.next_seq(),
                    next_arrival_us: self.next_arrival.map(|t| t.as_micros()),
                    factory_makes: self.factory.minted(),
                    factory_gaps: self.factory.gaps_drawn(),
                    factory_fp: self.factory.stream_fingerprint(),
                    pending: self.pending.iter().cloned().collect(),
                    metrics: self.metrics.snapshot(),
                    faulted: Vec::new(),
                    sched_state: self.scheduler.checkpoint_state(),
                    faults: None,
                    drives: vec![DriveCheckpoint {
                        mounted: self.mounted,
                        head: self.head,
                        plan: None,
                        cur_phase: None,
                        free_at_us: self.now.as_micros(),
                        idle: false,
                    }],
                    multi: None,
                    writeback: Some(WriteBackCheckpoint {
                        wrng_state: self.wrng.state,
                        wrng_counter: self.wrng.counter,
                        next_write_us: self.next_write.map(|t| t.as_micros()),
                        buffer: self
                            .buffer
                            .iter()
                            .map(|d| (d.created.as_micros(), d.dest.0))
                            .collect(),
                        deltas_flushed: self.deltas_flushed,
                        peak_buffer: self.peak_buffer,
                        total_age_us: self.total_age.as_micros(),
                        piggyback_flushes: self.piggyback_flushes,
                        idle_flushes: self.idle_flushes,
                    }),
                };
                checkpoint::save(&ckpt, path)?;
                self.next_ckpt_at = Some(checkpoint::next_checkpoint_after(self.now, every));
            }
        }
        self.deliver(self.now)?;
        if self.pending.len() > self.cfg.max_pending {
            self.done = true;
            return Ok(StepOutcome::Done);
        }

        let view = JukeboxView {
            catalog: self.catalog,
            timing: self.timing,
            mounted: self.mounted,
            head: self.head,
            now: self.now,
            unavailable: &[],
            offline: &[],
            fleet: tapesim_sched::FleetView::SINGLE,
        };

        view.debug_assert_sorted();
        if let Some(plan) = self.scheduler.major_reschedule(&view, &mut self.pending) {
            self.run_sweep(plan)?;
            return Ok(if self.done {
                StepOutcome::Done
            } else {
                StepOutcome::Running
            });
        }

        // No reads pending: flush during idle time if a batch is owed.
        if self.buffer.len() as u32 >= self.wb.flush_batch {
            self.idle_flush()?;
            return Ok(StepOutcome::Running);
        }

        // Nothing to do at all: idle to the next event (or to `park`,
        // whichever is first, so a stepping caller regains control).
        let mut next = self.end;
        if let Some(t) = self.next_arrival {
            next = next.min(t);
        }
        if let Some(t) = self.next_write {
            // Waking for a write only matters once a batch could form (or
            // when there is no read stream to wake us at all).
            if (self.buffer.len() as u32) + 1 >= self.wb.flush_batch || self.next_arrival.is_none()
            {
                next = next.min(t);
            }
        }
        if next <= self.now {
            next = self.now + Micros::from_micros(1);
        }
        let capped = next.min(self.end).min(self.park);
        let dur = capped.duration_since(self.now);
        self.metrics.add_idle_time(capped, dur);
        trace_event!(self.tracer, capped, DRIVE0, TraceEvent::Idle { dur });
        self.now = capped;
        if self.now >= self.end {
            self.done = true;
            return Ok(StepOutcome::Done);
        }
        Ok(StepOutcome::Running)
    }

    /// Steps until the clock reaches `until` (clamped to the horizon) or
    /// the run finishes. When nothing is schedulable the drive parks at
    /// `until` instead of idling to the horizon. Parked idle periods are
    /// split into multiple `Idle` trace records (one per call), but the
    /// total idle time — and every metric — is unchanged.
    ///
    /// # Errors
    /// Same as [`SteppedWriteBack::step`].
    pub fn step_until(&mut self, until: SimTime) -> Result<(), SimError> {
        self.park = until.min(self.end);
        while !self.done && self.now < self.park {
            self.step()?;
        }
        self.park = self.end;
        Ok(())
    }

    /// Closes the run and produces the report. Call after [`step`]
    /// returns [`StepOutcome::Done`]; calling earlier reports the state
    /// as of the current clock.
    ///
    /// [`step`]: SteppedWriteBack::step
    pub fn finish(mut self) -> WriteBackReport {
        let window = self.cfg.duration - self.cfg.warmup;
        self.metrics.set_fault_accounting(
            0,
            Vec::new(),
            Micros::ZERO,
            self.pending.len() as u64 + self.stranded,
        );
        WriteBackReport {
            reads: self.metrics.report(window, false),
            deltas_flushed: self.deltas_flushed,
            deltas_buffered: self.buffer.len() as u64,
            peak_buffer: self.peak_buffer,
            mean_delta_age_s: if self.deltas_flushed > 0 {
                self.total_age.as_secs_f64() / self.deltas_flushed as f64
            } else {
                0.0
            },
            piggyback_flushes: self.piggyback_flushes,
            idle_flushes: self.idle_flushes,
        }
    }
}

/// Streams every buffered delta destined for `tape` into its append
/// region: one locate to the region, then sequential block writes.
#[allow(clippy::too_many_arguments)]
fn flush_deltas(
    catalog: &Catalog,
    timing: &TimingModel,
    buffer: &mut VecDeque<Delta>,
    tape: TapeId,
    append_at: SlotIndex,
    now: &mut SimTime,
    head: &mut SlotIndex,
    deltas_flushed: &mut u64,
    total_age: &mut Micros,
) {
    let block = catalog.block_size();
    let mut first = true;
    let mut kept: VecDeque<Delta> = VecDeque::with_capacity(buffer.len());
    for delta in buffer.drain(..) {
        if delta.dest != tape {
            kept.push_back(delta);
            continue;
        }
        if first {
            let (lt, _) = timing.drive.locate(*head, append_at, block);
            *now += lt;
            *head = append_at;
            first = false;
        }
        // Writing a block is modeled like reading one (a positioning
        // startup for the first block, streaming afterwards).
        let ctx = if *head == append_at {
            ReadContext::AfterForwardLocate
        } else {
            ReadContext::Streaming
        };
        let wt = timing.drive.read_block(block, ctx);
        *now += wt;
        *head = head.next();
        *deltas_flushed += 1;
        *total_age += now.duration_since(delta.created);
    }
    *buffer = kept;
}

/// Deterministic Poisson write stream with round-robin-ish destinations.
#[derive(Debug)]
struct WriteStream {
    mean: Micros,
    tapes: u16,
    state: u64,
    counter: u64,
}

impl WriteStream {
    fn new(mean: Micros, tapes: u16, seed: u64) -> Self {
        WriteStream {
            mean,
            tapes,
            state: seed | 1,
            counter: 0,
        }
    }

    /// SplitMix64 step.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_gap(&mut self) -> Micros {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let u = u.max(f64::MIN_POSITIVE);
        Micros::from_secs_f64(-u.ln() * self.mean.as_secs_f64())
    }

    fn next_dest(&mut self) -> TapeId {
        self.counter += 1;
        TapeId(((self.next_u64() % self.tapes as u64) & 0xFFFF) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::{build_placement, PlacementConfig};
    use tapesim_model::{BlockSize, JukeboxGeometry};
    use tapesim_sched::{make_scheduler, AlgorithmId};
    use tapesim_workload::{ArrivalProcess, BlockSampler};

    fn run(policy: FlushPolicy, read_gap_s: u64, write_gap_s: u64) -> WriteBackReport {
        let placed = build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig::paper_baseline(),
        )
        .unwrap();
        let timing = TimingModel::paper_default();
        let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
        let mut factory = RequestFactory::new(
            sampler,
            ArrivalProcess::OpenPoisson {
                mean_interarrival: Micros::from_secs(read_gap_s),
            },
            7,
        );
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        run_with_writeback(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            &WriteBackConfig {
                write_mean_interarrival: Micros::from_secs(write_gap_s),
                flush_batch: 5,
                piggyback_min: 2,
                policy,
            },
            99,
        )
        .expect("write-back run failed")
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn idle_flushes_drain_the_buffer() {
        let r = run(FlushPolicy::IdleOnly, 400, 200);
        assert!(r.deltas_flushed > 100, "flushed {}", r.deltas_flushed);
        assert!(r.idle_flushes > 0);
        assert_eq!(r.piggyback_flushes, 0);
        // The buffer can grow during long busy read stretches but stays
        // bounded at this write rate (~500 writes arrive in total).
        assert!(r.peak_buffer < 300, "peak {}", r.peak_buffer);
        assert!(
            r.deltas_flushed + r.deltas_buffered >= 400,
            "writes lost: {} + {}",
            r.deltas_flushed,
            r.deltas_buffered
        );
        assert!(r.reads.completed > 50);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn piggybacking_reduces_delta_age() {
        let idle = run(FlushPolicy::IdleOnly, 300, 150);
        let piggy = run(FlushPolicy::Piggyback, 300, 150);
        assert!(piggy.piggyback_flushes > 0);
        assert!(
            piggy.mean_delta_age_s < idle.mean_delta_age_s,
            "piggyback age {:.0}s vs idle-only {:.0}s",
            piggy.mean_delta_age_s,
            idle.mean_delta_age_s
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn reads_still_complete_under_write_load() {
        let quiet = run(FlushPolicy::Piggyback, 300, 1_000_000);
        let busy = run(FlushPolicy::Piggyback, 300, 120);
        assert!(busy.reads.completed > 0);
        // Destaging steals drive time, so reads do get slower under a
        // heavy write load — but the system keeps serving, not collapsing.
        assert!(busy.reads.mean_delay_s > quiet.reads.mean_delay_s);
        assert!(
            busy.reads.mean_delay_s < quiet.reads.mean_delay_s * 8.0 + 600.0,
            "busy {:.0}s vs quiet {:.0}s",
            busy.reads.mean_delay_s,
            quiet.reads.mean_delay_s
        );
    }

    #[test]
    fn closed_read_workload_is_rejected() {
        let placed = build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig::paper_baseline(),
        )
        .unwrap();
        let timing = TimingModel::paper_default();
        let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
        let mut factory =
            RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 10 }, 7);
        let mut sched = make_scheduler(AlgorithmId::paper_recommended());
        let err = run_with_writeback(
            &placed.catalog,
            &timing,
            sched.as_mut(),
            &mut factory,
            &SimConfig::quick(),
            &WriteBackConfig {
                write_mean_interarrival: Micros::from_secs(100),
                flush_batch: 5,
                piggyback_min: 2,
                policy: FlushPolicy::IdleOnly,
            },
            99,
        );
        assert_eq!(err, Err(SimError::ClosedArrivalStream));
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn writeback_is_deterministic() {
        let a = run(FlushPolicy::Piggyback, 300, 150);
        let b = run(FlushPolicy::Piggyback, 300, 150);
        assert_eq!(a, b);
    }

    #[test]
    #[cfg_attr(miri, ignore = "full-horizon simulation is too slow under Miri")]
    fn stepped_writeback_matches_batch() {
        let placed = build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig::paper_baseline(),
        )
        .unwrap();
        let timing = TimingModel::paper_default();
        let wb = WriteBackConfig {
            write_mean_interarrival: Micros::from_secs(150),
            flush_batch: 5,
            piggyback_min: 2,
            policy: FlushPolicy::Piggyback,
        };
        let mk_factory = || {
            RequestFactory::new(
                BlockSampler::from_catalog(&placed.catalog, 40.0),
                ArrivalProcess::OpenPoisson {
                    mean_interarrival: Micros::from_secs(300),
                },
                7,
            )
        };
        let batch = {
            let mut factory = mk_factory();
            let mut sched = make_scheduler(AlgorithmId::paper_recommended());
            run_with_writeback(
                &placed.catalog,
                &timing,
                sched.as_mut(),
                &mut factory,
                &SimConfig::quick(),
                &wb,
                99,
            )
            .unwrap()
        };
        let stepped = {
            let mut factory = mk_factory();
            let mut sched = make_scheduler(AlgorithmId::paper_recommended());
            let mut sink = NullSink;
            let mut engine = SteppedWriteBack::new(
                &placed.catalog,
                &timing,
                sched.as_mut(),
                &mut factory,
                &SimConfig::quick(),
                &wb,
                99,
                &mut sink,
                &CheckpointOpts::none(),
            )
            .unwrap();
            // Drive it through step_until checkpoints rather than one
            // straight run; the split idle periods must not change any
            // metric.
            engine
                .step_until(SimTime::ZERO + Micros::from_secs(20_000))
                .unwrap();
            assert!(!engine.is_done());
            let _ = (engine.now(), engine.pending_len(), engine.buffered_deltas());
            engine
                .step_until(SimTime::ZERO + Micros::from_secs(100_000))
                .unwrap();
            while engine.step().unwrap() == StepOutcome::Running {}
            engine.finish()
        };
        assert_eq!(batch, stepped);
    }
}
