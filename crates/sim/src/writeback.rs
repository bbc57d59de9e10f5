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
//! writing a block is assumed to cost the same as reading one. Reads have
//! priority over idle flushes: one starts only when no read is pending.
//!
//! Destage has no loop of its own. It is a work source that the read core
//! [`SteppedMultiDrive`] carries and consults at four points of its
//! service loop: it delivers due writes at each dispatch; it piggybacks
//! after a sweep ends on a tape owed at least `piggyback_min` deltas; it
//! flushes the tape owed the most deltas when the major rescheduler finds
//! no read and a batch is buffered; and it wakes an idle drive for the
//! write that would complete a batch. Reads therefore run exactly as in a
//! write-free run of the read core — arrivals during a sweep go through
//! the incremental scheduler — until the first destage.
//! [`SteppedWriteBack`] is that core on one fault-free drive with the
//! source attached.
#![expect(
    clippy::cast_possible_truncation,
    reason = "buffer and slot counts are bounded by jukebox geometry"
)]
#![expect(
    clippy::cast_precision_loss,
    reason = "delta counters stay far below 2^53"
)]

use std::collections::VecDeque;

use tapesim_layout::Catalog;
use tapesim_model::{
    BlockSize, FaultConfig, Micros, ReadContext, SimTime, SlotIndex, TapeId, TimingModel,
};
use tapesim_sched::Scheduler;
use tapesim_workload::{ArrivalProcess, RequestFactory};

use crate::error::SimError;
use crate::metrics::MetricsReport;
use crate::multidrive::{SimConfig, SteppedMultiDrive};
use crate::stepped::{CheckpointOpts, StepOutcome};
use crate::trace::{NullSink, TraceSink};

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
/// as [`TraceEvent::DeltaFlush`](crate::TraceEvent::DeltaFlush) records.
///
/// # Errors
/// Same as [`run_with_writeback`].
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent run input"
)]
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
    let mut engine = SteppedWriteBack::new(
        catalog,
        timing,
        scheduler,
        factory,
        cfg,
        wb,
        write_seed,
        sink,
        &CheckpointOpts::none(),
    )?;
    while engine.step()? == StepOutcome::Running {}
    Ok(engine.finish())
}

/// The read core on one fault-free drive, with delta destage attached as
/// a work source (see the module docs). Each [`step`](SteppedWriteBack::step)
/// is one [`SteppedMultiDrive::step`]: a stop of a read sweep, a mount, a
/// flush, or an idle period. [`finish`](SteppedWriteBack::finish) closes
/// the accounting and yields the [`WriteBackReport`].
///
/// There is no external-arrival mode: the write-back study only makes
/// sense against the generated open Poisson read stream whose idle time
/// it measures.
pub struct SteppedWriteBack<'a> {
    core: SteppedMultiDrive<'a>,
}

impl<'a> SteppedWriteBack<'a> {
    /// Builds a stepped write-back engine whose workload, destage
    /// schedule, and tracing exactly match [`run_with_writeback_traced`]
    /// with the same arguments. The last parameter is ignored (see
    /// [`CheckpointOpts`]).
    ///
    /// # Errors
    /// Same as [`run_with_writeback`].
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one independent run input"
    )]
    pub fn new(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        scheduler: &'a mut dyn Scheduler,
        factory: &'a mut RequestFactory,
        cfg: &SimConfig,
        wb: &WriteBackConfig,
        write_seed: u64,
        sink: &'a mut dyn TraceSink,
        inert: &CheckpointOpts,
    ) -> Result<Self, SimError> {
        if matches!(factory.process(), ArrivalProcess::Closed { .. }) {
            return Err(SimError::ClosedArrivalStream);
        }
        let mut core = SteppedMultiDrive::new(
            catalog,
            timing,
            scheduler,
            factory,
            cfg,
            1,
            &FaultConfig::NONE,
            0,
            sink,
            inert,
        )?;
        core.destage = Some(DeltaDestage::new(catalog, wb, write_seed));
        Ok(SteppedWriteBack { core })
    }

    /// The engine clock: the instant of the last executed event.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// True once the horizon was reached or the run saturated.
    pub fn is_done(&self) -> bool {
        self.core.is_done()
    }

    /// Read requests waiting on the pending list.
    pub fn pending_len(&self) -> usize {
        self.core.pending_len()
    }

    /// Delta blocks currently buffered on disk.
    pub fn buffered_deltas(&self) -> usize {
        self.core.destage.as_ref().map_or(0, |s| s.buffer.len())
    }

    /// The tape currently in the drive.
    pub fn mounted(&self) -> Option<TapeId> {
        self.core.drive_mounted(0)
    }

    /// Executes one event of the read core: a read, a mount, a flush, or
    /// an idle period. Returns whether more work remains before the
    /// horizon.
    ///
    /// # Errors
    /// Same as [`run_with_writeback`].
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        self.core.step()
    }

    /// Steps until the clock reaches `until` (clamped to the horizon) or
    /// the run finishes; see [`SteppedMultiDrive::step_until`].
    ///
    /// # Errors
    /// Same as [`SteppedWriteBack::step`].
    pub fn step_until(&mut self, until: SimTime) -> Result<(), SimError> {
        self.core.step_until(until)
    }

    /// Closes the run and produces the report. Call after [`step`]
    /// returns [`StepOutcome::Done`]; calling earlier reports the state
    /// as of the current clock.
    ///
    /// [`step`]: SteppedWriteBack::step
    #[expect(
        clippy::expect_used,
        reason = "the only constructor attaches the destage source"
    )]
    pub fn finish(mut self) -> WriteBackReport {
        let source = self.core.destage.take().expect("destage source attached");
        source.report(self.core.finish())
    }
}

/// Delta destage as a work source of the read core: the write stream, the
/// delta buffer, the per-tape append regions and the write-side counters.
#[derive(Debug)]
pub(crate) struct DeltaDestage {
    cfg: WriteBackConfig,
    writes: WriteStream,
    next_write: Option<SimTime>,
    buffer: VecDeque<Delta>,
    /// Append region start per tape: just past the last occupied slot.
    append_at: Vec<SlotIndex>,
    flushed: u64,
    peak_buffer: u64,
    total_age: Micros,
    piggyback_flushes: u64,
    idle_flushes: u64,
}

impl DeltaDestage {
    fn new(catalog: &Catalog, cfg: &WriteBackConfig, seed: u64) -> Self {
        let geometry = catalog.geometry();
        let append_at = geometry
            .tape_ids()
            .map(|t| {
                catalog
                    .tape_contents(t)
                    .last()
                    .map_or(SlotIndex::BOT, |(s, _)| s.next())
            })
            .collect();
        // Deterministic write stream, independent of the read stream.
        let mut writes = WriteStream::new(cfg.write_mean_interarrival, geometry.tapes, seed);
        let next_write = Some(SimTime::ZERO + writes.next_gap());
        DeltaDestage {
            cfg: *cfg,
            writes,
            next_write,
            buffer: VecDeque::new(),
            append_at,
            flushed: 0,
            peak_buffer: 0,
            total_age: Micros::ZERO,
            piggyback_flushes: 0,
            idle_flushes: 0,
        }
    }

    /// Buffers every write due at or before `now`.
    pub(crate) fn deliver(&mut self, now: SimTime) {
        while let Some(t) = self.next_write.filter(|&t| t <= now) {
            self.buffer.push_back(Delta {
                created: t,
                dest: self.writes.next_dest(),
            });
            self.peak_buffer = self.peak_buffer.max(self.buffer.len() as u64);
            self.next_write = Some(t + self.writes.next_gap());
        }
    }

    /// True when the policy piggybacks and `tape`, whose sweep just
    /// ended, is owed at least `piggyback_min` deltas.
    pub(crate) fn piggyback_due(&self, tape: TapeId) -> bool {
        self.cfg.policy == FlushPolicy::Piggyback
            && self.buffer.iter().filter(|d| d.dest == tape).count() as u64
                >= u64::from(self.cfg.piggyback_min.max(1))
    }

    /// The tape an idle drive should flush to: once a batch is buffered,
    /// the tape owed the most deltas (the lowest id on ties).
    pub(crate) fn idle_target(&self) -> Option<TapeId> {
        if (self.buffer.len() as u64) < u64::from(self.cfg.flush_batch.max(1)) {
            return None;
        }
        let mut owed = vec![0u32; self.append_at.len()];
        for d in &self.buffer {
            owed[d.dest.index()] += 1;
        }
        owed.iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| TapeId(i as u16))
    }

    /// When an idle drive must wake for the write stream: at the next
    /// write, if that write completes a batch.
    pub(crate) fn wake_at(&self) -> Option<SimTime> {
        self.next_write
            .filter(|_| self.buffer.len() as u64 + 1 >= u64::from(self.cfg.flush_batch))
    }

    /// Streams every buffered delta owed to `tape` into its append region,
    /// starting at `start` with the head at `head`: one locate to the
    /// region, then one block write per delta, each costed like a read.
    /// Returns the instant the last write ends and the blocks written.
    pub(crate) fn flush(
        &mut self,
        tape: TapeId,
        piggyback: bool,
        head: &mut SlotIndex,
        start: SimTime,
        timing: &TimingModel,
        block: BlockSize,
    ) -> (SimTime, u32) {
        if piggyback {
            self.piggyback_flushes += 1;
        } else {
            self.idle_flushes += 1;
        }
        let region = self.append_at[tape.index()];
        let mut now = start;
        let mut blocks = 0u32;
        let (flushed, total_age) = (&mut self.flushed, &mut self.total_age);
        self.buffer.retain(|delta| {
            if delta.dest != tape {
                return true;
            }
            if blocks == 0 {
                now += timing.drive.locate(*head, region, block).0;
                *head = region;
            }
            // A positioning startup for the first block, streaming after.
            let ctx = if *head == region {
                ReadContext::AfterForwardLocate
            } else {
                ReadContext::Streaming
            };
            now += timing.drive.read_block(block, ctx);
            *head = head.next();
            blocks += 1;
            *flushed += 1;
            *total_age += now.duration_since(delta.created);
            false
        });
        (now, blocks)
    }

    fn report(self, reads: MetricsReport) -> WriteBackReport {
        WriteBackReport {
            reads,
            deltas_flushed: self.flushed,
            deltas_buffered: self.buffer.len() as u64,
            peak_buffer: self.peak_buffer,
            mean_delta_age_s: if self.flushed > 0 {
                self.total_age.as_secs_f64() / self.flushed as f64
            } else {
                0.0
            },
            piggyback_flushes: self.piggyback_flushes,
            idle_flushes: self.idle_flushes,
        }
    }
}

/// Deterministic Poisson write stream with round-robin-ish destinations.
#[derive(Debug)]
struct WriteStream {
    mean: Micros,
    tapes: u16,
    state: u64,
}

impl WriteStream {
    fn new(mean: Micros, tapes: u16, seed: u64) -> Self {
        WriteStream {
            mean,
            tapes,
            state: seed | 1,
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
        run_for(policy, read_gap_s, write_gap_s, &SimConfig::quick())
    }

    fn run_for(
        policy: FlushPolicy,
        read_gap_s: u64,
        write_gap_s: u64,
        cfg: &SimConfig,
    ) -> WriteBackReport {
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
            cfg,
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
    fn idle_only_destage_drains_the_buffer() {
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

    /// A read every second swamps the ~1 read per 30 s the drive serves:
    /// the pending list passes `max_pending`, the run stops there, and
    /// the report says so and still accounts for every admitted read.
    #[test]
    fn overloaded_run_reports_saturation() {
        let cfg = SimConfig {
            duration: Micros::from_secs(2_000_000),
            warmup: Micros::from_secs(1_000),
            max_pending: 200,
        };
        let r = run_for(FlushPolicy::Piggyback, 1, 200, &cfg).reads;
        assert!(r.saturated, "an overloaded run must report saturation");
        assert_eq!(
            r.admitted,
            r.served + r.failed_requests + r.unserved + r.cancelled
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
            // Drive it through step_until stops rather than one
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
