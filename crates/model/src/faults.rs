//! Deterministic fault injection for the jukebox simulator.
//!
//! The paper's central claim is that block replication buys *availability*
//! as well as response time: when a tape fails, a request whose block has a
//! copy on another tape can still be served. This module provides the fault
//! model that lets the simulator demonstrate that claim:
//!
//! * **media errors** — an individual physical read fails with a small
//!   per-read probability; after a bounded number of retries the copy is
//!   declared bad and the request must fail over to a replica;
//! * **load/eject failures** — a tape exchange fails with a small
//!   probability; after a bounded number of retries the tape itself is
//!   declared failed;
//! * **whole-tape failures** — a tape spontaneously fails with a
//!   configurable mean time between failures (MTBF) and is repaired after
//!   a configurable mean time to repair (MTTR), or never if repairs are
//!   disabled (a permanently lost tape);
//! * **whole-drive failures** — the drive is taken out of service for a
//!   fixed repair interval at exponentially distributed failure times.
//!
//! Every stochastic draw comes from a dedicated [SplitMix64] substream
//! derived from a single top-level `u64` seed via [`substream`], so a run
//! is exactly reproducible from its seed, and enabling one fault class
//! never perturbs the draws of another. An inert configuration
//! ([`FaultConfig::NONE`]) consumes no random numbers at all, which keeps
//! fault-free runs bit-for-bit identical to a simulator without this
//! module.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
#![expect(
    clippy::cast_precision_loss,
    reason = "SplitMix64 bit tricks use the top 53 bits, exact by construction"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "tape indices fit u16 by geometry construction"
)]

use std::collections::{BTreeMap, BTreeSet};

use crate::time::{Micros, SimTime};
use crate::units::{JukeboxGeometry, PhysicalAddr, TapeId};

/// Derives a decorrelated child seed from a top-level seed and a stream
/// offset, using the SplitMix64 output mix. Distinct offsets give
/// statistically independent streams, so every stochastic component of a
/// run can be driven from one user-visible seed without sharing state.
#[inline]
pub const fn substream(seed: u64, offset: u64) -> u64 {
    let mut z = seed ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream offsets for the fault injector's substreams. Offsets below
/// `0x100` are reserved for non-fault components (the workload factory
/// uses the top-level seed directly).
mod stream {
    pub const MEDIA: u64 = 0x101;
    pub const LOAD: u64 = 0x102;
    pub const HEAL: u64 = 0x103;
    pub const TAPE_BASE: u64 = 0x1000;
    pub const DRIVE_BASE: u64 = 0x2000;
}

/// Knobs for the fault model. All classes default to *off*; the zero
/// value ([`FaultConfig::NONE`]) injects nothing and draws nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a single physical read attempt fails with a media
    /// error. Must be in `[0, 1)`.
    pub media_error_per_read: f64,
    /// Extra read attempts after a media error before the copy is
    /// declared bad (so a copy is given `media_retries + 1` attempts).
    pub media_retries: u32,
    /// Probability that a single tape load attempt fails. Must be in
    /// `[0, 1)`.
    pub load_failure_p: f64,
    /// Extra load attempts after a load failure before the tape is
    /// declared failed.
    pub load_retries: u32,
    /// Mean time between spontaneous whole-tape failures (exponentially
    /// distributed, independently per tape). `None` disables spontaneous
    /// tape failures.
    pub tape_mtbf: Option<Micros>,
    /// Mean time to repair a failed tape (exponentially distributed).
    /// `None` makes every tape failure permanent: the tape and all copies
    /// on it are lost for the rest of the run.
    pub tape_mttr: Option<Micros>,
    /// Mean time between whole-drive failures (exponentially
    /// distributed, independently per drive). `None` disables drive
    /// failures.
    pub drive_mtbf: Option<Micros>,
    /// Fixed repair interval for a failed drive.
    pub drive_mttr: Micros,
    /// Mean time for a copy lost to media errors to *heal* (exponentially
    /// distributed per loss): the loss is transient — dirt on the tape
    /// path, a recoverable servo fault — rather than permanent damage.
    /// While a copy is healing its requests wait (or fail over to a
    /// replica) instead of failing permanently. `None` (the default)
    /// keeps the original semantics: a lost copy is lost for the rest of
    /// the run.
    pub copy_heal_mttr: Option<Micros>,
}

impl FaultConfig {
    /// The inert configuration: no faults of any kind.
    pub const NONE: FaultConfig = FaultConfig {
        media_error_per_read: 0.0,
        media_retries: 0,
        load_failure_p: 0.0,
        load_retries: 0,
        tape_mtbf: None,
        tape_mttr: None,
        drive_mtbf: None,
        drive_mttr: Micros::ZERO,
        copy_heal_mttr: None,
    };

    /// True if this configuration injects no faults at all. An inert
    /// injector consumes no random numbers and schedules no events, so a
    /// run with `FaultConfig::NONE` is identical to one without fault
    /// injection.
    pub fn is_inert(&self) -> bool {
        self.media_error_per_read <= 0.0
            && self.load_failure_p <= 0.0
            && self.tape_mtbf.is_none()
            && self.drive_mtbf.is_none()
    }

    /// Validates the probability knobs. Probabilities of exactly 1.0 are
    /// rejected because they would livelock the retry loops.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(0.0..1.0).contains(&self.media_error_per_read) {
            return Err("media_error_per_read must be in [0, 1)");
        }
        if !(0.0..1.0).contains(&self.load_failure_p) {
            return Err("load_failure_p must be in [0, 1)");
        }
        if matches!(self.tape_mtbf, Some(m) if m.is_zero()) {
            return Err("tape_mtbf must be positive");
        }
        if matches!(self.tape_mttr, Some(m) if m.is_zero()) {
            return Err("tape_mttr must be positive");
        }
        if matches!(self.drive_mtbf, Some(m) if m.is_zero()) {
            return Err("drive_mtbf must be positive");
        }
        if matches!(self.copy_heal_mttr, Some(m) if m.is_zero()) {
            return Err("copy_heal_mttr must be positive");
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::NONE
    }
}

/// A SplitMix64 generator; one per fault substream. The same algorithm is
/// used regardless of the workspace's external RNG dependency so that
/// fault schedules are reproducible across toolchains.
#[derive(Debug, Clone)]
struct FaultRng {
    state: u64,
}

impl FaultRng {
    fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw. Always consumes exactly one value when `p > 0`.
    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed duration with the given mean, clamped to
    /// at least one microsecond so events always make progress.
    fn exp(&mut self, mean: Micros) -> Micros {
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        let d = Micros::from_secs_f64(-u.ln() * mean.as_secs_f64());
        if d.is_zero() {
            Micros::from_micros(1)
        } else {
            d
        }
    }
}

#[derive(Debug, Clone)]
struct TapeState {
    rng: FaultRng,
    online: bool,
    /// Time of the next state change (failure if online, repair
    /// completion if offline). `None` means no further changes.
    next_change: Option<SimTime>,
    /// When the current outage began (meaningful while offline).
    offline_since: SimTime,
    /// Completed downtime so far (open outages are added on query).
    downtime: Micros,
    /// True once the tape has failed with repairs disabled.
    permanent: bool,
}

#[derive(Debug, Clone)]
struct DriveState {
    rng: FaultRng,
    next_fail: Option<SimTime>,
}

/// Deterministic, seeded source of fault events for one simulation run.
///
/// The injector owns all fault state: which tapes are currently offline,
/// which individual copies have been lost to media errors, accumulated
/// per-tape downtime, and the running total of time spent in degraded
/// mode (at least one tape offline). The simulation engines drive it by
/// calling [`FaultInjector::advance`] whenever simulated time moves, and
/// query it at each decision point.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    active: bool,
    media_rng: FaultRng,
    load_rng: FaultRng,
    tapes: Vec<TapeState>,
    drives: Vec<DriveState>,
    /// Sorted list of currently offline tapes, handed to schedulers.
    offline: Vec<TapeId>,
    now: SimTime,
    degraded_since: Option<SimTime>,
    degraded: Micros,
    bad_copies: BTreeSet<(TapeId, u32)>,
    /// Copies transiently lost to media errors, with their heal instants
    /// (only populated when [`FaultConfig::copy_heal_mttr`] is set).
    healing: BTreeMap<(TapeId, u32), SimTime>,
    heal_rng: FaultRng,
    media_errors: u64,
    permanent_damage: bool,
}

impl FaultInjector {
    /// Creates an injector for a jukebox with the given geometry and
    /// number of drives, deriving every substream from `seed`.
    pub fn new(cfg: FaultConfig, geometry: &JukeboxGeometry, drives: usize, seed: u64) -> Self {
        let active = !cfg.is_inert();
        let tapes = (0..geometry.tapes)
            .map(|t| {
                let mut rng = FaultRng::new(substream(seed, stream::TAPE_BASE + t as u64));
                let next_change = if active {
                    cfg.tape_mtbf.map(|mtbf| SimTime::ZERO + rng.exp(mtbf))
                } else {
                    None
                };
                TapeState {
                    rng,
                    online: true,
                    next_change,
                    offline_since: SimTime::ZERO,
                    downtime: Micros::ZERO,
                    permanent: false,
                }
            })
            .collect();
        let drive_states = (0..drives)
            .map(|d| {
                let mut rng = FaultRng::new(substream(seed, stream::DRIVE_BASE + d as u64));
                let next_fail = if active {
                    cfg.drive_mtbf.map(|mtbf| SimTime::ZERO + rng.exp(mtbf))
                } else {
                    None
                };
                DriveState { rng, next_fail }
            })
            .collect();
        FaultInjector {
            cfg,
            active,
            media_rng: FaultRng::new(substream(seed, stream::MEDIA)),
            load_rng: FaultRng::new(substream(seed, stream::LOAD)),
            tapes,
            drives: drive_states,
            offline: Vec::new(),
            now: SimTime::ZERO,
            degraded_since: None,
            degraded: Micros::ZERO,
            bad_copies: BTreeSet::new(),
            healing: BTreeMap::new(),
            heal_rng: FaultRng::new(substream(seed, stream::HEAL)),
            media_errors: 0,
            permanent_damage: false,
        }
    }

    /// Creates an inert injector that never injects anything. Useful as
    /// the default in entry points that thread an injector through.
    pub fn inert(geometry: &JukeboxGeometry) -> Self {
        FaultInjector::new(FaultConfig::NONE, geometry, 1, 0)
    }

    /// The configuration this injector was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True if any fault class is enabled. Engines use this to skip the
    /// fault bookkeeping entirely on the fault-free fast path.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Processes all tape failure/repair events up to and including
    /// `now`, in global chronological order, updating the offline set and
    /// the downtime/degraded accounting.
    pub fn advance(&mut self, now: SimTime) {
        if !self.active {
            return;
        }
        loop {
            let due = self
                .tapes
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.next_change.map(|t| (t, i)))
                .filter(|&(t, _)| t <= now)
                .min();
            let Some((at, idx)) = due else { break };
            self.toggle_tape(idx, at);
        }
        // Tie-break: a copy whose heal instant equals the current event
        // time is already healed — heals are processed *inclusively*, so
        // a mount or read at exactly the heal boundary sees the copy
        // alive again.
        if !self.healing.is_empty() {
            self.healing.retain(|_, &mut heal_at| heal_at > now);
        }
        if now > self.now {
            self.now = now;
        }
    }

    fn toggle_tape(&mut self, idx: usize, at: SimTime) {
        let tape = TapeId(idx as u16);
        let state = &mut self.tapes[idx];
        if state.online {
            // Failure.
            state.online = false;
            state.offline_since = at;
            match self.cfg.tape_mttr {
                Some(mttr) => state.next_change = Some(at + state.rng.exp(mttr)),
                None => {
                    state.next_change = None;
                    state.permanent = true;
                    self.permanent_damage = true;
                }
            }
            if let Err(pos) = self.offline.binary_search(&tape) {
                self.offline.insert(pos, tape);
            }
            if self.degraded_since.is_none() {
                self.degraded_since = Some(at);
            }
        } else {
            // Repair completion.
            state.online = true;
            state.downtime += at.duration_since(state.offline_since);
            state.next_change = self.cfg.tape_mtbf.map(|mtbf| at + state.rng.exp(mtbf));
            if let Ok(pos) = self.offline.binary_search(&tape) {
                self.offline.remove(pos);
            }
            if self.offline.is_empty() {
                if let Some(since) = self.degraded_since.take() {
                    self.degraded += at.duration_since(since);
                }
            }
        }
    }

    /// Forces a tape failure at `now` (used when load retries are
    /// exhausted). Schedules a repair per the configured tape MTTR, or
    /// marks the tape permanently lost if repairs are disabled. No-op if
    /// the tape is already offline.
    pub fn force_tape_failure(&mut self, tape: TapeId, now: SimTime) {
        let idx = tape.index();
        if !self.tapes[idx].online {
            return;
        }
        self.tapes[idx].next_change = Some(now);
        self.toggle_tape(idx, now);
    }

    /// The sorted set of currently offline tapes, as of the last
    /// [`FaultInjector::advance`].
    pub fn offline(&self) -> &[TapeId] {
        &self.offline
    }

    /// True if the given tape is currently offline.
    pub fn is_offline(&self, tape: TapeId) -> bool {
        self.offline.binary_search(&tape).is_ok()
    }

    /// True if the copy at `addr` is unreadable right now: its tape
    /// failed permanently, it was declared bad for the rest of the run,
    /// or it is transiently lost and still healing (as of the last
    /// [`FaultInjector::advance`]).
    pub fn copy_dead(&self, addr: PhysicalAddr) -> bool {
        self.tapes[addr.tape.index()].permanent
            || self.bad_copies.contains(&(addr.tape, addr.slot.0))
            || self.healing.contains_key(&(addr.tape, addr.slot.0))
    }

    /// True if the copy at `addr` can *never* be read again: its tape
    /// failed permanently or the copy was irrecoverably lost. A healing
    /// copy is dead now but not lost forever — its requests should wait
    /// (or fail over) rather than fail. Identical to
    /// [`FaultInjector::copy_dead`] when healing is disabled.
    pub fn copy_lost_forever(&self, addr: PhysicalAddr) -> bool {
        self.tapes[addr.tape.index()].permanent
            || self.bad_copies.contains(&(addr.tape, addr.slot.0))
    }

    /// Declares the copy at `addr` lost at instant `at` after its
    /// media-error retries were exhausted. With
    /// [`FaultConfig::copy_heal_mttr`] set the loss is transient: a heal
    /// instant is drawn from the heal substream and the copy revives when
    /// [`FaultInjector::advance`] passes it. Otherwise the copy is bad
    /// for the rest of the run and counts as permanent damage.
    pub fn mark_bad_copy(&mut self, addr: PhysicalAddr, at: SimTime) {
        match self.cfg.copy_heal_mttr {
            Some(mttr) => {
                let heal_at = at + self.heal_rng.exp(mttr);
                self.healing.insert((addr.tape, addr.slot.0), heal_at);
            }
            None => {
                self.bad_copies.insert((addr.tape, addr.slot.0));
                self.permanent_damage = true;
            }
        }
    }

    /// True once any copy or tape has been permanently lost. While false,
    /// no pending request can be unserviceable forever, so engines skip
    /// the unrecoverable-request scan.
    pub fn has_permanent_damage(&self) -> bool {
        self.permanent_damage
    }

    /// Draws whether a single physical read attempt fails with a media
    /// error. Consumes one random value only when media errors are
    /// enabled.
    pub fn media_error(&mut self) -> bool {
        if self.cfg.media_error_per_read <= 0.0 {
            return false;
        }
        let hit = self.media_rng.chance(self.cfg.media_error_per_read);
        if hit {
            self.media_errors += 1;
        }
        hit
    }

    /// Total media errors drawn so far.
    pub fn media_errors(&self) -> u64 {
        self.media_errors
    }

    /// Draws whether a single tape load attempt fails. Consumes one
    /// random value only when load failures are enabled.
    pub fn load_fails(&mut self) -> bool {
        if self.cfg.load_failure_p <= 0.0 {
            return false;
        }
        self.load_rng.chance(self.cfg.load_failure_p)
    }

    /// If drive `drive` has a failure due at or before `now`, returns the
    /// fixed repair duration and schedules the next failure after the
    /// repair completes. At most one outage is reported per call.
    pub fn drive_outage(&mut self, drive: usize, now: SimTime) -> Option<Micros> {
        let state = self.drives.get_mut(drive)?;
        let due = state.next_fail.filter(|&t| t <= now)?;
        let repair_end = due.max(now) + self.cfg.drive_mttr;
        state.next_fail = self
            .cfg
            .drive_mtbf
            .map(|mtbf| repair_end + state.rng.exp(mtbf));
        Some(self.cfg.drive_mttr)
    }

    /// The next scheduled tape failure/repair or copy-heal event after
    /// `now`, if any. Engines use this to bound idle waits so that a
    /// repaired tape or healed copy (with pending requests) wakes the
    /// simulation.
    pub fn next_event(&self, now: SimTime) -> Option<SimTime> {
        let tape = self
            .tapes
            .iter()
            .filter_map(|s| s.next_change)
            .filter(|&t| t > now)
            .min();
        let heal = self.healing.values().copied().filter(|&t| t > now).min();
        match (tape, heal) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Total downtime per tape up to `end`, including outages still open
    /// at `end`. Call after `advance(end)`.
    pub fn tape_downtime(&self, end: SimTime) -> Vec<Micros> {
        self.tapes
            .iter()
            .map(|s| {
                let open = if s.online {
                    Micros::ZERO
                } else {
                    end.duration_since(s.offline_since)
                };
                s.downtime + open
            })
            .collect()
    }

    /// Total time with at least one tape offline, up to `end`, including
    /// a degraded interval still open at `end`. Call after
    /// `advance(end)`.
    pub fn degraded_time(&self, end: SimTime) -> Micros {
        let open = match self.degraded_since {
            Some(since) => end.duration_since(since),
            None => Micros::ZERO,
        };
        self.degraded + open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::SlotIndex;

    fn geom() -> JukeboxGeometry {
        JukeboxGeometry::FIVE_TAPE
    }

    #[test]
    fn substreams_are_distinct() {
        let seed = 0x1CDE_1999;
        assert_ne!(substream(seed, 1), substream(seed, 2));
        assert_ne!(substream(seed, 1), substream(seed ^ 1, 1));
    }

    #[test]
    fn inert_injector_does_nothing() {
        let mut inj = FaultInjector::inert(&geom());
        assert!(!inj.is_active());
        inj.advance(SimTime::from_secs(1_000_000));
        assert!(inj.offline().is_empty());
        assert!(!inj.media_error());
        assert!(!inj.load_fails());
        assert!(inj.drive_outage(0, SimTime::from_secs(1_000_000)).is_none());
        assert!(inj.next_event(SimTime::ZERO).is_none());
        assert!(!inj.has_permanent_damage());
        assert!(inj.degraded_time(SimTime::from_secs(1_000_000)).is_zero());
    }

    #[test]
    fn tape_fails_and_repairs() {
        let cfg = FaultConfig {
            tape_mtbf: Some(Micros::from_secs(1_000)),
            tape_mttr: Some(Micros::from_secs(100)),
            ..FaultConfig::NONE
        };
        let mut inj = FaultInjector::new(cfg, &geom(), 1, 42);
        let first = inj.next_event(SimTime::ZERO).expect("failure scheduled");
        inj.advance(first);
        assert_eq!(inj.offline().len(), 1, "one tape down at its fail time");
        let down = inj.offline()[0];
        assert!(inj.is_offline(down));
        // Far enough in the future everything cycles; downtime accrues.
        let end = SimTime::from_secs(1_000_000);
        inj.advance(end);
        let dt = inj.tape_downtime(end);
        assert!(dt.iter().any(|d| !d.is_zero()));
        assert!(!inj.degraded_time(end).is_zero());
        assert!(inj.degraded_time(end) <= end.duration_since(SimTime::ZERO));
        // Repairable failures are not permanent damage.
        assert!(!inj.has_permanent_damage());
    }

    #[test]
    fn unrepaired_tape_failure_is_permanent() {
        let cfg = FaultConfig {
            tape_mtbf: Some(Micros::from_secs(10)),
            tape_mttr: None,
            ..FaultConfig::NONE
        };
        let mut inj = FaultInjector::new(cfg, &geom(), 1, 7);
        let end = SimTime::from_secs(1_000_000);
        inj.advance(end);
        assert_eq!(inj.offline().len(), geom().tapes as usize);
        assert!(inj.has_permanent_damage());
        assert!(inj.copy_dead(PhysicalAddr {
            tape: TapeId(0),
            slot: SlotIndex(3),
        }));
        assert!(inj.next_event(end).is_none());
    }

    #[test]
    fn forced_failure_takes_tape_offline_then_repairs() {
        let cfg = FaultConfig {
            load_failure_p: 0.5,
            load_retries: 2,
            tape_mttr: Some(Micros::from_secs(50)),
            ..FaultConfig::NONE
        };
        let mut inj = FaultInjector::new(cfg, &geom(), 1, 3);
        let t0 = SimTime::from_secs(10);
        inj.force_tape_failure(TapeId(2), t0);
        assert!(inj.is_offline(TapeId(2)));
        assert!(!inj.has_permanent_damage());
        let repair = inj.next_event(t0).expect("repair scheduled");
        inj.advance(repair);
        assert!(!inj.is_offline(TapeId(2)));
        let dt = inj.tape_downtime(repair);
        assert_eq!(dt[2], repair.duration_since(t0));
    }

    #[test]
    fn bad_copy_is_dead_but_tape_survives() {
        let cfg = FaultConfig {
            media_error_per_read: 0.01,
            media_retries: 2,
            ..FaultConfig::NONE
        };
        let mut inj = FaultInjector::new(cfg, &geom(), 1, 11);
        let addr = PhysicalAddr {
            tape: TapeId(1),
            slot: SlotIndex(7),
        };
        assert!(!inj.copy_dead(addr));
        inj.mark_bad_copy(addr, SimTime::from_secs(5));
        assert!(inj.copy_dead(addr));
        assert!(inj.copy_lost_forever(addr));
        assert!(inj.has_permanent_damage());
        assert!(!inj.copy_dead(PhysicalAddr {
            tape: TapeId(1),
            slot: SlotIndex(8),
        }));
        assert!(!inj.is_offline(TapeId(1)));
    }

    #[test]
    fn same_seed_gives_identical_schedules() {
        let cfg = FaultConfig {
            media_error_per_read: 0.05,
            load_failure_p: 0.02,
            tape_mtbf: Some(Micros::from_secs(500)),
            tape_mttr: Some(Micros::from_secs(60)),
            drive_mtbf: Some(Micros::from_secs(2_000)),
            drive_mttr: Micros::from_secs(30),
            ..FaultConfig::NONE
        };
        let mut a = FaultInjector::new(cfg, &geom(), 2, 99);
        let mut b = FaultInjector::new(cfg, &geom(), 2, 99);
        for step in 1..200u64 {
            let t = SimTime::from_secs(step * 37);
            a.advance(t);
            b.advance(t);
            assert_eq!(a.offline(), b.offline());
            assert_eq!(a.media_error(), b.media_error());
            assert_eq!(a.load_fails(), b.load_fails());
            assert_eq!(a.drive_outage(0, t), b.drive_outage(0, t));
            assert_eq!(a.next_event(t), b.next_event(t));
        }
        let end = SimTime::from_secs(200 * 37);
        assert_eq!(a.tape_downtime(end), b.tape_downtime(end));
        assert_eq!(a.degraded_time(end), b.degraded_time(end));
    }

    #[test]
    fn drive_outages_reschedule_after_repair() {
        let cfg = FaultConfig {
            drive_mtbf: Some(Micros::from_secs(100)),
            drive_mttr: Micros::from_secs(10),
            ..FaultConfig::NONE
        };
        let mut inj = FaultInjector::new(cfg, &geom(), 1, 5);
        let mut outages = 0;
        let mut t = SimTime::ZERO;
        for _ in 0..1_000 {
            t += Micros::from_secs(50);
            if let Some(d) = inj.drive_outage(0, t) {
                assert_eq!(d, Micros::from_secs(10));
                outages += 1;
            }
        }
        assert!(outages > 100, "expected many outages, got {outages}");
    }

    #[test]
    fn transient_copy_loss_heals_and_is_not_permanent() {
        let cfg = FaultConfig {
            media_error_per_read: 0.01,
            copy_heal_mttr: Some(Micros::from_secs(100)),
            ..FaultConfig::NONE
        };
        let mut inj = FaultInjector::new(cfg, &geom(), 1, 11);
        let addr = PhysicalAddr {
            tape: TapeId(1),
            slot: SlotIndex(7),
        };
        let t0 = SimTime::from_secs(10);
        inj.mark_bad_copy(addr, t0);
        assert!(inj.copy_dead(addr), "dead while healing");
        assert!(!inj.copy_lost_forever(addr), "but not lost forever");
        assert!(!inj.has_permanent_damage(), "healing is not damage");
        let heal_at = inj.next_event(t0).expect("heal scheduled");
        assert!(heal_at > t0);
        // Advance to just before the heal instant: still dead.
        inj.advance(SimTime::from_micros(heal_at.as_micros() - 1));
        assert!(inj.copy_dead(addr));
        // Advance to *exactly* the heal instant: the tie-break is
        // inclusive, so a mount boundary at the heal time already sees
        // the copy alive.
        inj.advance(heal_at);
        assert!(!inj.copy_dead(addr), "healed at exactly the boundary");
        assert!(inj.next_event(heal_at).is_none());
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut cfg = FaultConfig::NONE;
        assert!(cfg.validate().is_ok());
        cfg.media_error_per_read = 1.0;
        assert!(cfg.validate().is_err());
        cfg.media_error_per_read = 0.0;
        cfg.load_failure_p = -0.1;
        assert!(cfg.validate().is_err());
        cfg.load_failure_p = 0.0;
        cfg.tape_mtbf = Some(Micros::ZERO);
        assert!(cfg.validate().is_err());
        cfg.tape_mtbf = None;
        cfg.copy_heal_mttr = Some(Micros::ZERO);
        assert!(cfg.validate().is_err());
    }
}
