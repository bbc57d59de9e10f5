//! Integer time types used throughout the simulator.
//!
//! The simulator is fully deterministic, so all bookkeeping is done in
//! integer microseconds. The drive model's fitted coefficients (Section 2.1
//! of the paper) are expressed in floating-point seconds; they are converted
//! to [`Micros`] exactly once, at cost-evaluation time, with
//! [`Micros::from_secs_f64`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative duration in integer microseconds.
///
/// Construct from seconds with [`Micros::from_secs_f64`] or from raw
/// microseconds with [`Micros::from_micros`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(u64);

impl Micros {
    /// The zero duration.
    pub const ZERO: Micros = Micros(0);

    /// One second.
    pub const SECOND: Micros = Micros(1_000_000);

    /// Creates a duration from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Micros(us)
    }

    /// Creates a duration from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Micros(s * 1_000_000)
    }

    /// Creates a duration from floating-point seconds, rounding to the
    /// nearest microsecond. Negative inputs saturate to zero (the fitted
    /// timing model can only produce non-negative times, but a defensive
    /// clamp keeps arithmetic total).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rounded non-negative micros fit u64"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return Micros(0);
        }
        Micros((s * 1e6).round() as u64)
    }

    /// The duration as raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration as floating-point seconds.
    #[inline]
    #[expect(
        clippy::cast_precision_loss,
        reason = "micros below 2^53 for any sim horizon"
    )]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// The duration in whole-and-fractional minutes.
    #[inline]
    pub fn as_minutes_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// The duration in whole-and-fractional hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Sustained bandwidth in bytes per second when `bytes` are moved in
    /// this duration.
    ///
    /// The schedulers break ties on this quantity, so the exact `f64`
    /// operation order (`bytes as f64`, then one division) is part of the
    /// deterministic-replay contract — do not reassociate it.
    #[inline]
    #[expect(clippy::cast_precision_loss, reason = "exact below 2^53 bytes")]
    pub fn bytes_per_sec(self, bytes: u64) -> f64 {
        bytes as f64 / self.as_secs_f64()
    }

    /// This duration as a fraction of `total` (e.g. a phase's share of a
    /// run). The caller is responsible for `total` being non-zero.
    #[inline]
    #[expect(
        clippy::cast_precision_loss,
        reason = "micros below 2^53 for any sim horizon"
    )]
    pub fn frac_of(self, total: Micros) -> f64 {
        self.0 as f64 / total.0 as f64
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    #[expect(
        clippy::expect_used,
        reason = "time never runs backwards in the simulator; use saturating_sub where underflow is a legal outcome"
    )]
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        Micros(
            self.0
                .checked_sub(rhs.0)
                .expect("Micros subtraction underflow"),
        )
    }
}

impl SubAssign for Micros {
    #[inline]
    fn sub_assign(&mut self, rhs: Micros) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Micros {
    type Output = Micros;
    #[inline]
    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Div<u64> for Micros {
    type Output = Micros;
    #[inline]
    fn div(self, rhs: u64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        iter.fold(Micros::ZERO, Add::add)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw microseconds since simulation start.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from integer seconds since simulation start.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// The instant as raw microseconds since simulation start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The instant as floating-point seconds since simulation start.
    #[inline]
    #[expect(
        clippy::cast_precision_loss,
        reason = "micros below 2^53 for any sim horizon"
    )]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since an earlier instant.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> Micros {
        debug_assert!(earlier <= self, "duration_since: earlier > self");
        Micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Micros> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Micros) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<Micros> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.as_micros();
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_secs_f64_rounds_to_microsecond() {
        assert_eq!(Micros::from_secs_f64(1.0).as_micros(), 1_000_000);
        assert_eq!(Micros::from_secs_f64(0.0000004).as_micros(), 0);
        assert_eq!(Micros::from_secs_f64(0.0000006).as_micros(), 1);
        assert_eq!(Micros::from_secs_f64(4.834).as_micros(), 4_834_000);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(Micros::from_secs_f64(-3.0), Micros::ZERO);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Micros::from_secs(3);
        let b = Micros::from_micros(500_000);
        assert_eq!((a + b).as_secs_f64(), 3.5);
        assert_eq!((a - b).as_micros(), 2_500_000);
        assert_eq!((b * 4).as_micros(), 2_000_000);
        assert_eq!((a / 2).as_micros(), 1_500_000);
    }

    #[test]
    fn saturating_sub_does_not_underflow() {
        let a = Micros::from_micros(5);
        let b = Micros::from_micros(7);
        assert_eq!(a.saturating_sub(b), Micros::ZERO);
        assert_eq!(b.saturating_sub(a), Micros::from_micros(2));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn checked_sub_panics_on_underflow() {
        let _ = Micros::from_micros(1) - Micros::from_micros(2);
    }

    #[test]
    fn simtime_advances() {
        let mut t = SimTime::ZERO;
        t += Micros::from_secs(10);
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(
            t.duration_since(SimTime::from_secs(4)),
            Micros::from_secs(6)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: Micros = (1..=4).map(Micros::from_secs).sum();
        assert_eq!(total, Micros::from_secs(10));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(Micros::from_secs_f64(1.5).to_string(), "1.500s");
        assert_eq!(SimTime::from_secs(2).to_string(), "t=2.000s");
    }
}
