//! Simulated-time primitives.
//!
//! All simulation time is expressed in integer **microseconds** to keep
//! arithmetic exact and runs reproducible. [`SimTime`] is a point on the
//! simulated timeline; [`SimDuration`] is a span between two points.
//! These are deliberate newtypes ([C-NEWTYPE]) so that slot counts,
//! wall-clock time, and simulated time can never be confused.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A point in simulated time, measured in microseconds since the start
/// of the simulation.
///
/// ```rust
/// use tagwatch_sim::time::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_micros(250);
/// assert_eq!(t1.as_micros(), 250);
/// assert_eq!(t1 - t0, SimDuration::from_micros(250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point from microseconds since the origin.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Microseconds since the origin.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the later of two time points.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self` (duration
    /// would be negative).
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative SimDuration");
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of simulated time, measured in microseconds.
///
/// Supports addition, scalar multiplication (`dur * n` for repeating a
/// slot `n` times), and summation over iterators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// The span in microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Integer division of two durations: how many `rhs`-sized spans fit
    /// in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is [`SimDuration::ZERO`].
    #[must_use]
    pub fn div_duration(self, rhs: SimDuration) -> u64 {
        assert!(rhs.0 > 0, "division by zero duration");
        self.0 / rhs.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics in debug builds on underflow; use
    /// [`SimDuration::saturating_sub`] otherwise.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative SimDuration");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_micros(1_000);
        let d = SimDuration::from_micros(234);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_micros(), 1_234);
    }

    #[test]
    fn add_assign_advances_clock() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(2);
        assert_eq!(t.as_micros(), 2_000);
    }

    #[test]
    fn duration_scalar_multiplication() {
        let slot = SimDuration::from_micros(300);
        assert_eq!((slot * 10).as_micros(), 3_000);
    }

    #[test]
    fn duration_sum_over_iterator() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }

    #[test]
    fn div_duration_counts_whole_slots() {
        let budget = SimDuration::from_micros(1_000);
        let slot = SimDuration::from_micros(300);
        assert_eq!(budget.div_duration(slot), 3);
    }

    #[test]
    fn max_picks_later_point() {
        let a = SimTime::from_micros(7);
        let b = SimTime::from_micros(3);
        assert_eq!(a.max(b), a);
        assert_eq!(b.max(a), a);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(SimTime::from_micros(42).to_string(), "42us");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
    }

    #[test]
    #[should_panic(expected = "division by zero duration")]
    fn div_by_zero_duration_panics() {
        let _ = SimDuration::from_micros(1).div_duration(SimDuration::ZERO);
    }

    #[test]
    fn seconds_conversion() {
        assert!((SimDuration::from_micros(1_500_000).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((SimTime::from_micros(250_000).as_secs_f64() - 0.25).abs() < 1e-12);
    }
}
