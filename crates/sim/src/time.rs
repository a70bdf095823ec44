//! Virtual time primitives used throughout the simulator and the protocol
//! state machines.
//!
//! Protocol code never reads a wall clock; it is always handed a
//! [`SimInstant`] by whichever runtime drives it (the discrete-event
//! [`ParWorld`](crate::par::ParWorld) or the real-time runtime in `sle-core`).
//! Durations and instants are kept as separate newtypes so that adding two
//! instants, a classic source of timing bugs, does not type-check.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time with nanosecond resolution.
///
/// ```
/// use sle_sim::time::SimDuration;
/// let d = SimDuration::from_millis(1500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// assert_eq!(d * 2, SimDuration::from_secs(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative or non-finite inputs saturate to zero; values beyond the
    /// representable range saturate to [`SimDuration::MAX`].
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
    }

    /// Creates a duration from fractional milliseconds.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Returns the duration as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the duration by a floating point factor, saturating at the
    /// bounds of the representable range.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nanos = self.0;
        if nanos == 0 {
            write!(f, "0s")
        } else if nanos.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", nanos / 1_000_000_000)
        } else if nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if nanos >= 1_000 {
            write!(f, "{:.3}us", nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", nanos)
        }
    }
}

/// Converts a wall-clock duration, saturating past ~584 years.
///
/// The real-time runtime and the examples use this to render measured
/// wall-clock times in the same human units (`1.287s`, `86.000ms`) the
/// simulator reports:
///
/// ```
/// use sle_sim::time::SimDuration;
/// let d = SimDuration::from(std::time::Duration::from_millis(1500));
/// assert_eq!(d.to_string(), "1.500s");
/// ```
impl From<std::time::Duration> for SimDuration {
    fn from(d: std::time::Duration) -> Self {
        SimDuration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
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
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.as_secs_f64() / rhs.as_secs_f64()
    }
}

/// A point in virtual time, measured as the offset from the start of the
/// simulation (or of the real-time runtime).
///
/// ```
/// use sle_sim::time::{SimDuration, SimInstant};
/// let t0 = SimInstant::ZERO;
/// let t1 = t0 + SimDuration::from_secs(2);
/// assert_eq!(t1 - t0, SimDuration::from_secs(2));
/// assert!(t1 > t0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The start of time.
    pub const ZERO: SimInstant = SimInstant(0);
    /// A far-future instant, useful as a sentinel deadline.
    pub const FAR_FUTURE: SimInstant = SimInstant(u64::MAX);

    /// Creates an instant from whole nanoseconds since the start of time.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant(nanos)
    }

    /// Creates an instant `secs` fractional seconds after the start of time.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimInstant(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Returns the instant as nanoseconds since the start of time.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since the start of time.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the elapsed duration since `earlier`, or zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimInstant> {
        self.0.checked_add(d.as_nanos()).map(SimInstant)
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimInstant) -> SimInstant {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimInstant) -> SimInstant {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.as_nanos()))
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.as_nanos());
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_sub(rhs.as_nanos()))
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.25),
            SimDuration::from_millis(250)
        );
        assert_eq!(
            SimDuration::from_millis_f64(2.5),
            SimDuration::from_micros(2500)
        );
    }

    #[test]
    fn duration_from_secs_f64_saturates() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(300);
        let b = SimDuration::from_millis(200);
        assert_eq!(a + b, SimDuration::from_millis(500));
        assert_eq!(a - b, SimDuration::from_millis(100));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a * 3, SimDuration::from_millis(900));
        assert_eq!(a / 3, SimDuration::from_millis(100));
        assert!((a / b - 1.5).abs() < 1e-12);
        assert_eq!(a.mul_f64(0.5), SimDuration::from_millis(150));
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::ZERO;
        let t1 = t0 + SimDuration::from_secs(5);
        let t2 = t1 + SimDuration::from_millis(500);
        assert_eq!(t2 - t0, SimDuration::from_millis(5500));
        assert_eq!(t0.saturating_since(t2), SimDuration::ZERO);
        assert_eq!(t2.saturating_since(t0), SimDuration::from_millis(5500));
        assert_eq!(t2 - SimDuration::from_millis(500), t1);
        assert_eq!(t1.min(t2), t1);
        assert_eq!(t1.max(t2), t2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250.000ms");
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert!(SimInstant::from_secs_f64(1.5)
            .to_string()
            .starts_with("1.5"));
        assert_eq!(
            format!("{:?}", SimInstant::ZERO + SimDuration::from_secs(2)),
            "t+2s"
        );
    }

    #[test]
    fn instant_checked_add() {
        assert!(SimInstant::FAR_FUTURE
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimInstant::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimInstant::from_nanos(1_000_000_000))
        );
    }
}
