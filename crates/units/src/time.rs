//! Time quantities.
//!
//! The experiments span nine orders of magnitude: trap time constants of
//! nanoseconds, counter gate windows of milliseconds, sampling intervals of
//! minutes and stress phases of days. `Seconds` is the common currency;
//! `Hours`/`Minutes` exist because the paper's test cases are specified that
//! way, and `Nanoseconds` because gate delays are.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration in seconds, the common time currency of the workspace.
///
/// # Examples
///
/// ```
/// use selfheal_units::{Hours, Seconds};
///
/// let stress: Seconds = Hours::new(24.0).into();
/// let sleep: Seconds = Hours::new(6.0).into();
/// assert!((stress / sleep - 4.0).abs() < 1e-12); // the paper's α = 4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// The zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from a value in seconds.
    #[must_use]
    pub const fn new(seconds: f64) -> Self {
        Seconds(seconds)
    }

    /// Returns the raw value in seconds.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` for durations of zero or less.
    #[must_use]
    pub fn is_zero_or_negative(self) -> bool {
        self.0 <= 0.0
    }

    /// Converts to hours.
    #[must_use]
    pub fn to_hours(self) -> Hours {
        Hours::new(self.0 / 3600.0)
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600.0 {
            write!(f, "{:.2} h", self.0 / 3600.0)
        } else if self.0 >= 60.0 {
            write!(f, "{:.1} min", self.0 / 60.0)
        } else {
            write!(f, "{:.3} s", self.0)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Mul<Seconds> for f64 {
    type Output = Seconds;
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self * rhs.0)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    /// Ratio of two durations (dimensionless) — how α is computed.
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

impl From<Hours> for Seconds {
    fn from(h: Hours) -> Seconds {
        Seconds(h.get() * 3600.0)
    }
}

impl From<Minutes> for Seconds {
    fn from(m: Minutes) -> Seconds {
        Seconds(m.get() * 60.0)
    }
}

/// A duration in hours, matching the paper's test-case notation
/// (e.g. `AS110DC24` = 24 h of accelerated DC stress).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hours(f64);

impl Hours {
    /// Creates a duration from a value in hours.
    #[must_use]
    pub const fn new(hours: f64) -> Self {
        Hours(hours)
    }

    /// Returns the raw value in hours.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to seconds.
    #[must_use]
    pub fn to_seconds(self) -> Seconds {
        Seconds::from(self)
    }
}

impl fmt::Display for Hours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} h", self.0)
    }
}

impl From<Seconds> for Hours {
    fn from(s: Seconds) -> Hours {
        s.to_hours()
    }
}

/// A duration in minutes (sampling cadences: "every 20 minutes", "every 30
/// minutes").
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Minutes(f64);

impl Minutes {
    /// Creates a duration from a value in minutes.
    #[must_use]
    pub const fn new(minutes: f64) -> Self {
        Minutes(minutes)
    }

    /// Returns the raw value in minutes.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to seconds.
    #[must_use]
    pub fn to_seconds(self) -> Seconds {
        Seconds::from(self)
    }
}

impl fmt::Display for Minutes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} min", self.0)
    }
}

/// A duration in nanoseconds — the natural unit for gate and path delays.
///
/// # Examples
///
/// ```
/// use selfheal_units::Nanoseconds;
///
/// let fresh = Nanoseconds::new(90.0);
/// let aged = Nanoseconds::new(92.3);
/// let shift = aged - fresh;
/// assert!((shift.get() - 2.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanoseconds(f64);

impl Nanoseconds {
    /// The zero delay.
    pub const ZERO: Nanoseconds = Nanoseconds(0.0);

    /// Creates a delay from a value in nanoseconds.
    #[must_use]
    pub const fn new(nanoseconds: f64) -> Self {
        Nanoseconds(nanoseconds)
    }

    /// Returns the raw value in nanoseconds.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to seconds.
    #[must_use]
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.0 * 1e-9)
    }

    /// Returns the magnitude of the delay.
    #[must_use]
    pub fn abs(self) -> Nanoseconds {
        Nanoseconds(self.0.abs())
    }
}

impl fmt::Display for Nanoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.0)
    }
}

impl Add for Nanoseconds {
    type Output = Nanoseconds;
    fn add(self, rhs: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0 + rhs.0)
    }
}

impl AddAssign for Nanoseconds {
    fn add_assign(&mut self, rhs: Nanoseconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanoseconds {
    type Output = Nanoseconds;
    fn sub(self, rhs: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Nanoseconds {
    type Output = Nanoseconds;
    fn mul(self, rhs: f64) -> Nanoseconds {
        Nanoseconds(self.0 * rhs)
    }
}

impl Div<f64> for Nanoseconds {
    type Output = Nanoseconds;
    fn div(self, rhs: f64) -> Nanoseconds {
        Nanoseconds(self.0 / rhs)
    }
}

impl Div<Nanoseconds> for Nanoseconds {
    /// Ratio of two delays (dimensionless).
    type Output = f64;
    fn div(self, rhs: Nanoseconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Nanoseconds {
    fn sum<I: Iterator<Item = Nanoseconds>>(iter: I) -> Nanoseconds {
        Nanoseconds(iter.map(|s| s.0).sum())
    }
}

/// A rate in reciprocal seconds (1/s).
///
/// The analytic BTI models' logarithmic-rate constants (`C` in
/// `ln(1 + C·t)`) carry this dimension: multiplying by a duration cancels
/// to the dimensionless argument of the logarithm, and dividing a
/// dimensionless quantity by a rate recovers a duration (inverting the
/// same law).
///
/// # Examples
///
/// ```
/// use selfheal_units::{PerSecond, Seconds};
///
/// let rate = PerSecond::new(1e-2);
/// // PerSecond × Seconds cancels to a dimensionless log argument.
/// let x: f64 = rate * Seconds::new(300.0);
/// assert!((x - 3.0).abs() < 1e-12);
/// // ...and dividing by the rate recovers the duration.
/// assert_eq!(x / rate, Seconds::new(300.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PerSecond(f64);

impl PerSecond {
    /// Zero rate — a process that never advances.
    pub const ZERO: PerSecond = PerSecond(0.0);

    /// Creates a rate from a value in 1/s.
    #[must_use]
    pub const fn new(per_second: f64) -> Self {
        PerSecond(per_second)
    }

    /// Returns the raw value in 1/s.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for PerSecond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} /s", self.0)
    }
}

impl Mul<Seconds> for PerSecond {
    /// 1/s × s cancels to a dimensionless value.
    type Output = f64;
    fn mul(self, rhs: Seconds) -> f64 {
        self.0 * rhs.get()
    }
}

impl Mul<PerSecond> for Seconds {
    /// s × 1/s cancels to a dimensionless value.
    type Output = f64;
    fn mul(self, rhs: PerSecond) -> f64 {
        self.get() * rhs.0
    }
}

impl Mul<f64> for PerSecond {
    type Output = PerSecond;
    fn mul(self, rhs: f64) -> PerSecond {
        PerSecond(self.0 * rhs)
    }
}

impl Mul<PerSecond> for f64 {
    type Output = PerSecond;
    fn mul(self, rhs: PerSecond) -> PerSecond {
        PerSecond(self * rhs.0)
    }
}

impl Div<PerSecond> for f64 {
    /// Dimensionless ÷ (1/s) recovers a duration.
    type Output = Seconds;
    fn div(self, rhs: PerSecond) -> Seconds {
        Seconds::new(self / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_minute_second_conversions() {
        assert_eq!(Seconds::from(Hours::new(24.0)), Seconds::new(86_400.0));
        assert_eq!(Seconds::from(Minutes::new(20.0)), Seconds::new(1200.0));
        assert!((Seconds::new(7200.0).to_hours().get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_ratio_from_durations() {
        let active: Seconds = Hours::new(24.0).into();
        let sleep: Seconds = Hours::new(6.0).into();
        assert!((active / sleep - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sensible_scale() {
        assert_eq!(Seconds::new(86_400.0).to_string(), "24.00 h");
        assert_eq!(Seconds::new(1200.0).to_string(), "20.0 min");
        assert_eq!(Seconds::new(2.5).to_string(), "2.500 s");
    }

    #[test]
    fn nanosecond_delay_arithmetic() {
        let a = Nanoseconds::new(90.0);
        let b = Nanoseconds::new(2.3);
        assert!(((a + b).get() - 92.3).abs() < 1e-12);
        assert!(((a - b).get() - 87.7).abs() < 1e-12);
        assert!((b / a - 2.3 / 90.0).abs() < 1e-15);
    }

    #[test]
    fn nanoseconds_to_seconds() {
        assert!((Nanoseconds::new(1.0).to_seconds().get() - 1e-9).abs() < 1e-24);
    }

    #[test]
    fn min_max_helpers() {
        let a = Seconds::new(10.0);
        let b = Seconds::new(20.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn per_second_cancels_against_seconds() {
        let rate = PerSecond::new(1e-2);
        assert!((rate * Seconds::new(300.0) - 3.0).abs() < 1e-12);
        assert!((Seconds::new(300.0) * rate - 3.0).abs() < 1e-12);
        assert_eq!(rate * 4.0, PerSecond::new(4e-2));
        assert_eq!(4.0 * rate, PerSecond::new(4e-2));
        assert_eq!(3.0 / rate, Seconds::new(300.0));
        assert_eq!(PerSecond::ZERO.get(), 0.0);
        assert_eq!(PerSecond::new(0.25).to_string(), "0.250 /s");
        // Bit-exactness of the cancellation: the product is the plain f64
        // product of the raw values, in the same operand order.
        let c = 1.7e-2;
        let t = 12_345.678;
        assert_eq!(PerSecond::new(c) * Seconds::new(t), c * t);
    }

    #[test]
    fn zero_or_negative_predicate() {
        assert!(Seconds::ZERO.is_zero_or_negative());
        assert!(Seconds::new(-1.0).is_zero_or_negative());
        assert!(!Seconds::new(0.1).is_zero_or_negative());
    }
}
