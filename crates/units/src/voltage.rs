//! Voltage quantities.
//!
//! The reproduction needs signed voltages: the paper's accelerated recovery
//! applies a *negative* supply (−0.3 V) to reverse the BTI stress direction,
//! so unlike many electrical crates we deliberately do not restrict voltages
//! to be non-negative.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A potential difference in volts.
///
/// # Examples
///
/// ```
/// use selfheal_units::Volts;
///
/// let nominal = Volts::new(1.2);
/// let droop = Volts::new(0.05);
/// assert_eq!(nominal - droop, Volts::new(1.15));
/// assert_eq!(-Volts::new(0.3), Volts::new(-0.3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Volts(f64);

impl Volts {
    /// Zero volts — the "power gated" passive-recovery supply level.
    pub const ZERO: Volts = Volts(0.0);

    /// Creates a voltage from a value in volts.
    #[must_use]
    pub const fn new(volts: f64) -> Self {
        Volts(volts)
    }

    /// Returns the raw value in volts.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` if this is a reverse-bias (negative) voltage.
    ///
    /// Negative supply voltages are the paper's primary accelerated-recovery
    /// knob (§5.2.1), so the distinction deserves a named predicate.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Returns the magnitude of the voltage.
    #[must_use]
    pub fn abs(self) -> Volts {
        Volts(self.0.abs())
    }

    /// Converts to millivolts.
    #[must_use]
    pub fn to_millivolts(self) -> Millivolts {
        Millivolts::new(self.0 * 1e3)
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

impl Add for Volts {
    type Output = Volts;
    fn add(self, rhs: Volts) -> Volts {
        Volts(self.0 + rhs.0)
    }
}

impl AddAssign for Volts {
    fn add_assign(&mut self, rhs: Volts) {
        self.0 += rhs.0;
    }
}

impl Sub for Volts {
    type Output = Volts;
    fn sub(self, rhs: Volts) -> Volts {
        Volts(self.0 - rhs.0)
    }
}

impl SubAssign for Volts {
    fn sub_assign(&mut self, rhs: Volts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Volts {
    type Output = Volts;
    fn neg(self) -> Volts {
        Volts(-self.0)
    }
}

impl Mul<f64> for Volts {
    type Output = Volts;
    fn mul(self, rhs: f64) -> Volts {
        Volts(self.0 * rhs)
    }
}

impl Mul<Volts> for f64 {
    type Output = Volts;
    fn mul(self, rhs: Volts) -> Volts {
        Volts(self * rhs.0)
    }
}

impl Div<f64> for Volts {
    type Output = Volts;
    fn div(self, rhs: f64) -> Volts {
        Volts(self.0 / rhs)
    }
}

impl Div<Volts> for Volts {
    /// Dividing two voltages yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Volts) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Volts {
    fn sum<I: Iterator<Item = Volts>>(iter: I) -> Volts {
        Volts(iter.map(|v| v.0).sum())
    }
}

impl From<Millivolts> for Volts {
    fn from(mv: Millivolts) -> Volts {
        Volts(mv.get() * 1e-3)
    }
}

/// An inverse voltage in 1/V — the unit of exponential voltage
/// acceleration factors (`exp(gain · ΔV)` is dimensionless only when the
/// gain carries 1/V).
///
/// # Examples
///
/// ```
/// use selfheal_units::{PerVolt, Volts};
///
/// let gain = PerVolt::new(2.5);
/// // PerVolt × Volts cancels to a dimensionless exponent.
/// let exponent: f64 = gain * Volts::new(0.1);
/// assert!((exponent - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PerVolt(f64);

impl PerVolt {
    /// Zero gain — no voltage acceleration.
    pub const ZERO: PerVolt = PerVolt(0.0);

    /// Creates an inverse voltage from a value in 1/V.
    #[must_use]
    pub const fn new(per_volt: f64) -> Self {
        PerVolt(per_volt)
    }

    /// Returns the raw value in 1/V.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for PerVolt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} /V", self.0)
    }
}

impl Mul<Volts> for PerVolt {
    /// 1/V × V cancels to a dimensionless exponent.
    type Output = f64;
    fn mul(self, rhs: Volts) -> f64 {
        self.0 * rhs.get()
    }
}

impl Mul<PerVolt> for Volts {
    /// V × 1/V cancels to a dimensionless exponent.
    type Output = f64;
    fn mul(self, rhs: PerVolt) -> f64 {
        self.get() * rhs.0
    }
}

impl Mul<f64> for PerVolt {
    type Output = PerVolt;
    fn mul(self, rhs: f64) -> PerVolt {
        PerVolt(self.0 * rhs)
    }
}

impl Mul<PerVolt> for f64 {
    type Output = PerVolt;
    fn mul(self, rhs: PerVolt) -> PerVolt {
        PerVolt(self * rhs.0)
    }
}

/// A potential difference in millivolts.
///
/// Threshold-voltage shifts in the BTI literature are conventionally quoted
/// in millivolts; keeping a distinct type avoids the classic ×1000 slip.
///
/// # Examples
///
/// ```
/// use selfheal_units::{Millivolts, Volts};
///
/// let shift = Millivolts::new(42.0);
/// let as_volts: Volts = shift.into();
/// assert!((as_volts.get() - 0.042).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Millivolts(f64);

impl Millivolts {
    /// Zero millivolts — a fresh device's threshold shift.
    pub const ZERO: Millivolts = Millivolts(0.0);

    /// Creates a voltage from a value in millivolts.
    #[must_use]
    pub const fn new(millivolts: f64) -> Self {
        Millivolts(millivolts)
    }

    /// Returns the raw value in millivolts.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` if this is a reverse-bias (negative) shift.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Returns the magnitude of the shift.
    #[must_use]
    pub fn abs(self) -> Millivolts {
        Millivolts(self.0.abs())
    }

    /// The larger of two shifts (NaN-propagating like `f64::max` is not:
    /// prefers the non-NaN operand, matching wear-tracking needs).
    #[must_use]
    pub fn max(self, other: Millivolts) -> Millivolts {
        Millivolts(self.0.max(other.0))
    }

    /// The smaller of two shifts.
    #[must_use]
    pub fn min(self, other: Millivolts) -> Millivolts {
        Millivolts(self.0.min(other.0))
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} mV", self.0)
    }
}

impl From<Volts> for Millivolts {
    fn from(v: Volts) -> Millivolts {
        v.to_millivolts()
    }
}

impl Add for Millivolts {
    type Output = Millivolts;
    fn add(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self.0 + rhs.0)
    }
}

impl Sub for Millivolts {
    type Output = Millivolts;
    fn sub(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self.0 - rhs.0)
    }
}

impl AddAssign for Millivolts {
    fn add_assign(&mut self, rhs: Millivolts) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Millivolts {
    fn sub_assign(&mut self, rhs: Millivolts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Millivolts {
    type Output = Millivolts;
    fn neg(self) -> Millivolts {
        Millivolts(-self.0)
    }
}

impl Mul<f64> for Millivolts {
    type Output = Millivolts;
    fn mul(self, rhs: f64) -> Millivolts {
        Millivolts(self.0 * rhs)
    }
}

impl Mul<Millivolts> for f64 {
    type Output = Millivolts;
    fn mul(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self * rhs.0)
    }
}

impl Div<f64> for Millivolts {
    type Output = Millivolts;
    fn div(self, rhs: f64) -> Millivolts {
        Millivolts(self.0 / rhs)
    }
}

impl Div<Millivolts> for Millivolts {
    /// Dividing two shifts yields a dimensionless ratio (e.g. margin
    /// consumption = wear / budget).
    type Output = f64;
    fn div(self, rhs: Millivolts) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Millivolts {
    fn sum<I: Iterator<Item = Millivolts>>(iter: I) -> Millivolts {
        Millivolts(iter.map(|v| v.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_predicate_matches_sign() {
        assert!(Volts::new(-0.3).is_negative());
        assert!(!Volts::new(0.0).is_negative());
        assert!(!Volts::new(1.2).is_negative());
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Volts::new(1.2);
        let b = Volts::new(0.3);
        assert_eq!(a + b, Volts::new(1.5));
        assert!(((a - b).get() - 0.9).abs() < 1e-12);
        assert_eq!(-b, Volts::new(-0.3));
        assert_eq!(a * 2.0, Volts::new(2.4));
        assert_eq!(2.0 * a, Volts::new(2.4));
        assert_eq!(a / 2.0, Volts::new(0.6));
        assert!((a / b - 4.0).abs() < 1e-12);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut v = Volts::new(1.0);
        v += Volts::new(0.2);
        assert!((v.get() - 1.2).abs() < 1e-12);
        v -= Volts::new(1.5);
        assert!((v.get() + 0.3).abs() < 1e-12);
    }

    #[test]
    fn millivolt_round_trip() {
        let v = Volts::new(-0.3);
        let mv: Millivolts = v.into();
        assert!((mv.get() + 300.0).abs() < 1e-9);
        let back: Volts = mv.into();
        assert!((back.get() - v.get()).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Volts = [Volts::new(0.1), Volts::new(0.2), Volts::new(0.3)]
            .into_iter()
            .sum();
        assert!((total.get() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn display_formats_with_unit() {
        assert_eq!(Volts::new(-0.3).to_string(), "-0.300 V");
        assert_eq!(Millivolts::new(12.5).to_string(), "12.50 mV");
    }

    #[test]
    fn abs_strips_sign() {
        assert_eq!(Volts::new(-0.3).abs(), Volts::new(0.3));
        assert_eq!(Volts::new(0.3).abs(), Volts::new(0.3));
    }

    #[test]
    fn per_volt_cancels_against_volts() {
        let gain = PerVolt::new(14.0 / 3.0);
        assert!((gain * Volts::new(0.3) - 1.4).abs() < 1e-12);
        assert!((Volts::new(0.3) * gain - 1.4).abs() < 1e-12);
        assert_eq!(gain * 3.0, PerVolt::new(14.0));
        assert_eq!(3.0 * gain, PerVolt::new(14.0));
        assert_eq!(PerVolt::ZERO.get(), 0.0);
        assert_eq!(PerVolt::new(2.5).to_string(), "2.500 /V");
    }

    #[test]
    fn millivolt_arithmetic_mirrors_volts() {
        let a = Millivolts::new(40.0);
        let b = Millivolts::new(5.0);
        assert_eq!(a * 2.0, Millivolts::new(80.0));
        assert_eq!(2.0 * b, Millivolts::new(10.0));
        assert_eq!(a / 2.0, Millivolts::new(20.0));
        assert!((a / b - 8.0).abs() < 1e-12);
        assert_eq!(-b, Millivolts::new(-5.0));
        assert!(Millivolts::new(-1.0).is_negative());
        assert_eq!(Millivolts::new(-3.0).abs(), Millivolts::new(3.0));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let mut acc = Millivolts::ZERO;
        acc += a;
        acc -= b;
        assert_eq!(acc, Millivolts::new(35.0));
        let total: Millivolts = [a, b].into_iter().sum();
        assert_eq!(total, Millivolts::new(45.0));
    }
}
