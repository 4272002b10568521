//! Dimensionless quantities: fractions, percentages, duty cycles and the
//! paper's active-vs-sleep ratio α.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use crate::time::Seconds;

/// A dimensionless value in `[0, 1]`.
///
/// Used for recovery fractions, occupancy probabilities and the like. The
/// constructor clamps rather than errors: every caller in this workspace
/// produces values that are already nominally in range and merely suffer
/// floating-point spill (e.g. `1.0000000000000002`).
///
/// # Examples
///
/// ```
/// use selfheal_units::Fraction;
///
/// let recovered = Fraction::new(0.724); // the paper's headline 72.4 %
/// assert_eq!(recovered.complement(), Fraction::new(1.0 - 0.724));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fraction(f64);

impl Fraction {
    /// The zero fraction.
    pub const ZERO: Fraction = Fraction(0.0);
    /// The full fraction.
    pub const ONE: Fraction = Fraction(1.0);

    /// Creates a fraction, clamping into `[0, 1]`.
    #[must_use]
    pub fn new(value: f64) -> Self {
        Fraction(value.clamp(0.0, 1.0))
    }

    /// Returns the raw value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The complement `1 − f`.
    #[must_use]
    pub fn complement(self) -> Fraction {
        Fraction(1.0 - self.0)
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl Mul for Fraction {
    type Output = Fraction;
    fn mul(self, rhs: Fraction) -> Fraction {
        Fraction::new(self.0 * rhs.0)
    }
}

impl From<Percent> for Fraction {
    fn from(p: Percent) -> Fraction {
        Fraction::new(p.get() / 100.0)
    }
}

/// A percentage (not restricted to `[0, 100]`: delay *change* percentages
/// can legitimately exceed 100 % and margin deltas can be negative).
///
/// # Examples
///
/// ```
/// use selfheal_units::Percent;
///
/// let degradation = Percent::new(2.3);
/// assert!(degradation > Percent::new(1.0));
/// assert_eq!(degradation.to_string(), "2.30 %");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Percent(f64);

impl Percent {
    /// Creates a percentage.
    #[must_use]
    pub const fn new(percent: f64) -> Self {
        Percent(percent)
    }

    /// Returns the raw value in percent.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Percent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} %", self.0)
    }
}

impl Add for Percent {
    type Output = Percent;
    fn add(self, rhs: Percent) -> Percent {
        Percent(self.0 + rhs.0)
    }
}

impl Sub for Percent {
    type Output = Percent;
    fn sub(self, rhs: Percent) -> Percent {
        Percent(self.0 - rhs.0)
    }
}

impl Mul<f64> for Percent {
    type Output = Percent;
    fn mul(self, rhs: f64) -> Percent {
        Percent(self.0 * rhs)
    }
}

/// The active-vs-sleep time ratio α of the paper (§3.3, §5.2.3).
///
/// `α = t_active / t_sleep`; the paper's headline experiments use α = 4
/// (24 h of stress healed in 6 h, or 48 h healed in 12 h).
///
/// # Examples
///
/// ```
/// use selfheal_units::{Hours, Ratio, Seconds};
///
/// let (active, sleep): (Seconds, Seconds) = (Hours::new(24.0).into(), Hours::new(6.0).into());
/// let alpha = Ratio::new(active / sleep).expect("positive durations");
/// assert!((alpha.get() - 4.0).abs() < 1e-12);
/// assert!((alpha.active_fraction().get() - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Ratio(f64);

impl Ratio {
    /// The paper's canonical α = 4 (sleep for a quarter of the stress time).
    pub const PAPER_ALPHA: Ratio = Ratio(4.0);

    /// Creates a ratio from a positive value.
    ///
    /// Returns `None` for non-positive or non-finite values: a zero or
    /// negative α has no physical meaning (it would imply no active time or
    /// negative durations).
    #[must_use]
    pub fn new(alpha: f64) -> Option<Self> {
        (alpha > 0.0 && alpha.is_finite()).then_some(Ratio(alpha))
    }

    /// Returns the raw α value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Fraction of a cycle spent active: `α / (1 + α)` (Eq. 12).
    #[must_use]
    pub fn active_fraction(self) -> Fraction {
        Fraction::new(self.0 / (1.0 + self.0))
    }

    /// Fraction of a cycle spent asleep: `1 / (1 + α)` (Eq. 12).
    #[must_use]
    pub fn sleep_fraction(self) -> Fraction {
        Fraction::new(1.0 / (1.0 + self.0))
    }

    /// Splits a total cycle period into (active, sleep) durations.
    #[must_use]
    pub fn split_cycle(self, period: Seconds) -> (Seconds, Seconds) {
        let active = period * self.active_fraction().get();
        (active, period - active)
    }
}

impl Default for Ratio {
    /// Defaults to the paper's α = 4.
    fn default() -> Self {
        Ratio::PAPER_ALPHA
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "α = {:.2}", self.0)
    }
}

/// A duty cycle in `[0, 1]`: the fraction of time a signal is toggling (AC
/// stress) or asserted (DC stress analysis).
///
/// # Examples
///
/// ```
/// use selfheal_units::DutyCycle;
///
/// let ac = DutyCycle::symmetric(); // 50 % stress / 50 % recovery
/// assert_eq!(ac.get(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DutyCycle(f64);

impl DutyCycle {
    /// A constantly-stressed (DC) signal.
    pub const ALWAYS_ON: DutyCycle = DutyCycle(1.0);

    /// Creates a duty cycle, clamping into `[0, 1]`.
    #[must_use]
    pub fn new(fraction: f64) -> Self {
        DutyCycle(fraction.clamp(0.0, 1.0))
    }

    /// The symmetric 50 % duty cycle of the paper's AC stress mode.
    #[must_use]
    pub const fn symmetric() -> Self {
        DutyCycle(0.5)
    }

    /// Returns the raw fraction.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl Default for DutyCycle {
    /// Defaults to DC stress (always on), the paper's worst case.
    fn default() -> Self {
        DutyCycle::ALWAYS_ON
    }
}

impl fmt::Display for DutyCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} % duty", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_clamps() {
        assert_eq!(Fraction::new(-0.5).get(), 0.0);
        assert_eq!(Fraction::new(1.5).get(), 1.0);
        assert_eq!(Fraction::new(0.724).get(), 0.724);
    }

    #[test]
    fn fraction_percent_round_trip() {
        let f = Fraction::from(Percent::new(72.4));
        assert!((f.get() - 0.724).abs() < 1e-12);
    }

    #[test]
    fn complement_sums_to_one() {
        let f = Fraction::new(0.3);
        assert!((f.get() + f.complement().get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_rejects_nonpositive() {
        assert!(Ratio::new(0.0).is_none());
        assert!(Ratio::new(-1.0).is_none());
        assert!(Ratio::new(f64::NAN).is_none());
        assert!(Ratio::new(f64::INFINITY).is_none());
        assert!(Ratio::new(4.0).is_some());
    }

    #[test]
    fn ratio_from_paper_durations() {
        let alpha = Ratio::new(Seconds::new(86_400.0) / Seconds::new(21_600.0)).unwrap();
        assert!((alpha.get() - 4.0).abs() < 1e-12);
        assert!((alpha.active_fraction().get() - 0.8).abs() < 1e-12);
        assert!((alpha.sleep_fraction().get() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn split_cycle_partitions_period() {
        let alpha = Ratio::PAPER_ALPHA;
        let (active, sleep) = alpha.split_cycle(Seconds::new(30.0 * 3600.0));
        assert!((active.to_hours().get() - 24.0).abs() < 1e-9);
        assert!((sleep.to_hours().get() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn duty_cycle_defaults_and_clamps() {
        assert_eq!(DutyCycle::default(), DutyCycle::ALWAYS_ON);
        assert_eq!(DutyCycle::new(2.0).get(), 1.0);
        assert_eq!(DutyCycle::symmetric().get(), 0.5);
    }

    #[test]
    fn displays() {
        assert_eq!(Percent::new(72.4).to_string(), "72.40 %");
        assert_eq!(Ratio::PAPER_ALPHA.to_string(), "α = 4.00");
        assert_eq!(DutyCycle::symmetric().to_string(), "50 % duty");
    }
}
