//! Frequency quantities.
//!
//! Ring-oscillator frequencies (megahertz) and the counter reference clock
//! (hertz) appear together in Eq. (14) of the paper, `fosc = 2·Cout·fref`;
//! distinct types keep the factor-of-10⁶ straight.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::time::Seconds;

/// A frequency in hertz.
///
/// # Examples
///
/// ```
/// use selfheal_units::Hertz;
///
/// let fref = Hertz::new(500.0); // the paper's counter reference clock
/// assert!((fref.period().get() - 2e-3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency from a value in hertz.
    #[must_use]
    pub const fn new(hertz: f64) -> Self {
        Hertz(hertz)
    }

    /// Returns the raw value in hertz.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The period `1/f` in seconds.
    ///
    /// # Panics
    ///
    /// Does not panic; a zero frequency yields an infinite period, which the
    /// measurement pipeline treats as "oscillator stopped".
    #[must_use]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.0)
    }

    /// Converts to megahertz.
    #[must_use]
    pub fn to_megahertz(self) -> Megahertz {
        Megahertz::new(self.0 * 1e-6)
    }

    /// Relative degradation of this frequency against a fresh baseline,
    /// as a fraction (positive when the oscillator slowed down).
    ///
    /// This is the y-axis of the paper's Figs. 4–5 (×100 for percent).
    #[must_use]
    pub fn degradation_from(self, fresh: Hertz) -> f64 {
        (fresh.0 - self.0) / fresh.0
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.4} MHz", self.0 * 1e-6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} kHz", self.0 * 1e-3)
        } else {
            write!(f, "{:.1} Hz", self.0)
        }
    }
}

impl Add for Hertz {
    type Output = Hertz;
    fn add(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 + rhs.0)
    }
}

impl Sub for Hertz {
    type Output = Hertz;
    fn sub(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 - rhs.0)
    }
}

impl Mul<f64> for Hertz {
    type Output = Hertz;
    fn mul(self, rhs: f64) -> Hertz {
        Hertz(self.0 * rhs)
    }
}

impl Mul<Hertz> for f64 {
    type Output = Hertz;
    fn mul(self, rhs: Hertz) -> Hertz {
        Hertz(self * rhs.0)
    }
}

impl Div<f64> for Hertz {
    type Output = Hertz;
    fn div(self, rhs: f64) -> Hertz {
        Hertz(self.0 / rhs)
    }
}

impl Div<Hertz> for Hertz {
    /// Ratio of two frequencies (dimensionless).
    type Output = f64;
    fn div(self, rhs: Hertz) -> f64 {
        self.0 / rhs.0
    }
}

impl From<Megahertz> for Hertz {
    fn from(m: Megahertz) -> Hertz {
        Hertz(m.get() * 1e6)
    }
}

/// A frequency in megahertz — the natural scale for ring oscillators.
///
/// # Examples
///
/// ```
/// use selfheal_units::{Hertz, Megahertz};
///
/// let fosc = Megahertz::new(5.5);
/// let hz: Hertz = fosc.into();
/// assert!((hz.get() - 5.5e6).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Megahertz(f64);

impl Megahertz {
    /// Creates a frequency from a value in megahertz.
    #[must_use]
    pub const fn new(megahertz: f64) -> Self {
        Megahertz(megahertz)
    }

    /// Returns the raw value in megahertz.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Megahertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} MHz", self.0)
    }
}

impl From<Hertz> for Megahertz {
    fn from(h: Hertz) -> Megahertz {
        h.to_megahertz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_of_reference_clock() {
        let fref = Hertz::new(500.0);
        assert!((fref.period().get() - 0.002).abs() < 1e-15);
    }

    #[test]
    fn megahertz_round_trip() {
        let f = Megahertz::new(5.5);
        let hz: Hertz = f.into();
        let back: Megahertz = hz.into();
        assert!((back.get() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn degradation_sign_convention() {
        let fresh = Hertz::new(1_000_000.0);
        let aged = Hertz::new(977_000.0);
        let deg = aged.degradation_from(fresh);
        assert!((deg - 0.023).abs() < 1e-12, "slowdown is positive");
        assert!(fresh.degradation_from(fresh).abs() < 1e-15);
    }

    #[test]
    fn ro_period_in_nanoseconds() {
        // A 5.5 MHz oscillator has a ~181.8 ns period.
        let p = Hertz::from(Megahertz::new(5.5)).period();
        assert!((p.get() * 1e9 - 181.818).abs() < 1e-2);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Hertz::new(500.0).to_string(), "500.0 Hz");
        assert_eq!(Hertz::new(5_500.0).to_string(), "5.500 kHz");
        assert_eq!(Hertz::new(5_500_000.0).to_string(), "5.5000 MHz");
    }
}
