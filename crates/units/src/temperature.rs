//! Temperature quantities.
//!
//! Chamber setpoints in the paper are quoted in degrees Celsius (20, 100,
//! 110 °C) while the Arrhenius factors of the BTI model need absolute
//! temperature. Two types keep the conversion explicit.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// Offset between the Celsius and Kelvin scales.
const KELVIN_OFFSET: f64 = 273.15;

/// A temperature on the Celsius scale.
///
/// # Examples
///
/// ```
/// use selfheal_units::Celsius;
///
/// let chamber = Celsius::new(110.0);
/// assert!(chamber > Celsius::new(100.0));
/// assert!((chamber.to_kelvin().get() - 383.15).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a temperature from a value in degrees Celsius.
    #[must_use]
    pub const fn new(degrees: f64) -> Self {
        Celsius(degrees)
    }

    /// Returns the raw value in degrees Celsius.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to absolute temperature.
    #[must_use]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::new(self.0 + KELVIN_OFFSET)
    }

    /// Offsets this temperature by a number of degrees.
    ///
    /// Temperature *differences* are plain `f64` degrees in this crate; a
    /// full affine-quantity treatment would be overkill for the handful of
    /// chamber computations we do.
    #[must_use]
    pub fn offset(self, degrees: f64) -> Celsius {
        Celsius(self.0 + degrees)
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} °C", self.0)
    }
}

impl From<Kelvin> for Celsius {
    fn from(k: Kelvin) -> Celsius {
        Celsius(k.get() - KELVIN_OFFSET)
    }
}

/// An absolute temperature in kelvin.
///
/// The constructor clamps at absolute zero: a negative absolute temperature
/// is always a bug in this domain and would silently flip the sign of every
/// Arrhenius exponent downstream.
///
/// # Examples
///
/// ```
/// use selfheal_units::{Celsius, Kelvin};
///
/// let t: Kelvin = Celsius::new(20.0).to_kelvin();
/// assert!((t.get() - 293.15).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Kelvin(f64);

impl Kelvin {
    /// Creates an absolute temperature, clamping below at 0 K.
    #[must_use]
    pub fn new(kelvin: f64) -> Self {
        Kelvin(kelvin.max(0.0))
    }

    /// Returns the raw value in kelvin.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to the Celsius scale.
    #[must_use]
    pub fn to_celsius(self) -> Celsius {
        Celsius::from(self)
    }
}

impl Default for Kelvin {
    /// Room temperature (20 °C), the paper's unaccelerated baseline.
    fn default() -> Self {
        Celsius::new(20.0).to_kelvin()
    }
}

impl fmt::Display for Kelvin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} K", self.0)
    }
}

impl From<Celsius> for Kelvin {
    fn from(c: Celsius) -> Kelvin {
        c.to_kelvin()
    }
}

impl Add<f64> for Celsius {
    type Output = Celsius;
    /// Adds a temperature *difference* in degrees.
    fn add(self, rhs: f64) -> Celsius {
        Celsius(self.0 + rhs)
    }
}

impl Sub<f64> for Celsius {
    type Output = Celsius;
    /// Subtracts a temperature *difference* in degrees.
    fn sub(self, rhs: f64) -> Celsius {
        Celsius(self.0 - rhs)
    }
}

impl Sub for Celsius {
    /// The difference between two temperatures, in degrees.
    type Output = f64;
    fn sub(self, rhs: Celsius) -> f64 {
        self.0 - rhs.0
    }
}

impl Mul<f64> for Kelvin {
    type Output = Kelvin;
    fn mul(self, rhs: f64) -> Kelvin {
        Kelvin::new(self.0 * rhs)
    }
}

impl Div<Kelvin> for Kelvin {
    /// Ratio of two absolute temperatures (dimensionless).
    type Output = f64;
    fn div(self, rhs: Kelvin) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let c = Celsius::new(110.0);
        let k = c.to_kelvin();
        assert!((k.get() - 383.15).abs() < 1e-9);
        let back = k.to_celsius();
        assert!((back.get() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn kelvin_clamps_at_absolute_zero() {
        assert_eq!(Kelvin::new(-5.0).get(), 0.0);
    }

    #[test]
    fn default_kelvin_is_room_temperature() {
        assert!((Kelvin::default().get() - 293.15).abs() < 1e-9);
    }

    #[test]
    fn temperature_differences_are_degrees() {
        let hot = Celsius::new(110.0);
        let cold = Celsius::new(20.0);
        assert!((hot - cold - 90.0).abs() < 1e-12);
        assert_eq!(cold + 90.0, hot);
        assert_eq!(hot - 90.0, cold);
    }

    #[test]
    fn offset_moves_setpoint() {
        let t = Celsius::new(100.0).offset(0.3);
        assert!((t.get() - 100.3).abs() < 1e-12);
    }

    #[test]
    fn display_formats_with_unit() {
        assert_eq!(Celsius::new(20.0).to_string(), "20.0 °C");
        assert_eq!(Kelvin::new(293.15).to_string(), "293.15 K");
    }

    #[test]
    fn kelvin_ratio_is_dimensionless() {
        let a = Celsius::new(110.0).to_kelvin();
        let b = Celsius::new(20.0).to_kelvin();
        assert!((a / b - 383.15 / 293.15).abs() < 1e-12);
    }
}
