//! Energy quantities.
//!
//! BTI activation energies in the paper's rate equations (Eqs. 2, 4, 13)
//! are quoted in electron-volts and always appear as `exp(-E0 / kT)`
//! with [`crate::BOLTZMANN_EV_PER_K`], so eV is the natural unit here.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::temperature::Kelvin;
use crate::BOLTZMANN_EV_PER_K;

/// An energy in electron-volts.
///
/// # Examples
///
/// ```
/// use selfheal_units::{Celsius, ElectronVolts};
///
/// let activation = ElectronVolts::new(0.06);
/// let t = Celsius::new(110.0).to_kelvin();
/// let boltzmann = activation.boltzmann_factor(t);
/// assert!(boltzmann > 0.0 && boltzmann < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ElectronVolts(f64);

impl ElectronVolts {
    /// Creates an energy from a value in electron-volts.
    #[must_use]
    pub const fn new(electron_volts: f64) -> Self {
        ElectronVolts(electron_volts)
    }

    /// Returns the raw value in electron-volts.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The Arrhenius factor `exp(-E / kT)` at absolute temperature `t`.
    ///
    /// This is the form every rate equation in the reproduction uses, so
    /// centralising it keeps the sign and the constant in one place.
    #[must_use]
    pub fn boltzmann_factor(self, t: Kelvin) -> f64 {
        (-self.0 / (BOLTZMANN_EV_PER_K * t.get())).exp()
    }
}

impl fmt::Display for ElectronVolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} eV", self.0)
    }
}

impl Add for ElectronVolts {
    type Output = ElectronVolts;
    fn add(self, rhs: ElectronVolts) -> ElectronVolts {
        ElectronVolts(self.0 + rhs.0)
    }
}

impl Sub for ElectronVolts {
    type Output = ElectronVolts;
    fn sub(self, rhs: ElectronVolts) -> ElectronVolts {
        ElectronVolts(self.0 - rhs.0)
    }
}

impl Mul<f64> for ElectronVolts {
    type Output = ElectronVolts;
    fn mul(self, rhs: f64) -> ElectronVolts {
        ElectronVolts(self.0 * rhs)
    }
}

impl Mul<ElectronVolts> for f64 {
    type Output = ElectronVolts;
    fn mul(self, rhs: ElectronVolts) -> ElectronVolts {
        ElectronVolts(self * rhs.0)
    }
}

impl Div<f64> for ElectronVolts {
    type Output = ElectronVolts;
    fn div(self, rhs: f64) -> ElectronVolts {
        ElectronVolts(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Celsius;

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = ElectronVolts::new(0.06);
        let b = ElectronVolts::new(0.02);
        assert_eq!(a + b, ElectronVolts::new(0.08));
        assert!(((a - b).get() - 0.04).abs() < 1e-15);
        assert_eq!(a * 2.0, ElectronVolts::new(0.12));
        assert_eq!(2.0 * a, ElectronVolts::new(0.12));
        assert!(((a / 2.0).get() - 0.03).abs() < 1e-15);
    }

    #[test]
    fn boltzmann_factor_matches_direct_evaluation() {
        let e = ElectronVolts::new(0.06);
        let t = Celsius::new(110.0).to_kelvin();
        let direct = (-0.06 / (BOLTZMANN_EV_PER_K * t.get())).exp();
        assert!((e.boltzmann_factor(t) - direct).abs() < 1e-15);
    }

    #[test]
    fn hotter_means_larger_boltzmann_factor() {
        let e = ElectronVolts::new(0.06);
        let cold = e.boltzmann_factor(Celsius::new(25.0).to_kelvin());
        let hot = e.boltzmann_factor(Celsius::new(110.0).to_kelvin());
        assert!(hot > cold);
    }

    #[test]
    fn display_formats_with_unit() {
        assert_eq!(ElectronVolts::new(0.06).to_string(), "0.0600 eV");
    }
}
