//! The thermal chamber: setpoint control with ±0.3 °C fluctuation.

use std::fmt;

use rand::Rng;
use selfheal_units::Celsius;

/// Errors from chamber operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChamberError {
    /// The requested setpoint is outside the chamber's capability.
    SetpointOutOfRange {
        /// What was requested.
        requested: Celsius,
        /// The chamber's supported range.
        range: (Celsius, Celsius),
    },
}

impl fmt::Display for ChamberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChamberError::SetpointOutOfRange { requested, range } => write!(
                f,
                "chamber setpoint {requested} outside supported range {} to {}",
                range.0, range.1
            ),
        }
    }
}

impl std::error::Error for ChamberError {}

/// The thermal chamber the boards sit in (§4.3: "chips are heated up or
/// cooled down by a thermal chamber, which allows temperature fluctuation
/// of ±0.3 °C").
///
/// # Examples
///
/// ```
/// use selfheal_testbench::ThermalChamber;
/// use selfheal_units::Celsius;
///
/// let mut chamber = ThermalChamber::laboratory();
/// chamber.set_temperature(Celsius::new(110.0))?;
/// assert_eq!(chamber.setpoint(), Celsius::new(110.0));
/// assert!(chamber.set_temperature(Celsius::new(500.0)).is_err());
/// # Ok::<(), selfheal_testbench::ChamberError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalChamber {
    setpoint: Celsius,
    range: (Celsius, Celsius),
    fluctuation: Celsius,
}

impl ThermalChamber {
    /// The paper's fluctuation bound.
    pub const PAPER_FLUCTUATION: Celsius = Celsius::new(0.3);

    /// Creates a chamber supporting the given setpoint range.
    #[must_use]
    pub fn new(range: (Celsius, Celsius)) -> Self {
        ThermalChamber {
            setpoint: Celsius::new(20.0),
            range,
            fluctuation: Self::PAPER_FLUCTUATION,
        }
    }

    /// A typical laboratory chamber: −70 °C to +180 °C, starting at room
    /// temperature.
    #[must_use]
    pub fn laboratory() -> Self {
        // Chamber capability limits intentionally exceed silicon operating
        // range — the equipment sweeps wider than the device spec.
        // analyzer: allow(suspicious-physical-literal)
        ThermalChamber::new((Celsius::new(-70.0), Celsius::new(180.0)))
    }

    /// The current setpoint.
    #[must_use]
    pub fn setpoint(&self) -> Celsius {
        self.setpoint
    }

    /// Programs a new setpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ChamberError::SetpointOutOfRange`] when the request is
    /// outside the chamber's capability; the setpoint is left unchanged.
    pub fn set_temperature(&mut self, setpoint: Celsius) -> Result<(), ChamberError> {
        if setpoint < self.range.0 || setpoint > self.range.1 {
            return Err(ChamberError::SetpointOutOfRange {
                requested: setpoint,
                range: self.range,
            });
        }
        self.setpoint = setpoint;
        Ok(())
    }

    /// Samples the actual chamber temperature right now: setpoint plus a
    /// uniform fluctuation within the spec bound.
    #[must_use = "sampling the chamber draws from the RNG; dropping the reading wastes the draw"]
    pub fn temperature<R: Rng + ?Sized>(&self, rng: &mut R) -> Celsius {
        let bound = self.fluctuation.get();
        if bound == 0.0 {
            return self.setpoint;
        }
        let wobble = rng.gen_range(-bound..=bound);
        self.setpoint.offset(wobble)
    }
}

impl Default for ThermalChamber {
    fn default() -> Self {
        ThermalChamber::laboratory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn setpoint_round_trip() {
        let mut chamber = ThermalChamber::laboratory();
        chamber.set_temperature(Celsius::new(110.0)).unwrap();
        assert_eq!(chamber.setpoint(), Celsius::new(110.0));
    }

    #[test]
    fn rejects_out_of_range_setpoint() {
        let mut chamber = ThermalChamber::laboratory();
        let before = chamber.setpoint();
        let err = chamber.set_temperature(Celsius::new(500.0)).unwrap_err();
        assert!(matches!(err, ChamberError::SetpointOutOfRange { .. }));
        assert!(err.to_string().contains("500.0"));
        assert_eq!(
            chamber.setpoint(),
            before,
            "failed set must not change state"
        );
        assert!(chamber.set_temperature(Celsius::new(-100.0)).is_err());
    }

    #[test]
    fn fluctuation_stays_in_spec() {
        let mut chamber = ThermalChamber::laboratory();
        chamber.set_temperature(Celsius::new(110.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let t = chamber.temperature(&mut rng);
            assert!((t.get() - 110.0).abs() <= ThermalChamber::PAPER_FLUCTUATION.get() + 1e-12);
        }
    }

    #[test]
    fn fluctuation_actually_fluctuates() {
        let chamber = ThermalChamber::laboratory();
        let mut rng = StdRng::seed_from_u64(2);
        let a = chamber.temperature(&mut rng);
        let varies = (0..20).any(|_| chamber.temperature(&mut rng) != a);
        assert!(varies);
    }

    #[test]
    fn without_fluctuation_is_exact() {
        let mut chamber = ThermalChamber::laboratory();
        chamber.fluctuation = Celsius::new(0.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(chamber.temperature(&mut rng), chamber.setpoint());
    }
}
