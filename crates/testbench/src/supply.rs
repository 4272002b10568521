//! The bench DC power supply feeding the core rail.
//!
//! Besides the nominal 1.2 V it must support the two recovery levels of
//! §5.2: 0 V (power gating — passive recovery) and −0.3 V (reverse bias —
//! accelerated self-healing). The negative limit models the §6.1
//! constraint that the reverse bias must stay below the lateral
//! pn-junction breakdown voltage.

use std::fmt;

use selfheal_units::Volts;

/// Errors from supply programming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SupplyError {
    /// The requested level is outside the programmable window.
    VoltageOutOfRange {
        /// What was requested.
        requested: Volts,
        /// The supply's programmable window.
        range: (Volts, Volts),
    },
}

impl fmt::Display for SupplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupplyError::VoltageOutOfRange { requested, range } => write!(
                f,
                "supply level {requested} outside programmable window {} to {}",
                range.0, range.1
            ),
        }
    }
}

impl std::error::Error for SupplyError {}

/// A programmable DC supply.
///
/// # Examples
///
/// ```
/// use selfheal_testbench::PowerSupply;
/// use selfheal_units::Volts;
///
/// let mut supply = PowerSupply::bench();
/// supply.set_voltage(Volts::new(-0.3))?;
/// assert!(supply.voltage().is_negative());
/// supply.gate();
/// assert_eq!(supply.voltage(), Volts::ZERO);
/// # Ok::<(), selfheal_testbench::SupplyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSupply {
    voltage: Volts,
    range: (Volts, Volts),
}

impl PowerSupply {
    /// Creates a supply with the given programmable window, initially at
    /// the window's upper nominal... no: initially gated to 0 V.
    #[must_use]
    pub fn new(range: (Volts, Volts)) -> Self {
        PowerSupply {
            voltage: Volts::ZERO,
            range,
        }
    }

    /// The paper's bench supply: −0.5 V to +1.5 V, powered up at the
    /// nominal 1.2 V.
    #[must_use]
    pub fn bench() -> Self {
        let mut supply = PowerSupply::new((Volts::new(-0.5), Volts::new(1.5)));
        supply.voltage = Volts::new(1.2);
        supply
    }

    /// The present output level.
    #[must_use]
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Programs the output level.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyError::VoltageOutOfRange`] when the request is
    /// outside the programmable window; the output is left unchanged.
    pub fn set_voltage(&mut self, level: Volts) -> Result<(), SupplyError> {
        if level < self.range.0 || level > self.range.1 {
            return Err(SupplyError::VoltageOutOfRange {
                requested: level,
                range: self.range,
            });
        }
        self.voltage = level;
        Ok(())
    }

    /// Gates the rail to 0 V (sleep without reverse bias).
    pub fn gate(&mut self) {
        self.voltage = Volts::ZERO;
    }
}

impl Default for PowerSupply {
    fn default() -> Self {
        PowerSupply::bench()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_supply_powers_up_nominal() {
        assert_eq!(PowerSupply::bench().voltage(), Volts::new(1.2));
    }

    #[test]
    fn programs_recovery_levels() {
        let mut s = PowerSupply::bench();
        s.set_voltage(Volts::new(-0.3)).unwrap();
        assert_eq!(s.voltage(), Volts::new(-0.3));
        s.gate();
        assert_eq!(s.voltage(), Volts::ZERO);
    }

    #[test]
    fn rejects_breakdown_level() {
        let mut s = PowerSupply::bench();
        let before = s.voltage();
        let err = s.set_voltage(Volts::new(-0.9)).unwrap_err();
        assert!(matches!(err, SupplyError::VoltageOutOfRange { .. }));
        assert!(err.to_string().contains("-0.9"));
        assert_eq!(s.voltage(), before);
        assert!(s.set_voltage(Volts::new(2.0)).is_err());
    }
}
