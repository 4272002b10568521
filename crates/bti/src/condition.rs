//! Operating conditions: environment (supply, temperature) and the
//! stress/recovery phase a device experiences.

use std::fmt;

use selfheal_units::{Celsius, DutyCycle, Kelvin, Volts};

/// The externally-controlled environment of a chip: supply voltage and
/// temperature. These are the paper's two accelerated-recovery "knobs"
/// (§4.1) besides time and the α ratio.
///
/// # Examples
///
/// ```
/// use selfheal_bti::Environment;
/// use selfheal_units::{Celsius, Volts};
///
/// let stress = Environment::new(Volts::new(1.2), Celsius::new(110.0));
/// let heal = Environment::new(Volts::new(-0.3), Celsius::new(110.0));
/// assert!(heal.supply().is_negative());
/// assert_eq!(stress.temperature_c(), Celsius::new(110.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    supply: Volts,
    temperature: Kelvin,
}

impl Environment {
    /// Creates an environment from a supply voltage and a Celsius setpoint.
    #[must_use]
    pub fn new(supply: Volts, temperature: Celsius) -> Self {
        Environment {
            supply,
            temperature: temperature.to_kelvin(),
        }
    }

    /// The paper's nominal operating point: 1.2 V at 20 °C.
    #[must_use]
    pub fn nominal() -> Self {
        Environment::new(crate::constants::nominal_vdd(), Celsius::new(20.0))
    }

    /// The supply voltage (may be zero or negative during recovery).
    #[must_use]
    pub fn supply(&self) -> Volts {
        self.supply
    }

    /// The absolute temperature.
    #[must_use]
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// The temperature on the Celsius scale.
    #[must_use]
    pub fn temperature_c(&self) -> Celsius {
        self.temperature.to_celsius()
    }

    /// Returns a copy with a different supply voltage.
    #[must_use]
    pub fn with_supply(self, supply: Volts) -> Self {
        Environment { supply, ..self }
    }
}

impl Default for Environment {
    fn default() -> Self {
        Environment::nominal()
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.supply, self.temperature_c())
    }
}

/// Which phase of the BTI cycle a device is in (paper §1: "Depending on the
/// bias condition of the gate, there are two phases of BTI").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Gate under stress (`Vgs < 0` for PMOS, `Vgs > 0` for NMOS): traps
    /// capture carriers, |Vth| grows.
    Stress,
    /// Stress removed: traps anneal, |Vth| partially recovers.
    Recovery,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Stress => f.write_str("stress"),
            Phase::Recovery => f.write_str("recovery"),
        }
    }
}

/// The complete condition a single device experiences over an interval:
/// the environment plus how much of the time its gate is actually biased
/// into stress.
///
/// `stress_duty` is the fraction of the interval the gate spends in the
/// stress phase: `1.0` for DC stress, `0.5` for the paper's symmetric AC
/// stress, `0.0` during sleep/recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCondition {
    env: Environment,
    stress_duty: DutyCycle,
}

impl DeviceCondition {
    /// Creates a condition with an explicit stress duty cycle.
    #[must_use]
    pub fn new(env: Environment, stress_duty: DutyCycle) -> Self {
        DeviceCondition { env, stress_duty }
    }

    /// Constant (DC) stress: the gate is biased into stress the whole time.
    #[must_use]
    pub fn dc_stress(env: Environment) -> Self {
        DeviceCondition::new(env, DutyCycle::ALWAYS_ON)
    }

    /// Symmetric AC stress: the gate toggles, spending half the time in
    /// stress and half recovering (paper §5.1.1: "AC stress can be viewed
    /// as a symmetric stress and recovery process").
    #[must_use]
    pub fn ac_stress(env: Environment) -> Self {
        DeviceCondition::new(env, DutyCycle::symmetric())
    }

    /// Recovery / sleep: no stress at all. The environment's supply is the
    /// *recovery* supply (0 V for passive gating, negative for accelerated
    /// self-healing).
    #[must_use]
    pub fn recovery(env: Environment) -> Self {
        DeviceCondition::new(env, DutyCycle::new(0.0))
    }

    /// The environment.
    #[must_use]
    pub fn env(&self) -> Environment {
        self.env
    }

    /// Fraction of time spent in the stress phase.
    #[must_use]
    pub fn stress_duty(&self) -> DutyCycle {
        self.stress_duty
    }

    /// The dominant phase of this condition.
    #[must_use]
    pub fn phase(&self) -> Phase {
        if self.stress_duty.get() > 0.0 {
            Phase::Stress
        } else {
            Phase::Recovery
        }
    }
}

impl fmt::Display for DeviceCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.env, self.phase(), self.stress_duty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_environment() {
        let env = Environment::nominal();
        assert_eq!(env.supply(), Volts::new(1.2));
        assert!((env.temperature().get() - 293.15).abs() < 1e-9);
    }

    #[test]
    fn with_builders_replace_one_field() {
        let env = Environment::nominal().with_supply(Volts::new(-0.3));
        assert!(env.supply().is_negative());
        assert_eq!(env.temperature_c(), Environment::nominal().temperature_c());
    }

    #[test]
    fn phase_follows_duty() {
        let env = Environment::nominal();
        assert_eq!(DeviceCondition::dc_stress(env).phase(), Phase::Stress);
        assert_eq!(DeviceCondition::ac_stress(env).phase(), Phase::Stress);
        assert_eq!(DeviceCondition::recovery(env).phase(), Phase::Recovery);
    }

    #[test]
    fn duty_values_match_modes() {
        let env = Environment::nominal();
        assert_eq!(DeviceCondition::dc_stress(env).stress_duty().get(), 1.0);
        assert_eq!(DeviceCondition::ac_stress(env).stress_duty().get(), 0.5);
        assert_eq!(DeviceCondition::recovery(env).stress_duty().get(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let cond =
            DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
        let s = cond.to_string();
        assert!(s.contains("1.200 V"), "{s}");
        assert!(s.contains("110.0 °C"), "{s}");
        assert!(s.contains("stress"), "{s}");
    }
}
