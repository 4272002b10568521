//! The rejuvenation techniques: what to do to a sleeping chip.
//!
//! §4.1 names three accelerated-recovery levers besides time itself:
//! proactive scheduling (see [`crate::policy`]), negative supply voltage
//! and elevated temperature. This module enumerates the four resulting
//! sleep conditions the paper measures (Table 1's recovery rows).

use std::fmt;

use selfheal_bti::Environment;
use selfheal_units::{Celsius, Volts};

/// A sleep-phase treatment.
///
/// # Examples
///
/// ```
/// use selfheal::RejuvenationTechnique;
///
/// let best = RejuvenationTechnique::Combined;
/// let env = best.environment();
/// assert!(env.supply().is_negative());
/// assert_eq!(env.temperature_c(), selfheal_units::Celsius::new(110.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejuvenationTechnique {
    /// Plain power gating at ambient temperature — the industry-standard
    /// "sleep" the paper argues is *not* enough (case R20Z6).
    PassiveGating,
    /// Reverse-biased supply at ambient temperature (case AR20N6).
    NegativeVoltage,
    /// Power gated but heated (case AR110Z6) — e.g. by neighbouring active
    /// cores in the §6.2 multi-core scheme.
    HighTemperature,
    /// Both knobs: −0.3 V at 110 °C (case AR110N6) — the paper's best,
    /// reaching the 72.4 % margin-relaxed headline.
    Combined,
}

impl RejuvenationTechnique {
    /// All four techniques in Table 1 order.
    pub const ALL: [RejuvenationTechnique; 4] = [
        RejuvenationTechnique::PassiveGating,
        RejuvenationTechnique::NegativeVoltage,
        RejuvenationTechnique::HighTemperature,
        RejuvenationTechnique::Combined,
    ];

    /// The paper's reverse-bias level.
    #[must_use]
    pub fn reverse_bias() -> Volts {
        Volts::new(-0.3)
    }

    /// The paper's accelerated recovery temperature.
    #[must_use]
    pub fn accelerated_temperature() -> Celsius {
        Celsius::new(110.0)
    }

    /// The sleep environment this technique realises.
    #[must_use]
    pub fn environment(self) -> Environment {
        let ambient = Celsius::new(20.0);
        match self {
            RejuvenationTechnique::PassiveGating => Environment::new(Volts::ZERO, ambient),
            RejuvenationTechnique::NegativeVoltage => {
                Environment::new(Self::reverse_bias(), ambient)
            }
            RejuvenationTechnique::HighTemperature => {
                Environment::new(Volts::ZERO, Self::accelerated_temperature())
            }
            RejuvenationTechnique::Combined => {
                Environment::new(Self::reverse_bias(), Self::accelerated_temperature())
            }
        }
    }
}

impl fmt::Display for RejuvenationTechnique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            RejuvenationTechnique::PassiveGating => "passive gating (0 V, 20 °C)",
            RejuvenationTechnique::NegativeVoltage => "negative voltage (−0.3 V, 20 °C)",
            RejuvenationTechnique::HighTemperature => "high temperature (0 V, 110 °C)",
            RejuvenationTechnique::Combined => "combined (−0.3 V, 110 °C)",
        };
        f.write_str(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environments_match_table1_conditions() {
        let passive = RejuvenationTechnique::PassiveGating.environment();
        assert_eq!(passive.supply(), Volts::ZERO);
        assert_eq!(passive.temperature_c(), Celsius::new(20.0));

        let neg = RejuvenationTechnique::NegativeVoltage.environment();
        assert_eq!(neg.supply(), Volts::new(-0.3));

        let hot = RejuvenationTechnique::HighTemperature.environment();
        assert_eq!(hot.temperature_c(), Celsius::new(110.0));
        assert_eq!(hot.supply(), Volts::ZERO);

        let both = RejuvenationTechnique::Combined.environment();
        assert!(both.supply().is_negative());
        assert_eq!(both.temperature_c(), Celsius::new(110.0));
    }
}
