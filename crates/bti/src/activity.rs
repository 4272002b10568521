//! Switching-activity modes: the paper's AC vs DC stress distinction.

use std::fmt;

use selfheal_units::DutyCycle;

/// How the circuit under test is exercised during a stress phase (§3.2).
///
/// * **DC stress** — inputs are held static; a fixed subset of transistors
///   is continuously stressed (the paper's worst case, used for all the
///   headline experiments).
/// * **AC stress** — inputs toggle; every switching transistor alternates
///   between stress and recovery, so AC stress is "a partially self-healing
///   process with a slow recovery rate" (§5.1.1) and degrades about half as
///   much as DC.
///
/// # Examples
///
/// ```
/// use selfheal_bti::SwitchingActivity;
///
/// assert!(SwitchingActivity::Dc.stress_duty().get()
///     > SwitchingActivity::Ac.stress_duty().get());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchingActivity {
    /// Static inputs: continuous stress on the selected devices.
    Dc,
    /// Toggling inputs: symmetric 50 % stress / 50 % intra-cycle recovery.
    Ac,
}

impl SwitchingActivity {
    /// The stress duty cycle a *stressed* device sees in this mode.
    #[must_use]
    pub fn stress_duty(self) -> DutyCycle {
        match self {
            SwitchingActivity::Dc => DutyCycle::ALWAYS_ON,
            SwitchingActivity::Ac => DutyCycle::symmetric(),
        }
    }

    /// Short code used in test-case names (`AC`/`DC`, as in `AS110AC24`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            SwitchingActivity::Dc => "DC",
            SwitchingActivity::Ac => "AC",
        }
    }
}

impl fmt::Display for SwitchingActivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} stress", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycles() {
        assert_eq!(SwitchingActivity::Dc.stress_duty().get(), 1.0);
        assert_eq!(SwitchingActivity::Ac.stress_duty().get(), 0.5);
    }

    #[test]
    fn codes_match_test_case_names() {
        assert_eq!(SwitchingActivity::Dc.code(), "DC");
        assert_eq!(SwitchingActivity::Ac.code(), "AC");
        assert_eq!(SwitchingActivity::Ac.to_string(), "AC stress");
    }
}
