//! Reactive rejuvenation: sleep only once measured wearout crosses a
//! threshold.

use selfheal_units::{Fraction, Seconds};

use crate::technique::RejuvenationTechnique;

use super::{PolicyDecision, RecoveryPolicy};

/// Sleeps when the measured margin consumption reaches a threshold.
///
/// §2.2's assessment is built into the comparison tests: reactive recovery
/// "is potentially more 'economic' since it is only scheduled when
/// needed", but the circuit "operates more time in an aged/stress mode",
/// needs Vth tracking hardware, and fires at unpredictable times.
///
/// # Examples
///
/// ```
/// use selfheal::policy::{PolicyDecision, ReactivePolicy, RecoveryPolicy};
/// use selfheal::RejuvenationTechnique;
/// use selfheal_units::{Fraction, Hours, Seconds};
///
/// let mut policy = ReactivePolicy::new(
///     Fraction::new(0.5),
///     RejuvenationTechnique::Combined,
///     Hours::new(6.0).into(),
/// );
/// assert_eq!(policy.decide(Seconds::ZERO, Fraction::new(0.2)), PolicyDecision::StayActive);
/// assert!(matches!(
///     policy.decide(Seconds::new(100.0), Fraction::new(0.6)),
///     PolicyDecision::Sleep { .. }
/// ));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactivePolicy {
    threshold: Fraction,
    technique: RejuvenationTechnique,
    sleep: Seconds,
}

impl ReactivePolicy {
    /// Creates a policy firing at the given consumed-margin threshold.
    ///
    /// # Panics
    ///
    /// Panics if the sleep duration is non-positive.
    #[must_use]
    pub fn new(threshold: Fraction, technique: RejuvenationTechnique, sleep: Seconds) -> Self {
        assert!(sleep.get() > 0.0, "sleep window must be positive");
        ReactivePolicy {
            threshold,
            technique,
            sleep,
        }
    }

    /// The firing threshold.
    #[must_use]
    pub fn threshold(&self) -> Fraction {
        self.threshold
    }
}

impl RecoveryPolicy for ReactivePolicy {
    fn decide(&mut self, _now: Seconds, margin_consumed: Fraction) -> PolicyDecision {
        if margin_consumed >= self.threshold {
            PolicyDecision::Sleep {
                technique: self.technique,
                duration: self.sleep,
            }
        } else {
            PolicyDecision::StayActive
        }
    }

    fn name(&self) -> &str {
        "reactive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::Hours;

    #[test]
    fn fires_exactly_at_threshold() {
        let mut p = ReactivePolicy::new(
            Fraction::new(0.5),
            RejuvenationTechnique::Combined,
            Hours::new(6.0).into(),
        );
        assert_eq!(
            p.decide(Seconds::ZERO, Fraction::new(0.49)),
            PolicyDecision::StayActive
        );
        assert!(matches!(
            p.decide(Seconds::ZERO, Fraction::new(0.5)),
            PolicyDecision::Sleep { .. }
        ));
    }

    #[test]
    fn keeps_firing_while_margin_stays_high() {
        // If one sleep was not enough (deep, partially-permanent wear),
        // the policy immediately schedules another — reactive policies
        // have no cadence of their own.
        let mut p = ReactivePolicy::new(
            Fraction::new(0.5),
            RejuvenationTechnique::Combined,
            Hours::new(6.0).into(),
        );
        for _ in 0..3 {
            assert!(matches!(
                p.decide(Seconds::ZERO, Fraction::new(0.8)),
                PolicyDecision::Sleep { .. }
            ));
        }
    }

    #[test]
    #[should_panic(expected = "sleep window")]
    fn rejects_zero_sleep() {
        let _ = ReactivePolicy::new(
            Fraction::new(0.5),
            RejuvenationTechnique::Combined,
            Seconds::ZERO,
        );
    }
}
