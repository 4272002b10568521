//! Proactive rejuvenation: sleep on a fixed schedule, ahead of any sign
//! of wearout.

use selfheal_units::{Fraction, Hours, Seconds};

use crate::technique::RejuvenationTechnique;

use super::{PolicyDecision, RecoveryPolicy};

/// Sleeps for `sleep` every `awake` of active time, regardless of measured
/// state.
///
/// "Proactive recovery, with scheduled explicit accelerated recovery
/// periods ahead of any sign of stress, is simpler to implement, results
/// in the system operating for longer time in a 'refreshed' mode" (§2.2).
///
/// # Examples
///
/// ```
/// use selfheal::policy::{PolicyDecision, ProactivePolicy, RecoveryPolicy};
/// use selfheal_units::{Fraction, Seconds};
///
/// let mut policy = ProactivePolicy::paper_default();
/// // Immediately after start: keep working.
/// let d = policy.decide(Seconds::ZERO, Fraction::ZERO);
/// assert_eq!(d, PolicyDecision::StayActive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProactivePolicy {
    awake: Seconds,
    sleep: Seconds,
    technique: RejuvenationTechnique,
    next_sleep_at: Seconds,
}

impl ProactivePolicy {
    /// Creates a policy sleeping `sleep` after every `awake` of activity.
    ///
    /// # Panics
    ///
    /// Panics if either duration is non-positive.
    #[must_use]
    pub fn new(awake: Seconds, sleep: Seconds, technique: RejuvenationTechnique) -> Self {
        assert!(awake.get() > 0.0, "awake window must be positive");
        assert!(sleep.get() > 0.0, "sleep window must be positive");
        ProactivePolicy {
            awake,
            sleep,
            technique,
            next_sleep_at: awake,
        }
    }

    /// The paper's schedule: 24 h awake, 6 h of combined-technique sleep
    /// (α = 4).
    #[must_use]
    pub fn paper_default() -> Self {
        ProactivePolicy::new(
            Hours::new(24.0).into(),
            Hours::new(6.0).into(),
            RejuvenationTechnique::Combined,
        )
    }

    /// The treatment used during sleep.
    #[must_use]
    pub fn technique(&self) -> RejuvenationTechnique {
        self.technique
    }
}

impl RecoveryPolicy for ProactivePolicy {
    fn decide(&mut self, now: Seconds, _margin_consumed: Fraction) -> PolicyDecision {
        if now >= self.next_sleep_at {
            self.next_sleep_at = now + self.sleep + self.awake;
            PolicyDecision::Sleep {
                technique: self.technique,
                duration: self.sleep,
            }
        } else {
            PolicyDecision::StayActive
        }
    }

    fn name(&self) -> &str {
        "proactive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeps_exactly_on_schedule() {
        let mut p = ProactivePolicy::paper_default();
        let awake: Seconds = Hours::new(24.0).into();
        assert_eq!(
            p.decide(Seconds::ZERO, Fraction::ZERO),
            PolicyDecision::StayActive
        );
        assert_eq!(
            p.decide(awake * 0.99, Fraction::ZERO),
            PolicyDecision::StayActive
        );
        let d = p.decide(awake, Fraction::ZERO);
        assert!(matches!(d, PolicyDecision::Sleep { .. }));
        // Right after the sleep decision the timer has been re-armed.
        assert_eq!(
            p.decide(awake + Seconds::new(1.0), Fraction::ZERO),
            PolicyDecision::StayActive
        );
    }

    #[test]
    fn ignores_margin_signal() {
        let mut p = ProactivePolicy::paper_default();
        // Even a screaming margin does not trigger an early sleep — that
        // is the whole (deliberate) difference from the reactive policy.
        assert_eq!(
            p.decide(Seconds::new(10.0), Fraction::new(0.99)),
            PolicyDecision::StayActive
        );
    }

    #[test]
    #[should_panic(expected = "awake window")]
    fn rejects_zero_awake() {
        let _ = ProactivePolicy::new(
            Seconds::ZERO,
            Seconds::new(10.0),
            RejuvenationTechnique::Combined,
        );
    }
}
