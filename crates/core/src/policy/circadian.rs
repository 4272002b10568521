//! Circadian rejuvenation: a biological day/night rhythm with the paper's
//! α ratio.

use selfheal_units::{Fraction, Ratio, Seconds};

use crate::technique::RejuvenationTechnique;

use super::{PolicyDecision, ProactivePolicy, RecoveryPolicy};

/// Proactive scheduling phrased as a circadian rhythm: one full period is
/// split into an active "day" of `α/(1+α)` and a rejuvenating "night" of
/// `1/(1+α)` (§2.1, §7's "virtual circadian rhythm").
///
/// This is a thin, intention-revealing wrapper over [`ProactivePolicy`]:
/// the two are behaviourally identical once the period and ratio are
/// resolved, which is itself a statement the tests pin down.
///
/// # Examples
///
/// ```
/// use selfheal::policy::CircadianPolicy;
/// use selfheal::RejuvenationTechnique;
/// use selfheal_units::{Hours, Ratio};
///
/// // The paper's headline rhythm: 24 h of work healed by 6 h of sleep.
/// let policy = CircadianPolicy::new(
///     Hours::new(30.0).into(),
///     Ratio::PAPER_ALPHA,
///     RejuvenationTechnique::Combined,
/// );
/// assert!((policy.night_length().to_hours().get() - 6.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircadianPolicy {
    inner: ProactivePolicy,
    period: Seconds,
    alpha: Ratio,
}

impl CircadianPolicy {
    /// Creates a rhythm with the given full period and active-vs-sleep α.
    ///
    /// # Panics
    ///
    /// Panics if the period is non-positive.
    #[must_use]
    pub fn new(period: Seconds, alpha: Ratio, technique: RejuvenationTechnique) -> Self {
        assert!(period.get() > 0.0, "period must be positive");
        let (day, night) = alpha.split_cycle(period);
        CircadianPolicy {
            inner: ProactivePolicy::new(day, night, technique),
            period,
            alpha,
        }
    }

    /// The full day+night period.
    #[must_use]
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// The α ratio.
    #[must_use]
    pub fn alpha(&self) -> Ratio {
        self.alpha
    }

    /// Length of the active "day".
    #[must_use]
    pub fn day_length(&self) -> Seconds {
        self.alpha.split_cycle(self.period).0
    }

    /// Length of the rejuvenating "night".
    #[must_use]
    pub fn night_length(&self) -> Seconds {
        self.alpha.split_cycle(self.period).1
    }
}

impl RecoveryPolicy for CircadianPolicy {
    fn decide(&mut self, now: Seconds, margin_consumed: Fraction) -> PolicyDecision {
        self.inner.decide(now, margin_consumed)
    }

    fn name(&self) -> &str {
        "circadian"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::Hours;

    #[test]
    fn splits_period_by_alpha() {
        let p = CircadianPolicy::new(
            Hours::new(30.0).into(),
            Ratio::PAPER_ALPHA,
            RejuvenationTechnique::Combined,
        );
        assert!((p.day_length().to_hours().get() - 24.0).abs() < 1e-9);
        assert!((p.night_length().to_hours().get() - 6.0).abs() < 1e-9);
        assert_eq!(p.alpha(), Ratio::PAPER_ALPHA);
        assert!((p.period().to_hours().get() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn behaves_like_equivalent_proactive() {
        let mut circadian = CircadianPolicy::new(
            Hours::new(30.0).into(),
            Ratio::PAPER_ALPHA,
            RejuvenationTechnique::Combined,
        );
        let mut proactive = ProactivePolicy::paper_default();
        for hour in 0..100 {
            let now: Seconds = Hours::new(f64::from(hour)).into();
            assert_eq!(
                circadian.decide(now, Fraction::ZERO),
                proactive.decide(now, Fraction::ZERO),
                "diverged at hour {hour}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "period")]
    fn rejects_zero_period() {
        let _ = CircadianPolicy::new(
            Seconds::ZERO,
            Ratio::PAPER_ALPHA,
            RejuvenationTechnique::Combined,
        );
    }
}
