//! Recovery scheduling policies: *when* to put a circuit to sleep.
//!
//! §2.2 contrasts two philosophies. **Reactive** recovery waits until a
//! measured threshold of wearout — "potentially more economic", but
//! unpredictable, and the circuit spends more of its life in an aged
//! state. **Proactive** recovery schedules sleep ahead of any sign of
//! stress — simpler, predictable, and the system runs "refreshed" for more
//! of its lifetime. The **circadian** policy is proactive scheduling with
//! a biological day/night cadence and the paper's α ratio.
//!
//! [`simulate_policy`] makes the trade-off quantitative by driving the
//! first-order aging model under each policy and scoring time-weighted
//! margin consumption.

mod circadian;
mod proactive;
mod reactive;

pub use circadian::CircadianPolicy;
pub use proactive::ProactivePolicy;
pub use reactive::ReactivePolicy;

use selfheal_bti::analytic::AnalyticBti;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{Fraction, Millivolts, Seconds};

use crate::technique::RejuvenationTechnique;

/// What a policy wants to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyDecision {
    /// Keep working.
    StayActive,
    /// Enter a rejuvenation sleep.
    Sleep {
        /// The sleep treatment to apply.
        technique: RejuvenationTechnique,
        /// How long to sleep.
        duration: Seconds,
    },
}

/// A recovery-scheduling policy.
///
/// Policies are polled at every simulation step with the current time and
/// the measured margin consumption; they answer with a decision. They may
/// keep internal state (the proactive timer, the reactive hysteresis).
pub trait RecoveryPolicy {
    /// Decide what to do at time `now` given the measured fraction of the
    /// aging margin already consumed.
    fn decide(&mut self, now: Seconds, margin_consumed: Fraction) -> PolicyDecision;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

/// Outcome of driving one policy over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRun {
    /// The policy's name.
    pub policy: String,
    /// Total simulated time.
    pub horizon: Seconds,
    /// Time spent asleep (lost throughput).
    pub time_asleep: Seconds,
    /// Number of sleep episodes taken.
    pub sleep_events: usize,
    /// Time-weighted mean of the margin-consumed fraction — the paper's
    /// "expected performance" argument: proactive healing keeps this low.
    pub mean_margin_consumed: Fraction,
    /// Worst margin consumption seen at any step.
    pub peak_margin_consumed: Fraction,
    /// Margin consumption at the end of the horizon.
    pub final_margin_consumed: Fraction,
    /// When the first sleep episode began, if any — proactive policies
    /// fire on schedule, reactive ones only once damage has accumulated.
    pub first_sleep_at: Option<Seconds>,
}

impl PolicyRun {
    /// Fraction of the horizon spent doing useful work.
    #[must_use]
    pub fn availability(&self) -> Fraction {
        if self.horizon.get() <= 0.0 {
            return Fraction::ONE;
        }
        Fraction::new(1.0 - self.time_asleep / self.horizon)
    }
}

/// Drives `policy` over `horizon`, aging `device` under `active_env`
/// whenever awake, and applying the policy's chosen technique during
/// sleep.
///
/// `margin` is the threshold-shift budget (the delay-domain margin
/// divided by the path's β); consumption is measured against it. `step`
/// is the polling cadence.
///
/// # Panics
///
/// Panics on a non-positive margin or step.
pub fn simulate_policy(
    policy: &mut dyn RecoveryPolicy,
    mut device: AnalyticBti,
    active_env: Environment,
    margin: Millivolts,
    horizon: Seconds,
    step: Seconds,
) -> PolicyRun {
    assert!(margin.get() > 0.0, "margin must be positive");
    assert!(step.get() > 0.0, "step must be positive");

    let mut now = Seconds::ZERO;
    let mut time_asleep = Seconds::ZERO;
    let mut sleep_events = 0usize;
    let mut weighted_consumed = 0.0;
    let mut peak: f64 = 0.0;
    let mut first_sleep_at = None;

    while now < horizon {
        let consumed = Fraction::new(device.delta_vth().get() / margin.get());
        peak = peak.max(consumed.get());
        match policy.decide(now, consumed) {
            PolicyDecision::StayActive => {
                let dt = step.min(horizon - now);
                device.advance(DeviceCondition::dc_stress(active_env), dt);
                weighted_consumed += consumed.get() * dt.get();
                now += dt;
            }
            PolicyDecision::Sleep {
                technique,
                duration,
            } => {
                let dt = duration.min(horizon - now);
                device.advance(DeviceCondition::recovery(technique.environment()), dt);
                weighted_consumed += consumed.get() * dt.get();
                if first_sleep_at.is_none() {
                    first_sleep_at = Some(now);
                }
                now += dt;
                time_asleep += dt;
                sleep_events += 1;
            }
        }
    }

    let final_consumed = Fraction::new(device.delta_vth().get() / margin.get());
    PolicyRun {
        policy: policy.name().to_string(),
        horizon,
        time_asleep,
        sleep_events,
        mean_margin_consumed: Fraction::new(weighted_consumed / horizon.get().max(f64::MIN_POSITIVE)),
        peak_margin_consumed: Fraction::new(peak.max(final_consumed.get())),
        final_margin_consumed: final_consumed,
        first_sleep_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::{Celsius, Hours, Ratio, Volts};

    fn active_env() -> Environment {
        // A hot, busy core: nominal supply at 90 °C junction temperature.
        Environment::new(Volts::new(1.2), Celsius::new(90.0))
    }

    fn run(policy: &mut dyn RecoveryPolicy) -> PolicyRun {
        simulate_policy(
            policy,
            AnalyticBti::default(),
            active_env(),
            Millivolts::new(45.0),
            Seconds::new(90.0 * 24.0 * 3600.0), // 90 days
            Hours::new(6.0).into(),
        )
    }

    #[test]
    fn proactive_keeps_margin_lower_than_no_policy() {
        struct NeverSleep;
        impl RecoveryPolicy for NeverSleep {
            fn decide(&mut self, _: Seconds, _: Fraction) -> PolicyDecision {
                PolicyDecision::StayActive
            }
            fn name(&self) -> &str {
                "never-sleep"
            }
        }
        let baseline = run(&mut NeverSleep);
        let mut proactive = ProactivePolicy::paper_default();
        let healed = run(&mut proactive);

        assert_eq!(baseline.sleep_events, 0);
        assert!(healed.sleep_events > 0);
        assert!(
            healed.final_margin_consumed.get() < baseline.final_margin_consumed.get(),
            "{} vs {}",
            healed.final_margin_consumed,
            baseline.final_margin_consumed
        );
        assert!(healed.availability().get() < 1.0);
        assert_eq!(baseline.availability().get(), 1.0);
    }

    #[test]
    fn reactive_accumulates_more_wear_up_front() {
        // §2.2: reactive recovery "accumulates upfront more irreversible
        // aging" — it waits for a damage threshold, so by its first sleep
        // the circuit is deeper into its margin than a proactive system
        // ever gets, and that first sleep happens later.
        let mut proactive = ProactivePolicy::paper_default();
        let p = run(&mut proactive);
        let mut reactive = ReactivePolicy::new(
            Fraction::new(0.75),
            RejuvenationTechnique::Combined,
            Hours::new(6.0).into(),
        );
        let r = run(&mut reactive);

        assert!(r.sleep_events > 0, "reactive does eventually fire");
        assert!(
            p.peak_margin_consumed.get() < 0.75,
            "proactive heals before reaching the reactive threshold: peak {}",
            p.peak_margin_consumed
        );
        assert!(
            r.peak_margin_consumed.get() >= 0.75,
            "reactive rides up to its threshold: peak {}",
            r.peak_margin_consumed
        );
        let (p_first, r_first) = (p.first_sleep_at.unwrap(), r.first_sleep_at.unwrap());
        assert!(
            p_first < r_first,
            "proactive heals earlier: {p_first} vs {r_first}"
        );
    }

    #[test]
    fn circadian_policy_sleeps_on_schedule() {
        let mut circadian = CircadianPolicy::new(
            Hours::new(30.0).into(),
            Ratio::PAPER_ALPHA,
            RejuvenationTechnique::Combined,
        );
        let result = run(&mut circadian);
        // 90 days at a 30 h period ⇒ 72 cycles.
        assert!(result.sleep_events >= 60, "events = {}", result.sleep_events);
        // Sleeps 1/5 of every period.
        let sleep_fraction = result.time_asleep / result.horizon;
        assert!((sleep_fraction - 0.2).abs() < 0.03, "fraction = {sleep_fraction}");
    }

    #[test]
    #[should_panic(expected = "margin must be positive")]
    fn rejects_nonpositive_margin() {
        let mut p = ProactivePolicy::paper_default();
        let _ = simulate_policy(
            &mut p,
            AnalyticBti::default(),
            active_env(),
            Millivolts::new(0.0),
            Seconds::new(3600.0),
            Seconds::new(60.0),
        );
    }
}
