//! Closed-loop rejuvenation: a policy driving a real (simulated) chip
//! through its on-chip odometer.
//!
//! A real controller sees silicon only through a sensor. This module
//! closes the loop the §2.2 discussion implies: the chip ages, the
//! odometer (refs \[7, 8\]) measures, the policy decides, the supply and
//! (locally controllable) temperature respond.

use selfheal_bti::Environment;
use selfheal_fpga::{Chip, Odometer, RoMode};
use selfheal_telemetry as telemetry;
use selfheal_units::{Fraction, Nanoseconds, Seconds};

use crate::policy::{PolicyDecision, RecoveryPolicy};

/// Outcome of one closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopRun {
    /// The policy's name.
    pub policy: String,
    /// Total simulated time.
    pub horizon: Seconds,
    /// Time spent in rejuvenation sleep.
    pub time_asleep: Seconds,
    /// Number of sleep episodes.
    pub sleep_events: usize,
    /// Final true CUT delay shift versus fresh.
    pub final_shift: Nanoseconds,
    /// The odometer's final (sensor-side) reading.
    pub final_sensor_reading: Fraction,
}

/// Configuration of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopConfig {
    /// Operating condition while awake.
    pub active_env: Environment,
    /// Fractional-slowdown budget the controller normalises the sensor
    /// reading against.
    pub sensor_margin: Fraction,
    /// Total run length.
    pub horizon: Seconds,
    /// Polling cadence while awake.
    pub step: Seconds,
}

/// Drives `policy` against a chip + odometer per `config`.
///
/// The loop is deterministic given the chip and sensor state: the
/// odometer's differential reading cancels counter-style noise sources by
/// construction, so no RNG is needed at run time.
///
/// # Panics
///
/// Panics on a non-positive step or sensor margin.
pub fn run_closed_loop(
    policy: &mut dyn RecoveryPolicy,
    chip: &mut Chip,
    odometer: &mut Odometer,
    config: &ClosedLoopConfig,
) -> ClosedLoopRun {
    let ClosedLoopConfig {
        active_env,
        sensor_margin,
        horizon,
        step,
    } = *config;
    assert!(step.get() > 0.0, "step must be positive");
    assert!(sensor_margin.get() > 0.0, "sensor margin must be positive");

    let fresh = chip.true_cut_delay();
    let mut now = Seconds::ZERO;
    let mut time_asleep = Seconds::ZERO;
    let mut sleep_events = 0usize;

    while now < horizon {
        let consumed = odometer.margin_consumed(sensor_margin);
        match policy.decide(now, consumed) {
            PolicyDecision::StayActive => {
                let dt = step.min(horizon - now);
                chip.advance(RoMode::Static, active_env, dt);
                odometer.advance(RoMode::Static, active_env, dt);
                now += dt;
            }
            PolicyDecision::Sleep {
                technique,
                duration,
            } => {
                let dt = duration.min(horizon - now);
                let env = technique.environment();
                chip.advance(RoMode::Sleep, env, dt);
                odometer.advance(RoMode::Sleep, env, dt);
                now += dt;
                time_asleep += dt;
                sleep_events += 1;
                telemetry::event!(
                    "core.closed_loop.sleep",
                    t_s = now.get(),
                    duration_s = dt.get(),
                    margin_consumed = consumed.get(),
                );
                telemetry::counter!("core.closed_loop.sleep_events", 1.0);
            }
        }
    }

    ClosedLoopRun {
        policy: policy.name().to_string(),
        horizon,
        time_asleep,
        sleep_events,
        final_shift: chip.true_cut_delay() - fresh,
        final_sensor_reading: odometer.read(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ProactivePolicy, ReactivePolicy};
    use crate::technique::RejuvenationTechnique;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_fpga::{ChipId, Family};
    use selfheal_units::{Celsius, Hours, Millivolts, Volts};

    fn bench_setup(seed: u64) -> (Chip, Odometer, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = Family::commercial_40nm();
        let chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
        let odometer = Odometer::sample(&family, Millivolts::new(0.0), &mut rng);
        (chip, odometer, rng)
    }

    fn active() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(110.0))
    }

    fn run(policy: &mut dyn RecoveryPolicy, seed: u64) -> ClosedLoopRun {
        run_for(policy, seed, Seconds::new(10.0 * 86_400.0))
    }

    fn run_for(policy: &mut dyn RecoveryPolicy, seed: u64, horizon: Seconds) -> ClosedLoopRun {
        let (mut chip, mut odo, _rng) = bench_setup(seed);
        run_closed_loop(
            policy,
            &mut chip,
            &mut odo,
            &ClosedLoopConfig {
                active_env: active(),
                sensor_margin: Fraction::new(0.05),
                horizon,
                step: Hours::new(2.0).into(),
            },
        )
    }

    #[test]
    fn reactive_policy_actually_fires_from_sensor_signal() {
        // Threshold at 40 % of a 5 % slowdown budget = 2 % measured
        // slowdown — reached within the first days at 110 °C.
        let mut policy = ReactivePolicy::new(
            Fraction::new(0.4),
            RejuvenationTechnique::Combined,
            Hours::new(6.0).into(),
        );
        let result = run(&mut policy, 31);
        assert!(result.sleep_events > 0, "the sensor triggered sleeps");
        assert!(result.final_sensor_reading.get() > 0.0);
    }

    #[test]
    fn reactive_accumulates_more_wear_up_front() {
        // §2.2: reactive recovery "accumulates upfront more irreversible
        // aging": it waits for a damage threshold, so when the proactive
        // schedule has already slept once it has not, and its chip reads
        // deeper into the margin; it does fire later on.
        let reactive = || {
            ReactivePolicy::new(
                Fraction::new(0.5),
                RejuvenationTechnique::Combined,
                Hours::new(6.0).into(),
            )
        };
        let first_night: Seconds = Hours::new(30.0).into();
        let p = run_for(&mut ProactivePolicy::paper_default(), 34, first_night);
        let r = run_for(&mut reactive(), 34, first_night);
        assert_eq!(p.sleep_events, 1, "proactive sleeps on schedule");
        assert_eq!(r.sleep_events, 0, "reactive has not reached its threshold");
        assert!(
            r.final_sensor_reading > p.final_sensor_reading,
            "reactive {} vs proactive {}",
            r.final_sensor_reading,
            p.final_sensor_reading
        );
        assert!(
            run(&mut reactive(), 34).sleep_events > 0,
            "reactive does eventually fire"
        );
    }

    #[test]
    fn closed_loop_healing_beats_never_sleeping() {
        struct NeverSleep;
        impl RecoveryPolicy for NeverSleep {
            fn decide(&mut self, _: Seconds, _: Fraction) -> PolicyDecision {
                PolicyDecision::StayActive
            }
            fn name(&self) -> &str {
                "never-sleep"
            }
        }
        let baseline = run(&mut NeverSleep, 32);
        let mut proactive = ProactivePolicy::paper_default();
        let healed = run(&mut proactive, 32);
        assert_eq!(baseline.sleep_events, 0);
        assert!(
            healed.final_shift < baseline.final_shift,
            "healing {} vs baseline {}",
            healed.final_shift,
            baseline.final_shift
        );
    }

    #[test]
    fn sensor_tracks_the_chip_it_rides_on() {
        // The odometer's fractional reading and the CUT's true fractional
        // slowdown must agree to sensor accuracy (they share stress
        // history, not devices).
        let mut policy = ProactivePolicy::paper_default();
        let (mut chip, mut odo, _rng) = bench_setup(33);
        let fresh = chip.true_cut_delay();
        let result = run_closed_loop(
            &mut policy,
            &mut chip,
            &mut odo,
            &ClosedLoopConfig {
                active_env: active(),
                sensor_margin: Fraction::new(0.05),
                horizon: Seconds::new(5.0 * 86_400.0),
                step: Hours::new(2.0).into(),
            },
        );
        let true_fraction = result.final_shift.get() / fresh.get();
        let sensed = result.final_sensor_reading.get();
        assert!(
            (sensed - true_fraction).abs() < 0.01,
            "sensor {sensed} vs truth {true_fraction}"
        );
    }

    #[test]
    fn accounting_is_consistent() {
        let mut policy = ProactivePolicy::paper_default();
        let result = run(&mut policy, 34);
        assert!(result.time_asleep.get() > 0.0);
        assert!(result.time_asleep < result.horizon);
        assert_eq!(result.policy, "proactive");
    }

    #[test]
    #[should_panic(expected = "sensor margin")]
    fn rejects_zero_margin() {
        let mut policy = ProactivePolicy::paper_default();
        let (mut chip, mut odo, _rng) = bench_setup(35);
        let _ = run_closed_loop(
            &mut policy,
            &mut chip,
            &mut odo,
            &ClosedLoopConfig {
                active_env: active(),
                sensor_margin: Fraction::ZERO,
                horizon: Seconds::new(3600.0),
                step: Seconds::new(600.0),
            },
        );
    }
}
