//! The planner's probe, pinned to the stepped schedule it summarises.
//!
//! `CycleModel::peak` walks the same steps as `CycleModel::run_from`
//! without building the samples, with each condition's factors and the
//! sleep phase's `η` numerators computed once, and stops once the running
//! peak exceeds a ceiling. These properties hold it to `run_from`'s
//! samples bit for bit, and hold the planner's bisection, which now runs
//! on it, to the sample-building bisection it replaced.

use proptest::prelude::*;
use selfheal::{RejuvenationPlan, RejuvenationTechnique, SchedulePlanner};
use selfheal_bti::analytic::{AnalyticBti, CycleModel, RecoveryModel, StressModel};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_fleet::FleetConfig;
use selfheal_units::{float, Celsius, DutyCycle, Millivolts, Ratio, Seconds, Volts};

/// `float::max_of` over `run_from`'s samples: the peak as the planner
/// computed it before `CycleModel::peak`.
fn sampled_peak(model: &CycleModel, start: AnalyticBti, cycles: usize) -> f64 {
    float::max_of(
        model
            .run_from(start, cycles)
            .into_iter()
            .map(|s| s.delta_vth.get()),
    )
    .unwrap_or(0.0)
}

/// An analytic device aged `stress_h` under `active`, then healed
/// `heal_h` under `sleep` (either may be zero).
fn aged(
    active: DeviceCondition,
    sleep: DeviceCondition,
    stress_h: f64,
    heal_h: f64,
) -> AnalyticBti {
    let mut device = AnalyticBti::default();
    device.advance(active, Seconds::new(stress_h * 3600.0));
    device.advance(sleep, Seconds::new(heal_h * 3600.0));
    device
}

/// The active condition for a drawn duty: a tenth of the draws are
/// exactly 0, an active phase that heals and so never restarts the sleep
/// clock, which makes `peak` compute its own `η` numerators.
fn active_condition(supply: f64, celsius: f64, raw_duty: f64) -> DeviceCondition {
    let duty = ((raw_duty - 0.1) / 0.9).max(0.0);
    DeviceCondition::new(
        Environment::new(Volts::new(supply), Celsius::new(celsius)),
        DutyCycle::new(duty),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn peak_is_the_sampled_peak_bit_for_bit(
        schedule in (0.5f64..=64.0, 1.0f64..=48.0, 1usize..=60, 0usize..4),
        active in (1.0f64..1.3, 60.0f64..120.0, 0.0f64..=1.0),
        start in (0.0f64..200.0, 0.0f64..30.0),
        ceiling in (0.5f64..1.5, 1usize..=60),
    ) {
        let (alpha, period_h, cycles, technique) = schedule;
        let model = CycleModel {
            alpha: Ratio::new(alpha).expect("α in [0.5, 64]"),
            period: Seconds::new(period_h * 3600.0),
            active: active_condition(active.0, active.1, active.2),
            sleep: DeviceCondition::recovery(RejuvenationTechnique::ALL[technique].environment()),
        };
        let device = aged(model.active, model.sleep, start.0, start.1);

        let full = sampled_peak(&model, device.clone(), cycles);
        let peak = model.peak(device.clone(), cycles, Millivolts::new(f64::INFINITY)).get();
        prop_assert_eq!(peak.to_bits(), full.to_bits(), "{:?} from {:?}", model, device);

        // A ceiling cuts the walk short only when the full peak exceeds
        // it; otherwise the answer is the full peak. The edges: the full
        // peak itself, the float just below it, and the running peak at a
        // cycle boundary, which the walk reaches exactly before it may
        // climb past.
        let (scale, boundary) = ceiling;
        let at_boundary = sampled_peak(&model, device.clone(), boundary.min(cycles));
        for ceiling in [full * scale, full, full.next_down(), at_boundary] {
            let capped = model.peak(device.clone(), cycles, Millivolts::new(ceiling)).get();
            prop_assert_eq!(capped > ceiling, full > ceiling, "ceiling {} of {}", ceiling, full);
            if full <= ceiling {
                prop_assert_eq!(capped.to_bits(), full.to_bits(), "ceiling {}", ceiling);
            }
        }
    }
}

/// The bisection `SchedulePlanner::plan_with_consumed` ran before the
/// probe: every candidate simulated in full through `run_from`, and the
/// chosen α simulated once more for the reply's peak.
fn reference_plan(
    active_env: Environment,
    margin: Millivolts,
    consumed: Millivolts,
    technique: RejuvenationTechnique,
    period: Seconds,
    horizon: Seconds,
) -> Option<RejuvenationPlan> {
    let left = margin.get() - consumed.get();
    if left.is_nan() || left <= 0.0 {
        return None;
    }
    let cycles = (horizon.get() / period.get()).ceil().max(1.0) as usize;
    let predicted_peak = |alpha: Ratio| {
        let model = CycleModel {
            alpha,
            period,
            active: DeviceCondition::dc_stress(active_env),
            sleep: DeviceCondition::recovery(technique.environment()),
        };
        Millivolts::new(sampled_peak(
            &model,
            AnalyticBti::new(StressModel::default(), RecoveryModel::default()),
            cycles,
        ))
    };
    let fits = |alpha: Ratio| predicted_peak(alpha).get() <= left;
    let alpha_of = |value: f64| Ratio::new(value).expect("bisection keeps α in [0.5, 64]");
    let plan_for = |alpha: Ratio| RejuvenationPlan {
        alpha,
        technique,
        period,
        predicted_peak: predicted_peak(alpha),
    };

    let alpha_min = alpha_of(0.5);
    let alpha_max = alpha_of(64.0);
    if !fits(alpha_min) {
        return None;
    }
    if fits(alpha_max) {
        return Some(plan_for(alpha_max));
    }
    let mut s_lo = alpha_max.sleep_fraction().get();
    let mut s_hi = alpha_min.sleep_fraction().get();
    for _ in 0..40 {
        let s_mid = 0.5 * (s_lo + s_hi);
        if fits(alpha_of(1.0 / s_mid - 1.0)) {
            s_hi = s_mid;
        } else {
            s_lo = s_mid;
        }
    }
    Some(plan_for(alpha_of(1.0 / s_hi - 1.0)))
}

/// A plan as the bits a reply carries.
fn reply_bits(plan: Option<RejuvenationPlan>) -> Option<(u64, RejuvenationTechnique, u64, u64)> {
    plan.map(|p| {
        (
            p.alpha.get().to_bits(),
            p.technique,
            p.period.get().to_bits(),
            p.predicted_peak.get().to_bits(),
        )
    })
}

#[test]
fn plan_with_consumed_matches_the_reference_bisection_bit_for_bit() {
    let config = FleetConfig::default();
    let planner = SchedulePlanner::with_default_models(config.active_env, config.margin);
    // 0 up to past the 30 mV margin in 0.5 mV steps, plus NaN: fits at
    // α = 64, bisections, refusals at α = 0.5 and spent budgets.
    let consumed: Vec<f64> = (0..=64)
        .map(|i| 0.5 * f64::from(i))
        .chain([f64::NAN])
        .collect();
    let (mut fitted, mut bisected, mut refused) = (0, 0, 0);
    // `epoch_churn`'s plan inputs: every technique, {12, 24, 48} h
    // periods and {7, 30} d horizons.
    for technique in RejuvenationTechnique::ALL {
        for hours in [12.0, 24.0, 48.0] {
            for days in [7.0, 30.0] {
                let period = Seconds::new(hours * 3600.0);
                let horizon = Seconds::new(days * 86_400.0);
                for &mv in &consumed {
                    let consumed = Millivolts::new(mv);
                    let plan = planner.plan_with_consumed(consumed, technique, period, horizon);
                    let reference = reference_plan(
                        config.active_env,
                        config.margin,
                        consumed,
                        technique,
                        period,
                        horizon,
                    );
                    assert_eq!(
                        reply_bits(plan),
                        reply_bits(reference),
                        "{technique} over {hours} h × {days} d with {mv} mV consumed: {plan:?} vs {reference:?}"
                    );
                    match plan {
                        Some(p) if p.alpha.get() < 64.0 => bisected += 1,
                        Some(_) => fitted += 1,
                        None => refused += 1,
                    }
                }
            }
        }
    }
    // The grid reaches every branch of the search.
    assert!(
        fitted > 0 && bisected > 0 && refused > 0,
        "{fitted} / {bisected} / {refused}"
    );
}
