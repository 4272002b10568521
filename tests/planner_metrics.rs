//! A plan's probes stay off the metrics registry: a bisected
//! `plan_with_consumed` steps the analytic model hundreds of times per
//! probe, and none of those steps may reach `bti.analytic.*`.
//!
//! The registry is process-global, so this file holds a single test and
//! runs in its own process.

use selfheal::{RejuvenationTechnique, SchedulePlanner};
use selfheal_bti::analytic::AnalyticBti;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_telemetry::metrics::{self, Metric};
use selfheal_units::{Celsius, Hours, Millivolts, Seconds, Volts};

/// `bti.analytic.advance_calls` as the registry holds it now.
fn advance_calls() -> f64 {
    match metrics::snapshot().get("bti.analytic.advance_calls") {
        Some(Metric::Counter(calls)) => *calls,
        Some(other) => panic!("advance_calls is not a counter: {other:?}"),
        None => 0.0,
    }
}

#[test]
fn bisected_plan_records_no_analytic_steps() {
    metrics::set_enabled(true);
    metrics::reset();
    let env = Environment::new(Volts::new(1.2), Celsius::new(90.0));

    // The counter is live: a direct advance still counts.
    AnalyticBti::default().advance(DeviceCondition::dc_stress(env), Hours::new(1.0).into());
    let before = advance_calls();
    assert_eq!(before, 1.0, "AnalyticBti::advance keeps its counter");

    let planner = SchedulePlanner::with_default_models(env, Millivolts::new(30.0));
    let plan = planner
        .plan_with_consumed(
            Millivolts::new(6.0),
            RejuvenationTechnique::Combined,
            Seconds::new(86_400.0),
            Seconds::new(30.0 * 86_400.0),
        )
        .expect("24 mV left holds under combined healing");
    assert!(
        plan.alpha.get() < 64.0,
        "the plan bisected: α = {}",
        plan.alpha.get()
    );
    assert_eq!(advance_calls(), before, "a plan's probes fed the registry");
}
