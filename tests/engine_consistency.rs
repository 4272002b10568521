//! Cross-engine consistency: the analytic first-order model and the
//! stochastic trapping/detrapping engine must agree on every *qualitative*
//! ordering (they are independent implementations of the same physics),
//! and on magnitudes to within calibration tolerance.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bti::analytic::AnalyticBti;
use selfheal_bti::td::{PhaseRates, TrapBank, TrapEnsembleParams};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{Celsius, Hours, Seconds, Volts};

fn env(v: f64, t: f64) -> Environment {
    Environment::new(Volts::new(v), Celsius::new(t))
}

/// Mean stochastic ΔVth over a small device population after a schedule.
fn stochastic_mean(schedule: &[(DeviceCondition, Seconds)], n: u64) -> f64 {
    let params = TrapEnsembleParams::default();
    let mut total = 0.0;
    for seed in 0..n {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut device = TrapBank::sample(&params, &mut rng);
        for (cond, dt) in schedule {
            device.advance_all(&PhaseRates::for_condition(*cond), *dt);
        }
        total += device.delta_vth().get();
    }
    total / n as f64
}

fn analytic(schedule: &[(DeviceCondition, Seconds)]) -> f64 {
    let mut model = AnalyticBti::default();
    for (cond, dt) in schedule {
        model.advance(*cond, *dt);
    }
    model.delta_vth().get()
}

fn day_stress() -> (DeviceCondition, Seconds) {
    (
        DeviceCondition::dc_stress(env(1.2, 110.0)),
        Hours::new(24.0).into(),
    )
}

#[test]
fn engines_agree_on_24h_stress_magnitude() {
    let schedule = [day_stress()];
    let stochastic = stochastic_mean(&schedule, 40);
    let model = analytic(&schedule);
    let rel = (stochastic - model).abs() / stochastic;
    assert!(
        rel < 0.25,
        "24 h shift: stochastic {stochastic:.1} mV vs analytic {model:.1} mV"
    );
}

#[test]
fn engines_agree_on_recovery_ordering() {
    // Recovered fraction after 6 h of sleep, for each of the paper's four
    // conditions — both engines must produce the same ranking.
    let conditions = [
        ("passive", env(0.0, 20.0)),
        ("neg", env(-0.3, 20.0)),
        ("hot", env(0.0, 110.0)),
        ("both", env(-0.3, 110.0)),
    ];
    let mut stochastic_f = Vec::new();
    let mut analytic_f = Vec::new();
    for (_, sleep_env) in conditions {
        let stress = [day_stress()];
        let full = [
            day_stress(),
            (DeviceCondition::recovery(sleep_env), Hours::new(6.0).into()),
        ];
        let s_aged = stochastic_mean(&stress, 30);
        let s_healed = stochastic_mean(&full, 30);
        stochastic_f.push((s_aged - s_healed) / s_aged);

        let a_aged = analytic(&stress);
        let a_healed = analytic(&full);
        analytic_f.push((a_aged - a_healed) / a_aged);
    }
    // Same strict ordering: passive < {neg, hot} < both.
    for f in [&stochastic_f, &analytic_f] {
        assert!(f[0] < f[1] && f[0] < f[2], "passive weakest: {f:?}");
        assert!(f[3] > f[1] && f[3] > f[2], "combined strongest: {f:?}");
    }
    // And comparable magnitudes for the headline condition.
    assert!(
        (stochastic_f[3] - analytic_f[3]).abs() < 0.15,
        "combined recovery: stochastic {} vs analytic {}",
        stochastic_f[3],
        analytic_f[3]
    );
}

#[test]
fn engines_agree_on_temperature_ordering_of_stress() {
    for engine in ["stochastic", "analytic"] {
        let run = |t: f64| {
            let schedule = [(
                DeviceCondition::dc_stress(env(1.2, t)),
                Hours::new(24.0).into(),
            )];
            if engine == "stochastic" {
                stochastic_mean(&schedule, 20)
            } else {
                analytic(&schedule)
            }
        };
        let cold = run(60.0);
        let warm = run(100.0);
        let hot = run(110.0);
        assert!(
            cold < warm && warm < hot,
            "{engine}: {cold:.1} / {warm:.1} / {hot:.1} mV"
        );
    }
}

#[test]
fn engines_agree_on_ac_relief() {
    let ac = [(
        DeviceCondition::ac_stress(env(1.2, 110.0)),
        Hours::new(24.0).into(),
    )];
    let dc = [day_stress()];
    let s_ratio = stochastic_mean(&ac, 30) / stochastic_mean(&dc, 30);
    let a_ratio = analytic(&ac) / analytic(&dc);
    assert!(
        (s_ratio - a_ratio).abs() < 0.12,
        "per-device AC/DC: stochastic {s_ratio:.2} vs analytic {a_ratio:.2}"
    );
    assert!(s_ratio > 0.15 && s_ratio < 0.4, "both in the calibrated band");
}

#[test]
fn engines_agree_that_recovery_saturates() {
    // Doubling the sleep from 6 h to 12 h must help, but by much less
    // than 2× — in both engines.
    for hours in [&[6.0, 12.0]] {
        let frac = |engine: &str, sleep_h: f64| {
            let stress = [day_stress()];
            let full = [
                day_stress(),
                (
                    DeviceCondition::recovery(env(-0.3, 110.0)),
                    Seconds::new(sleep_h * 3600.0),
                ),
            ];
            let (aged, healed) = if engine == "stochastic" {
                (stochastic_mean(&stress, 25), stochastic_mean(&full, 25))
            } else {
                (analytic(&stress), analytic(&full))
            };
            (aged - healed) / aged
        };
        for engine in ["stochastic", "analytic"] {
            let short = frac(engine, hours[0]);
            let long = frac(engine, hours[1]);
            assert!(long > short, "{engine}: more sleep heals more");
            assert!(
                long < 1.5 * short,
                "{engine}: strongly sub-linear ({short:.2} → {long:.2})"
            );
        }
    }
}
