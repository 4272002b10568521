//! Property-based tests of the BTI physics invariants, on both engines.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bti::analytic::{AnalyticBti, RecoveryModel, StressModel};
use selfheal_bti::td::{PhaseRates, Trap, TrapBank, TrapEnsembleParams};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{Celsius, Millivolts, Seconds, Volts};

fn arb_stress_env() -> impl Strategy<Value = Environment> {
    (0.9f64..1.4, 20.0f64..120.0)
        .prop_map(|(v, t)| Environment::new(Volts::new(v), Celsius::new(t)))
}

fn arb_recovery_env() -> impl Strategy<Value = Environment> {
    (-0.4f64..=0.0, -20.0f64..120.0)
        .prop_map(|(v, t)| Environment::new(Volts::new(v), Celsius::new(t)))
}

/// Ages a stochastic device by `hours` under `cond`.
fn age(device: &mut TrapBank, cond: DeviceCondition, hours: f64) {
    device.advance_all(&PhaseRates::for_condition(cond), Seconds::new(hours * 3600.0));
}

/// A stochastic device's current threshold shift in mV.
fn shift(device: &TrapBank) -> f64 {
    device.delta_vth().get()
}

/// The scalar oracle's traps for `seed`: the same sampler and stream as
/// `TrapBank::sample`, but each trap keeps its permanence flag.
fn oracle_traps(seed: u64) -> Vec<Trap> {
    TrapEnsembleParams::default().sample_traps(&mut StdRng::seed_from_u64(seed)).collect()
}

/// Ages the scalar oracle's traps by `hours` under `cond`.
fn age_oracle(traps: &mut [Trap], cond: DeviceCondition, hours: f64) {
    for trap in traps {
        trap.advance(cond, Seconds::new(hours * 3600.0));
    }
}

/// The permanent traps' share of the shift in mV: the floor no
/// recovery can go below.
fn permanent_floor(traps: &[Trap]) -> f64 {
    traps.iter().filter(|t| t.is_permanent()).map(|t| t.contribution().get()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stochastic_occupancy_stays_bounded(seed in 0u64..1000, hours in 0.1f64..200.0, env in arb_stress_env()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut device = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng);
        let mut traps = oracle_traps(seed);
        age(&mut device, DeviceCondition::dc_stress(env), hours);
        age_oracle(&mut traps, DeviceCondition::dc_stress(env), hours);
        for p in device.occupancies() {
            prop_assert!((0.0..=1.0).contains(p));
        }
        prop_assert!(shift(&device) >= 0.0);
        prop_assert!(permanent_floor(&traps) <= shift(&device) + 1e-9);
    }

    #[test]
    fn stochastic_stress_is_monotone_in_time(seed in 0u64..1000, h1 in 0.1f64..50.0, h2 in 0.1f64..50.0, env in arb_stress_env()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let device = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng);
        let mut a = device.clone();
        age(&mut a, DeviceCondition::dc_stress(env), h1);
        let at_h1 = shift(&a);
        age(&mut a, DeviceCondition::dc_stress(env), h2);
        prop_assert!(shift(&a) >= at_h1 - 1e-9, "stress never heals");
    }

    #[test]
    fn stochastic_recovery_never_increases_shift(seed in 0u64..1000, stress_h in 1.0f64..50.0, sleep_h in 0.1f64..100.0, env in arb_recovery_env()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut device = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng);
        let mut traps = oracle_traps(seed);
        let hot = Environment::new(Volts::new(1.2), Celsius::new(110.0));
        age(&mut device, DeviceCondition::dc_stress(hot), stress_h);
        age_oracle(&mut traps, DeviceCondition::dc_stress(hot), stress_h);
        let aged = shift(&device);
        let permanent = permanent_floor(&traps);
        age(&mut device, DeviceCondition::recovery(env), sleep_h);
        prop_assert!(shift(&device) <= aged + 1e-9);
        prop_assert!(shift(&device) >= permanent - 1e-9, "permanent floor holds");
    }

    #[test]
    fn stochastic_step_composition(seed in 0u64..500, hours in 1.0f64..48.0, splits in 2usize..6) {
        // Advancing in one step equals advancing in k sub-steps (the trap
        // update is an exact solution, not an integrator).
        let mut rng = StdRng::seed_from_u64(seed);
        let device = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng);
        let env = Environment::new(Volts::new(1.2), Celsius::new(110.0));
        let cond = DeviceCondition::dc_stress(env);

        let mut whole = device.clone();
        age(&mut whole, cond, hours);
        let mut pieces = device.clone();
        for _ in 0..splits {
            age(&mut pieces, cond, hours / splits as f64);
        }
        prop_assert!((shift(&whole) - shift(&pieces)).abs() < 1e-7);
    }

    #[test]
    fn analytic_stress_monotone_in_every_knob(t in 1e2f64..1e6, dv in 0.0f64..0.2, dt_c in 0.0f64..30.0) {
        let model = StressModel::default();
        let base = Environment::new(Volts::new(1.2), Celsius::new(80.0));
        let d0 = model.delta_vth(Seconds::new(t), base).get();
        let longer = model.delta_vth(Seconds::new(t * 2.0), base).get();
        let hotter = model
            .delta_vth(Seconds::new(t), base.with_temperature(Celsius::new(80.0 + dt_c)))
            .get();
        let higher_v = model
            .delta_vth(Seconds::new(t), base.with_supply(Volts::new(1.2 + dv)))
            .get();
        prop_assert!(longer >= d0);
        prop_assert!(hotter >= d0 - 1e-12);
        prop_assert!(higher_v >= d0 - 1e-12);
    }

    #[test]
    fn analytic_recovery_fraction_in_unit_interval(t2 in 0.0f64..1e7, t1 in 1.0f64..1e7, env in arb_recovery_env()) {
        let model = RecoveryModel::default();
        let f = model.recovered_fraction(Seconds::new(t2), Seconds::new(t1), env).get();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn analytic_recovery_monotone_in_sleep_time(t1 in 1e3f64..1e6, t2a in 0.0f64..1e5, extra in 0.0f64..1e5) {
        let model = RecoveryModel::default();
        let env = Environment::new(Volts::new(-0.3), Celsius::new(110.0));
        let f1 = model.recovered_fraction(Seconds::new(t2a), Seconds::new(t1), env).get();
        let f2 = model.recovered_fraction(Seconds::new(t2a + extra), Seconds::new(t1), env).get();
        prop_assert!(f2 >= f1 - 1e-12, "more sleep, more healing");
    }

    #[test]
    fn analytic_delta_after_bounded_by_endpoints(delta in 1.0f64..100.0, perm_frac in 0.0f64..1.0, t2 in 0.0f64..1e6) {
        let model = RecoveryModel::default();
        let env = Environment::new(Volts::new(-0.3), Celsius::new(110.0));
        let permanent = Millivolts::new(delta * perm_frac);
        let after = model
            .delta_vth_after(Millivolts::new(delta), permanent, Seconds::new(86_400.0), Seconds::new(t2), env)
            .get();
        prop_assert!(after <= delta + 1e-9);
        prop_assert!(after >= permanent.get() - 1e-9);
    }

    #[test]
    fn analytic_state_machine_is_safe_under_random_schedules(
        seed in 0u64..200,
        steps in proptest::collection::vec((0u8..3, 0.1f64..48.0), 1..20)
    ) {
        // Drive the stateful model through arbitrary stress/recovery/AC
        // sequences: the shift must stay finite, non-negative and above
        // its permanent floor throughout.
        let _ = seed;
        let mut model = AnalyticBti::default();
        let hot = Environment::new(Volts::new(1.2), Celsius::new(110.0));
        let heal = Environment::new(Volts::new(-0.3), Celsius::new(110.0));
        for (kind, hours) in steps {
            let cond = match kind {
                0 => DeviceCondition::dc_stress(hot),
                1 => DeviceCondition::ac_stress(hot),
                _ => DeviceCondition::recovery(heal),
            };
            model.advance(cond, Seconds::new(hours * 3600.0));
            let total = model.delta_vth().get();
            let permanent = model.permanent_delta_vth().get();
            prop_assert!(total.is_finite() && total >= 0.0);
            prop_assert!(permanent >= 0.0 && permanent <= total + 1e-9);
        }
    }
}
