//! Property-based tests of the FPGA substrate: the stress rule, the two
//! §3.2 hypotheses for *arbitrary* LUT configurations, and the
//! measurement pipeline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::Environment;
use selfheal_fpga::{Chip, ChipId, Family, Lut, LutConfig, RoMode};
use selfheal_units::{Celsius, Hours, Millivolts, Seconds, Volts};

fn arb_config() -> impl Strategy<Value = LutConfig> {
    any::<[bool; 4]>().prop_map(LutConfig::new)
}

fn lut_with(config: LutConfig, seed: u64) -> Lut {
    let mut rng = StdRng::seed_from_u64(seed);
    let family = Family::commercial_40nm().without_variation();
    Lut::sample(config, &family, Millivolts::new(0.0), &mut rng)
}

fn hot() -> Environment {
    Environment::new(Volts::new(1.2), Celsius::new(110.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lut_evaluates_its_truth_table(config in arb_config(), in0: bool, in1: bool) {
        let lut = lut_with(config, 1);
        let expected = config.evaluate(in0, in1);
        prop_assert_eq!(lut.evaluate(in0, in1), expected);
    }

    #[test]
    fn stress_set_is_deterministic_and_input_dependent(config in arb_config(), in0: bool, in1: bool) {
        // Hypothesis 1: with inputs fixed, the stressed set is fixed.
        let lut = lut_with(config, 2);
        let a = lut.stressed_indices(in0, in1);
        let b = lut.stressed_indices(in0, in1);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn exactly_one_buffer_device_is_stressed(config in arb_config(), in0: bool, in1: bool) {
        // The output buffer always parks at a definite level, so exactly
        // one of M7 (NMOS, index 6) / M8 (PMOS, index 7) is stressed.
        let lut = lut_with(config, 3);
        let stressed = lut.stressed_indices(in0, in1);
        let buffer_count = stressed.iter().filter(|&&i| i == 6 || i == 7).count();
        prop_assert_eq!(buffer_count, 1);
        let internal = lut.evaluate(in0, in1);
        if internal {
            prop_assert!(stressed.contains(&6), "high node stresses the NMOS");
        } else {
            prop_assert!(stressed.contains(&7), "low node stresses the PMOS");
        }
    }

    #[test]
    fn pass_devices_only_stressed_with_gate_high(config in arb_config(), in0: bool, in1: bool) {
        // Physical rule check: a stressed pass device must have its gate
        // driven high by the current inputs.
        let lut = lut_with(config, 4);
        let gate_high = [in0, !in0, in0, !in0, in1, !in1];
        for idx in lut.stressed_indices(in0, in1) {
            if idx < 6 {
                prop_assert!(gate_high[idx], "M{} stressed with gate low", idx + 1);
            }
        }
    }

    #[test]
    fn hypothesis_2_fresh_devices_stay_fresh(config in arb_config(), in0: bool, in1: bool, sleep_h in 1.0f64..50.0) {
        // Recovery "has no effect on 'fresh' (never aged) transistors".
        let mut lut = lut_with(config, 5);
        lut.advance_static(in0, in1, hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());
        let aged_before: Vec<bool> = lut.devices().iter().map(|d| d.is_aged()).collect();
        lut.advance_sleep(
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Seconds::new(sleep_h * 3600.0),
            &mut PhaseRateCache::new(),
        );
        for (device, was_aged) in lut.devices().iter().zip(aged_before) {
            if !was_aged {
                prop_assert!(!device.is_aged(), "{} aged during sleep", device.name());
            }
        }
    }

    #[test]
    fn path_delay_is_positive_and_grows_under_stress(config in arb_config(), in0: bool, in1: bool) {
        let mut lut = lut_with(config, 6);
        let vdd = Volts::new(1.2);
        let fresh = lut.path_delay(vdd, in0, in1);
        prop_assert!(fresh.get() > 0.0);
        lut.advance_static(in0, in1, hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());
        let aged = lut.path_delay(vdd, in0, in1);
        prop_assert!(aged >= fresh, "stress can only slow a path");
    }

    #[test]
    fn lower_supply_increases_delay(config in arb_config(), droop in 0.0f64..0.3) {
        let lut = lut_with(config, 7);
        let nominal = lut.switching_delay(Volts::new(1.2), true);
        let drooped = lut.switching_delay(Volts::new(1.2 - droop), true);
        prop_assert!(drooped >= nominal);
    }
}

proptest! {
    // Chip-level properties are costlier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn measurement_error_is_bounded_by_counter_resolution(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
        let m = chip.measure(&mut rng);
        let rel = (m.cut_delay.get() - chip.true_cut_delay().get()).abs()
            / chip.true_cut_delay().get();
        // ±5 counts on ≈ 5 500, averaged 8×.
        prop_assert!(rel < 1.5e-3, "relative error {rel}");
    }

    #[test]
    fn stress_heal_cycle_is_bounded(seed in 0u64..10_000, stress_h in 4.0f64..48.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chip = Chip::commercial_40nm(ChipId::new(2), &mut rng);
        let fresh = chip.true_cut_delay();
        chip.advance(
            RoMode::Static,
            Environment::new(Volts::new(1.2), Celsius::new(110.0)),
            Seconds::new(stress_h * 3600.0),
        );
        let aged = chip.true_cut_delay();
        chip.advance(
            RoMode::Sleep,
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Seconds::new(stress_h * 900.0), // α = 4
        );
        let healed = chip.true_cut_delay();
        prop_assert!(aged > fresh);
        prop_assert!(healed < aged, "healing helps");
        prop_assert!(healed >= fresh, "healing cannot beat fresh");
    }
}
