//! Property-based tests of the typed-quantity layer.

use proptest::prelude::*;
use selfheal_units::{
    Celsius, DutyCycle, Fraction, Hertz, Hours, Kelvin, Megahertz, Millivolts, Minutes,
    Nanoseconds, Percent, Ratio, Seconds, Volts,
};

proptest! {
    #[test]
    fn celsius_kelvin_round_trip(c in -200.0f64..500.0) {
        let back = Celsius::new(c).to_kelvin().to_celsius().get();
        // Clamping at absolute zero only bites below −273.15 °C.
        if c >= -273.15 {
            prop_assert!((back - c).abs() < 1e-9);
        } else {
            prop_assert!((back + 273.15).abs() < 1e-9);
        }
    }

    #[test]
    fn volts_millivolts_round_trip(v in -10.0f64..10.0) {
        let mv: Millivolts = Volts::new(v).into();
        let back: Volts = mv.into();
        prop_assert!((back.get() - v).abs() < 1e-12);
    }

    #[test]
    fn time_conversions_commute(h in 0.0f64..1e4) {
        let s: Seconds = Hours::new(h).into();
        prop_assert!((s.to_hours().get() - h).abs() < 1e-9);
        let m: Seconds = Minutes::new(h).into();
        prop_assert!((m.get() - h * 60.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_period_inverse(mhz in 0.001f64..1000.0) {
        let f = Megahertz::new(mhz);
        let hz: Hertz = f.into();
        prop_assert!((hz.period().get() * mhz * 1e6 - 1.0).abs() < 1e-9);
        let back: Megahertz = hz.into();
        prop_assert!((back.get() - mhz).abs() < 1e-9);
    }

    #[test]
    fn degradation_is_antisymmetric_around_fresh(fresh in 1.0f64..1e9, delta in -0.5f64..0.5) {
        let f0 = Hertz::new(fresh);
        let f1 = Hertz::new(fresh * (1.0 + delta));
        let deg = f1.degradation_from(f0);
        prop_assert!((deg + delta).abs() < 1e-9, "slowdown positive, speedup negative");
    }

    #[test]
    fn fraction_always_clamped(x in -10.0f64..10.0) {
        let f = Fraction::new(x);
        prop_assert!((0.0..=1.0).contains(&f.get()));
        prop_assert!((f.get() + f.complement().get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_percent_round_trip(x in 0.0f64..1.0) {
        let p = Percent::new(x * 100.0);
        prop_assert!((Fraction::from(p).get() - x).abs() < 1e-12);
    }

    #[test]
    fn ratio_cycle_split_is_a_partition(alpha in 0.01f64..100.0, period_s in 1.0f64..1e7) {
        let ratio = Ratio::new(alpha).unwrap();
        let (active, sleep) = ratio.split_cycle(Seconds::new(period_s));
        prop_assert!(active.get() >= 0.0 && sleep.get() >= 0.0);
        prop_assert!((active.get() + sleep.get() - period_s).abs() < 1e-6);
        prop_assert!((active / sleep - alpha).abs() / alpha < 1e-6);
        prop_assert!(
            (ratio.active_fraction().get() + ratio.sleep_fraction().get() - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn ratio_from_durations_matches_division(active_h in 0.1f64..100.0, sleep_h in 0.1f64..100.0) {
        // α = active / sleep, and splitting one cycle by α gives the
        // durations back.
        let (active, sleep): (Seconds, Seconds) = (Hours::new(active_h).into(), Hours::new(sleep_h).into());
        let alpha = Ratio::new(active / sleep).unwrap();
        prop_assert!((alpha.get() - active_h / sleep_h).abs() < 1e-9);
        let (a, s) = alpha.split_cycle(active + sleep);
        prop_assert!((a.get() - active.get()).abs() < 1e-6 && (s.get() - sleep.get()).abs() < 1e-6);
    }

    #[test]
    fn duty_cycle_clamps(x in -2.0f64..3.0) {
        let d = DutyCycle::new(x);
        prop_assert!((0.0..=1.0).contains(&d.get()));
    }

    #[test]
    fn nanoseconds_sum_matches_f64(values in proptest::collection::vec(0.0f64..100.0, 0..20)) {
        let expected: f64 = values.iter().sum();
        let total: Nanoseconds = values.iter().map(|v| Nanoseconds::new(*v)).sum();
        prop_assert!((total.get() - expected).abs() < 1e-9);
    }

    #[test]
    fn kelvin_never_negative(k in -500.0f64..500.0) {
        prop_assert!(Kelvin::new(k).get() >= 0.0);
    }
}
