//! Integration tests for the beyond-the-paper extensions, exercised
//! together the way a downstream user would combine them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal::closed_loop::{run_closed_loop, ClosedLoopConfig};
use selfheal::policy::ReactivePolicy;
use selfheal::study::MetricStats;
use selfheal::{RejuvenationTechnique, SchedulePlanner};
use selfheal_bti::em::Electromigration;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_fpga::fabric::CutArray;
use selfheal_fpga::{Chip, ChipId, Family, Odometer, RoMode};
use selfheal_multicore::lifetime::estimate_lifetime;
use selfheal_multicore::scheduler::{CircadianRotation, NaiveGating};
use selfheal_multicore::sim::SimConfig;
use selfheal_multicore::workload::Workload;
use selfheal_units::{Celsius, Fraction, Hours, Millivolts, Seconds, Volts};

#[test]
fn planner_output_survives_contact_with_the_stochastic_chip() {
    // Plan a rhythm with the analytic models, then run it on the trap
    // engine: the realised peak must respect the planned budget within
    // cross-engine tolerance.
    let operating = Environment::new(Volts::new(1.2), Celsius::new(90.0));
    let margin = Millivolts::new(24.0);
    let planner = SchedulePlanner::with_default_models(operating, margin);
    let period: Seconds = Hours::new(24.0).into();
    let horizon = Seconds::new(30.0 * 86_400.0);
    let plan = planner
        .plan(RejuvenationTechnique::Combined, period, horizon)
        .expect("plannable budget");

    let mut rng = StdRng::seed_from_u64(61);
    let mut chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
    let (active, sleep) = plan.alpha.split_cycle(period);
    let mut peak_shift = 0.0f64;
    let fresh = chip.true_cut_delay();
    for _ in 0..30 {
        chip.advance(RoMode::Static, operating, active);
        peak_shift = peak_shift.max((chip.true_cut_delay() - fresh).get());
        chip.advance(RoMode::Sleep, plan.technique.environment(), sleep);
    }
    // Convert the plan's mV budget to path ns through the calibrated β.
    // The 1.5× factor is cross-engine tolerance: the analytic plan is a
    // mean-field prediction, while the realised peak depends on the
    // particular trap population the RNG draws for this chip (observed
    // spread across seeds is roughly ±5 % around ~1.35× the budget).
    let beta = 0.056;
    let budget_ns = margin.get() * beta;
    assert!(
        peak_shift < budget_ns * 1.5,
        "realised peak {peak_shift:.2} ns vs planned budget {budget_ns:.2} ns"
    );
}

#[test]
fn em_is_the_part_no_technique_heals() {
    // Combined BTI + EM on one schedule: after deep rejuvenation the BTI
    // part shrinks but the EM part is exactly where it was.
    let active = DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
    let heal = DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)));

    let mut rng = StdRng::seed_from_u64(62);
    let mut chip = Chip::commercial_40nm(ChipId::new(2), &mut rng);
    let mut wire = Electromigration::new();

    for _ in 0..60 {
        chip.advance(RoMode::Static, active.env(), Hours::new(24.0).into());
        wire.advance(active, Hours::new(24.0).into());
        chip.advance(RoMode::Sleep, heal.env(), Hours::new(6.0).into());
        wire.advance(heal, Hours::new(6.0).into());
    }
    let em_after_schedule = wire.resistance_drift();
    assert!(em_after_schedule.get() > 0.0);

    // A month of pure rejuvenation:
    let before_bti = chip.true_cut_delay();
    chip.advance(RoMode::Sleep, heal.env(), Hours::new(720.0).into());
    wire.advance(heal, Hours::new(720.0).into());
    assert!(chip.true_cut_delay() < before_bti, "BTI healed further");
    assert_eq!(wire.resistance_drift(), em_after_schedule, "EM did not");
}

#[test]
fn odometer_survey_and_cut_array_agree_on_aging() {
    // Place an odometer and a survey array on the same corner and age
    // them identically: both sensors must report aging of the same order.
    let mut rng = StdRng::seed_from_u64(63);
    let family = Family::commercial_40nm();
    let corner = Millivolts::new(5.0);
    let mut odometer = Odometer::sample(&family, corner, &mut rng);
    let mut array = CutArray::sample(&family, corner, 2, 2, &mut rng);

    let hot = Environment::new(Volts::new(1.2), Celsius::new(110.0));
    // Each site is read through the array's shared counter (8 averaged
    // reads), as a survey would.
    let fresh: Vec<f64> = array
        .locations()
        .map(|l| array.measure_at(l, &mut rng).unwrap().get())
        .collect();
    odometer.advance(RoMode::Static, hot, Hours::new(24.0).into());
    array.advance(RoMode::Static, hot, Hours::new(24.0).into());

    let sensed = odometer.read().get();
    let mean_true: f64 = array
        .locations()
        .zip(&fresh)
        .map(|(l, f)| (array.measure_at(l, &mut rng).unwrap().get() - f) / f)
        .sum::<f64>()
        / 4.0;
    assert!(
        (sensed - mean_true).abs() < 0.01,
        "odometer {sensed:.4} vs survey mean {mean_true:.4}"
    );
}

#[test]
fn reactive_closed_loop_and_tdp_capped_multicore_compose() {
    // A reactive, sensor-driven chip controller...
    let mut rng = StdRng::seed_from_u64(64);
    let mut chip = Chip::commercial_40nm(ChipId::new(3), &mut rng);
    let mut odometer = Odometer::sample(&Family::commercial_40nm(), Millivolts::new(0.0), &mut rng);
    let mut policy = ReactivePolicy::new(
        Fraction::new(0.3),
        RejuvenationTechnique::Combined,
        Hours::new(6.0).into(),
    );
    let result = run_closed_loop(
        &mut policy,
        &mut chip,
        &mut odometer,
        &ClosedLoopConfig {
            active_env: Environment::new(Volts::new(1.2), Celsius::new(110.0)),
            sensor_margin: Fraction::new(0.05),
            horizon: Seconds::new(7.0 * 86_400.0),
            step: Hours::new(2.0).into(),
        },
    );
    assert!(result.sleep_events > 0);

    // ...and a TDP-constrained multicore lifetime race, in one scenario.
    let config = SimConfig {
        margin_mv: Millivolts::new(40.0),
        tdp_watts: Some(60.0),
        step: Hours::new(2.0).into(),
        ..SimConfig::default()
    };
    let horizon = Seconds::new(90.0 * 86_400.0);
    let naive = estimate_lifetime(
        config.clone(),
        Box::new(NaiveGating),
        Workload::constant(8),
        horizon,
    );
    let rotate = estimate_lifetime(
        config,
        Box::new(CircadianRotation::paper_default()),
        Workload::constant(8),
        horizon,
    );
    assert!(
        rotate.lifetime_days() >= naive.lifetime_days(),
        "healing never shortens life: {} vs {}",
        naive.lifetime_days(),
        rotate.lifetime_days()
    );
}

#[test]
fn metric_stats_summarise_repeated_closed_loops() {
    // The study tooling composes with any experiment: summarise the final
    // shift of repeated closed-loop runs.
    let shifts: Vec<f64> = (0..5)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
            let mut odometer =
                Odometer::sample(&Family::commercial_40nm(), Millivolts::new(0.0), &mut rng);
            let mut policy = ReactivePolicy::new(
                Fraction::new(0.4),
                RejuvenationTechnique::Combined,
                Hours::new(6.0).into(),
            );
            run_closed_loop(
                &mut policy,
                &mut chip,
                &mut odometer,
                &ClosedLoopConfig {
                    active_env: Environment::new(Volts::new(1.2), Celsius::new(110.0)),
                    sensor_margin: Fraction::new(0.05),
                    horizon: Seconds::new(5.0 * 86_400.0),
                    step: Hours::new(4.0).into(),
                },
            )
            .final_shift
            .get()
        })
        .collect();
    let stats = MetricStats::from_samples(&shifts).unwrap();
    assert!(stats.mean > 0.0);
    assert!(stats.std_dev > 0.0, "populations differ");
    assert!(stats.min <= stats.mean && stats.mean <= stats.max);
}
