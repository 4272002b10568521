//! Cross-crate integration of the laboratory workflow: chips mounted in
//! harnesses, schedules built from Table 1, error handling across
//! instrument boundaries.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_fpga::{Chip, ChipId};
use selfheal_testbench::cases::{self, TestCase};
use selfheal_testbench::{HarnessError, PhaseSpec, Schedule, TestHarness};
use selfheal_units::{Celsius, Hours, Minutes, Seconds, Volts};

fn harness(seed: u64) -> (TestHarness, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
    (TestHarness::new(chip), rng)
}

#[test]
fn every_table1_case_converts_to_a_valid_spec() {
    for case in cases::table1() {
        let spec = case.to_phase_spec();
        assert!(spec.validate().is_ok(), "{} invalid: {spec:?}", case.name);
        assert_eq!(spec.name, case.name);
    }
}

#[test]
fn a_full_chip5_session_runs_end_to_end() {
    // Chip 5's real chronology: burn-in, 24 h stress, 6 h heal, 48 h
    // re-stress, 12 h heal — the longest session in the paper.
    let (mut harness, mut rng) = harness(50);
    let by_name = |name: &str| -> TestCase {
        cases::table1()
            .into_iter()
            .find(|c| c.name == name && c.chip == ChipId::new(5))
            .unwrap()
    };
    let schedule: Schedule = [
        PhaseSpec::burn_in(),
        by_name("AS110DC24").to_phase_spec(),
        by_name("AR110N6").to_phase_spec(),
        by_name("AS110DC48").to_phase_spec(),
        by_name("AR110N12").to_phase_spec(),
    ]
    .into_iter()
    .collect();

    let results = harness
        .run_schedule(&schedule, &mut rng)
        .expect("session runs");
    assert_eq!(results.len(), 5);

    // 2 + 24 + 6 + 48 + 12 = 92 hours of chamber time.
    assert!((harness.total_elapsed().to_hours().get() - 92.0).abs() < 1e-6);

    // Delays: each stress phase ends slower than it starts; each recovery
    // phase ends faster than it starts.
    for (i, result) in results.iter().enumerate() {
        let first = result.records.first().unwrap().measurement.cut_delay;
        let last = result.records.last().unwrap().measurement.cut_delay;
        match i {
            1 | 3 => assert!(last > first, "{}: stress slows", result.name),
            2 | 4 => assert!(last < first, "{}: healing speeds up", result.name),
            _ => {}
        }
    }

    // The second stress starts from the healed level, not from fresh —
    // Fig. 1's accumulation across cycles.
    let healed_after_first = results[2].records.last().unwrap().measurement.cut_delay;
    let restress_start = results[3].records.first().unwrap().measurement.cut_delay;
    assert!((healed_after_first.get() - restress_start.get()).abs() < 0.05);
}

#[test]
fn records_carry_consistent_timing_metadata() {
    let (mut h, mut rng) = harness(51);
    let spec = PhaseSpec::dc_stress_phase(
        Celsius::new(110.0),
        Hours::new(3.0).into(),
        Minutes::new(20.0).into(),
    );
    let records = h.run_phase(&spec, &mut rng).unwrap();
    assert_eq!(records.len(), 10);
    for pair in records.windows(2) {
        let dt = pair[1].elapsed_in_phase - pair[0].elapsed_in_phase;
        assert!((dt.get() - 20.0 * 60.0).abs() < 1e-9);
        let global = pair[1].total_elapsed - pair[0].total_elapsed;
        assert!((global.get() - dt.get()).abs() < 1e-9);
    }
    for r in &records {
        assert_eq!(r.temperature_setpoint, Celsius::new(110.0));
        assert_eq!(r.supply, Volts::new(1.2));
    }
}

#[test]
fn instrument_limits_surface_as_typed_errors() {
    let (mut h, mut rng) = harness(52);

    // Chamber limit.
    let too_hot = PhaseSpec::dc_stress_phase(
        Celsius::new(400.0),
        Hours::new(1.0).into(),
        Minutes::new(20.0).into(),
    );
    assert!(matches!(
        h.run_phase(&too_hot, &mut rng),
        Err(HarnessError::Chamber(_))
    ));

    // Supply limit (below pn-junction breakdown guard).
    let mut too_negative = PhaseSpec::recovery_phase(
        Volts::new(-0.9),
        Celsius::new(110.0),
        Hours::new(1.0).into(),
        Minutes::new(30.0).into(),
    );
    too_negative.supply = Volts::new(-0.9);
    assert!(matches!(
        h.run_phase(&too_negative, &mut rng),
        Err(HarnessError::Supply(_))
    ));

    // Spec error.
    let mut degenerate = PhaseSpec::burn_in();
    degenerate.duration = Seconds::ZERO;
    let err = h.run_phase(&degenerate, &mut rng).unwrap_err();
    assert!(matches!(err, HarnessError::InvalidSpec(_)));
    assert!(!err.to_string().is_empty());
}

#[test]
fn harness_errors_implement_std_error_with_sources() {
    let (mut h, mut rng) = harness(53);
    let too_hot = PhaseSpec::dc_stress_phase(
        Celsius::new(400.0),
        Hours::new(1.0).into(),
        Minutes::new(20.0).into(),
    );
    let err = h.run_phase(&too_hot, &mut rng).unwrap_err();
    let as_std: &dyn std::error::Error = &err;
    assert!(as_std.source().is_some(), "chamber error is chained");
}

#[test]
fn chips_can_be_unmounted_and_remounted() {
    let (mut h, mut rng) = harness(54);
    let spec = PhaseSpec::dc_stress_phase(
        Celsius::new(110.0),
        Hours::new(6.0).into(),
        Hours::new(2.0).into(),
    );
    h.run_phase(&spec, &mut rng).unwrap();
    let aged_delay = h.chip().true_cut_delay();

    // Move the chip to a different bench; its state travels with it.
    let chip = h.into_chip();
    assert_eq!(chip.true_cut_delay(), aged_delay);
    let mut second_bench = TestHarness::new(chip);
    let heal = PhaseSpec::recovery_phase(
        Volts::new(-0.3),
        Celsius::new(110.0),
        Hours::new(2.0).into(),
        Minutes::new(30.0).into(),
    );
    second_bench.run_phase(&heal, &mut rng).unwrap();
    assert!(second_bench.chip().true_cut_delay() < aged_delay);
}
