//! Model extraction, the paper's Table 3 workflow: measure a chip through
//! stress and recovery, fit the first-order Eq. (10)/(11) forms to the
//! measurements, then check the fitted model *predicts* a different
//! condition it never saw.
//!
//! Run with `cargo run --release --example model_fitting`.

use rand::SeedableRng;
use selfheal::fitting::{FittedRecoveryCurve, FittedStressCurve};
use selfheal::metrics::{degradation_series, recovery_series};
use selfheal_fpga::{Chip, ChipId};
use selfheal_testbench::{PhaseSpec, TestHarness};
use selfheal_units::{Celsius, Hours, Minutes, Seconds, Volts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let chip = Chip::commercial_40nm(ChipId::new(2), &mut rng);
    let mut harness = TestHarness::new(chip);

    // --- measure a 24 h stress phase and extract (beta, C) ---
    let stress_spec = PhaseSpec::dc_stress_phase(
        Celsius::new(110.0),
        Hours::new(24.0).into(),
        Minutes::new(20.0).into(),
    );
    let stress_records = harness.run_phase(&stress_spec, &mut rng)?;
    let stress_points: Vec<(Seconds, selfheal_units::Nanoseconds)> =
        degradation_series(&stress_records)
            .iter()
            .map(|p| (p.elapsed, p.delay_shift))
            .collect();
    let stress_fit = FittedStressCurve::fit(&stress_points).expect("informative series");
    println!(
        "Eq. (10) fit:  dTd(t) = {:.4} * ln(1 + {:.2e} * t)   [RMSE {:.4} ns]",
        stress_fit.beta_ns, stress_fit.c_per_s, stress_fit.rmse_ns
    );

    // --- measure a 6 h recovery phase and extract (a, b, c) ---
    let fresh = stress_records[0].measurement.cut_delay;
    let recovery_spec = PhaseSpec::recovery_phase(
        Volts::new(-0.3),
        Celsius::new(110.0),
        Hours::new(6.0).into(),
        Minutes::new(30.0).into(),
    );
    let recovery_records = harness.run_phase(&recovery_spec, &mut rng)?;
    let recovery_points: Vec<(Seconds, selfheal_units::Nanoseconds)> =
        recovery_series(&recovery_records, fresh)
            .iter()
            .map(|p| (p.elapsed, p.recovered_delay))
            .collect();
    let recovery_fit =
        FittedRecoveryCurve::fit(&recovery_points, Hours::new(24.0).into()).expect("fit");
    println!(
        "Eq. (11) fit:  RD(t2) = {:.4} * ln(1+{:.2e}*t2) / (1 + {:.3}*ln(1+{:.2e}*(t1+t2)))   [RMSE {:.4} ns]",
        recovery_fit.a_ns, recovery_fit.c_per_s, recovery_fit.b, recovery_fit.c_per_s,
        recovery_fit.rmse_ns
    );

    // --- validation: predict the first 3 h of a SECOND stress round the
    //     model never saw (the chip is now partially healed). ---
    println!("\nvalidation against a fresh 12 h re-stress (unseen data):");
    let residual = harness.measure(&mut rng).cut_delay;
    let restress = PhaseSpec::dc_stress_phase(
        Celsius::new(110.0),
        Hours::new(12.0).into(),
        Hours::new(2.0).into(),
    );
    let restress_records = harness.run_phase(&restress, &mut rng)?;

    // Resume the fitted curve from the point matching the residual shift.
    let resume = ((residual - fresh).get() / stress_fit.beta_ns).exp_m1() / stress_fit.c_per_s;
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "t (h)", "measured (ns)", "model (ns)", "err (%)"
    );
    for record in restress_records.iter().step_by(2) {
        let measured = (record.measurement.cut_delay - fresh).get();
        let modelled = stress_fit
            .predict(Seconds::new(resume + record.elapsed_in_phase.get()))
            .get();
        println!(
            "{:>8.1} {:>14.3} {:>14.3} {:>10.1}",
            record.elapsed_in_phase.to_hours().get(),
            measured,
            modelled,
            100.0 * (modelled - measured) / measured.max(1e-9)
        );
    }
    println!(
        "\none parameter set per condition reproduces both the fitted curve and the\n\
         unseen continuation — the paper's criterion for the first-order model."
    );
    Ok(())
}
