//! Closed-loop policy race on real (simulated) silicon: proactive vs
//! reactive rejuvenation, both reading the on-chip odometer — §2.2's
//! trade-off with the sensor in the loop.
//!
//! Run with `cargo run -p selfheal-bench --release --bin closed_loop`.
//! Pass `--json` for the run manifest instead of the human report.

use rand::SeedableRng;
use selfheal::closed_loop::{run_closed_loop, ClosedLoopConfig};
use selfheal::policy::{ProactivePolicy, ReactivePolicy, RecoveryPolicy};
use selfheal::RejuvenationTechnique;
use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_bti::Environment;
use selfheal_fpga::{Chip, ChipId, Family, Odometer};
use selfheal_units::{Celsius, Fraction, Hours, Millivolts, Seconds, Volts};

fn main() {
    let mut run = BenchRun::start("closed_loop");
    run.say("Closed-loop rejuvenation on simulated silicon (30 days @ 110 degC)\n");

    let mut table = Table::new(&[
        "policy",
        "sleep events",
        "time asleep (h)",
        "final shift (ns)",
        "sensor reading (%)",
    ]);

    let mut policies: Vec<Box<dyn RecoveryPolicy>> = vec![
        Box::new(ProactivePolicy::paper_default()),
        Box::new(ReactivePolicy::new(
            Fraction::new(0.5),
            RejuvenationTechnique::Combined,
            Hours::new(6.0).into(),
        )),
    ];

    let mut results = Vec::new();
    for policy in &mut policies {
        // Identical chip + sensor population per policy.
        let mut rng = rand::rngs::StdRng::seed_from_u64(404);
        let mut chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
        let mut odometer =
            Odometer::sample(&Family::commercial_40nm(), Millivolts::new(0.0), &mut rng);
        let result = {
            let _phase = run.phase("policy-race");
            run_closed_loop(
                policy.as_mut(),
                &mut chip,
                &mut odometer,
                &ClosedLoopConfig {
                    active_env: Environment::new(Volts::new(1.2), Celsius::new(110.0)),
                    sensor_margin: Fraction::new(0.05),
                    horizon: Seconds::new(30.0 * 86_400.0),
                    step: Hours::new(2.0).into(),
                },
            )
        };
        table.row(&[
            &result.policy.clone(),
            &result.sleep_events.to_string(),
            &fmt(result.time_asleep.to_hours().get(), 0),
            &fmt(result.final_shift.get(), 3),
            &fmt(result.final_sensor_reading.get() * 100.0, 2),
        ]);
        results.push(result);
    }
    run.table(&table);

    run.say(
        "\npaper SS2.2: the proactive schedule needs no sensing hardware and fires\n\
         predictably; the reactive controller needs the odometer (refs [7, 8]) and\n\
         rides deeper into the margin before each heal. Both keep the chip far\n\
         healthier than never sleeping.",
    );

    run.value("proactive_sleep_events", results[0].sleep_events as f64);
    run.value("reactive_sleep_events", results[1].sleep_events as f64);
    run.value("proactive_final_shift_ns", results[0].final_shift.get());
    run.value("reactive_final_shift_ns", results[1].final_shift.get());
    run.finish("horizon=30d step=2h active=1.2V/110C seed=404");
}
