//! Fig. 1 — behavioural illustration of stress and recovery: the ΔVth
//! sawtooth with a rising floor (the unrecovered part accumulates).
//!
//! Run with `cargo run -p selfheal-bench --release --bin fig1`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{fmt, sparkline, BenchRun, Table};
use selfheal_bti::analytic::CycleModel;
use selfheal_bti::{DeviceCondition, Environment, Phase};
use selfheal_units::{Celsius, Hours, Ratio, Volts};

fn main() {
    let mut run = BenchRun::start("fig1");
    run.say("Fig. 1: Behavioural illustration of stress and recovery\n");

    let model = CycleModel {
        alpha: Ratio::PAPER_ALPHA,
        period: Hours::new(30.0).into(),
        active: DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0))),
        sleep: DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0))),
    };
    let series = {
        let _phase = run.phase("sawtooth");
        model.run(3)
    };

    let mut table = Table::new(&["t (h)", "phase", "dVth (mV)"]);
    for sample in series.iter().step_by(2) {
        let phase = match sample.phase {
            Phase::Stress => "stress",
            Phase::Recovery => "recovery",
        };
        table.row(&[
            &fmt(sample.time.to_hours().get(), 1),
            phase,
            &fmt(sample.delta_vth.get(), 2),
        ]);
    }
    run.table(&table);

    let values: Vec<f64> = series.iter().map(|s| s.delta_vth.get()).collect();
    run.say(format!("\nshape: {}", sparkline(&values)));

    // The paper's qualitative claims for this figure:
    let peaks: Vec<f64> = series
        .chunks(16) // one cycle = 8 stress + 8 recovery samples
        .filter_map(|cycle| {
            cycle
                .iter()
                .map(|s| s.delta_vth.get())
                .fold(None, |acc: Option<f64>, v| {
                    Some(acc.map_or(v, |a| a.max(v)))
                })
        })
        .collect();
    let floors: Vec<f64> = series
        .chunks(16)
        .filter_map(|cycle| cycle.last().map(|s| s.delta_vth.get()))
        .collect();
    run.say(format!(
        "cycle peaks  (mV): {:?}",
        peaks.iter().map(|v| fmt(*v, 1)).collect::<Vec<_>>()
    ));
    run.say(format!(
        "cycle floors (mV): {:?}",
        floors.iter().map(|v| fmt(*v, 1)).collect::<Vec<_>>()
    ));
    run.say(
        "\npaper: recovery is partial, so the floor rises cycle to cycle while deep\n\
         rejuvenation keeps the envelope far below monotonic wearout.",
    );

    run.value("final_peak_mv", peaks.last().copied().unwrap_or(0.0));
    run.value("final_floor_mv", floors.last().copied().unwrap_or(0.0));
    run.finish("alpha=4 period_h=30 cycles=3 stress=1.2V/110C sleep=-0.3V/110C");
}
