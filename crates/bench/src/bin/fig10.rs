//! Fig. 10 / §6.2 — multi-core self-healing: sleeping cores heated by
//! active neighbours, and scheduler comparison over months of operation.
//!
//! Run with `cargo run -p selfheal-bench --release --bin fig10`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_multicore::scheduler::{
    AlwaysOn, CircadianRotation, HeaterAware, NaiveGating, Scheduler,
};
use selfheal_multicore::sim::{MulticoreSim, SimConfig};
use selfheal_multicore::thermal::ThermalGrid;
use selfheal_multicore::workload::Workload;
use selfheal_multicore::Floorplan;

fn main() {
    let mut run = BenchRun::start("fig10");
    run.say("Fig. 10: Multi-core system self-healing\n");

    // Part 1 — the illustration itself: cores 3 and 7 asleep, everyone
    // else burning 10 W; the sleepers sit far above ambient.
    let plan = Floorplan::eight_core();
    let grid = ThermalGrid::default_package(plan.clone());
    let powers = [10.0, 10.0, 0.0, 10.0, 10.0, 10.0, 0.0, 10.0];
    let temps = {
        let _phase = run.phase("thermal-illustration");
        grid.temperatures(&powers)
    };

    run.say("On-chip heaters (cores 3 and 7 asleep, neighbours active):\n");
    let mut heat = Table::new(&["Core", "State", "Power (W)", "T (degC)"]);
    for (i, t) in temps.iter().enumerate() {
        heat.row(&[
            &format!("Core {}", i + 1),
            if powers[i] > 0.0 { "active" } else { "Zzz" },
            &fmt(powers[i], 0),
            &fmt(t.get(), 1),
        ]);
    }
    run.table(&heat);
    run.say(format!(
        "\nambient is {}; the sleeping cores are heated ~{} degC above it for free.\n",
        grid.ambient(),
        fmt(temps[2].get() - grid.ambient().get(), 0)
    ));

    // Part 2 — the scheduler race: 180 days at demand 6-of-8.
    run.say("Scheduler comparison (180 days, constant demand of 6 of 8 cores):\n");
    let days = 180.0;
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(AlwaysOn),
        Box::new(NaiveGating),
        Box::new(CircadianRotation::paper_default()),
        Box::new(HeaterAware::paper_default()),
    ];
    let mut race = Table::new(&[
        "Scheduler",
        "Worst core dVth (mV)",
        "Mean dVth (mV)",
        "Spread (mV)",
        "Worst margin used (%)",
        "Energy (core-days)",
    ]);
    let mut results = Vec::new();
    {
        let _phase = run.phase("scheduler-race");
        for scheduler in schedulers {
            let mut sim = MulticoreSim::new(SimConfig::default(), scheduler, Workload::constant(6));
            let report = sim.run_days(days);
            race.row(&[
                &report.scheduler.clone(),
                &fmt(report.worst_delta_vth_mv.get(), 2),
                &fmt(report.mean_delta_vth_mv.get(), 2),
                &fmt(report.wear_spread_mv().get(), 2),
                &fmt(report.worst_margin_consumed.get() * 100.0, 1),
                &fmt(report.active_core_seconds / 86_400.0, 0),
            ]);
            results.push(report);
        }
    }
    run.table(&race);

    let naive = &results[1];
    let heater = &results[3];
    run.say("\n--- shape check (paper §6.2) ---");
    run.say(format!(
        "healing-aware scheduling cuts the worst-core shift to {} of naive gating\n\
         ({} vs {} mV) at identical served demand.",
        fmt(heater.worst_delta_vth_mv / naive.worst_delta_vth_mv, 2),
        fmt(heater.worst_delta_vth_mv.get(), 1),
        fmt(naive.worst_delta_vth_mv.get(), 1),
    ));
    run.say(
        "\npaper: \"Combining the proposed accelerated techniques with existing core\n\
         scheduling methods can bring a huge benefit for extending life time and\n\
         relaxing design margin of multi-core systems.\"",
    );

    run.value(
        "sleeper_heating_degc",
        temps[2].get() - grid.ambient().get(),
    );
    run.value("naive_worst_dvth_mv", naive.worst_delta_vth_mv.get());
    run.value("heater_worst_dvth_mv", heater.worst_delta_vth_mv.get());
    run.value(
        "heater_over_naive",
        heater.worst_delta_vth_mv / naive.worst_delta_vth_mv,
    );
    run.finish("floorplan=eight_core days=180 demand=6of8 schedulers=4");
}
