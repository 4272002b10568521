//! The multi-core aging race: drive per-core aging models under a
//! scheduler, a workload and the thermal network, for months of simulated
//! time.

use selfheal_bti::analytic::AnalyticBti;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_telemetry as telemetry;
use selfheal_units::{float, Fraction, Hours, Millivolts, Seconds, Volts};

use crate::floorplan::Floorplan;
use crate::scheduler::Scheduler;
use crate::thermal::ThermalGrid;
use crate::workload::Workload;

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The die layout.
    pub floorplan: Floorplan,
    /// Power draw of an active core, watts.
    pub active_power_w: f64,
    /// Power draw of a sleeping core, watts (leakage; ≈ 0 when gated).
    pub sleep_power_w: f64,
    /// Core supply while active.
    pub active_supply: Volts,
    /// Scheduling interval.
    pub step: Seconds,
    /// Per-core threshold-shift budget for margin accounting.
    pub margin_mv: Millivolts,
    /// Optional thermal design power cap in watts (§6.2: "for saving
    /// energy or for abiding by TDP limitations"). When set, the number
    /// of simultaneously active cores is capped at `tdp / active_power` —
    /// the dark-silicon constraint that guarantees sleepers exist for the
    /// healing schedulers to rotate through.
    pub tdp_watts: Option<f64>,
}

impl Default for SimConfig {
    /// An 8-core, 10 W/core die scheduled hourly against a 45 mV wear
    /// budget.
    fn default() -> Self {
        SimConfig {
            floorplan: Floorplan::eight_core(),
            active_power_w: 10.0,
            sleep_power_w: 0.0,
            active_supply: Volts::new(1.2),
            step: Hours::new(1.0).into(),
            margin_mv: Millivolts::new(45.0),
            tdp_watts: None,
        }
    }
}

/// End-of-run summary for one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// The scheduler that produced this system state.
    pub scheduler: String,
    /// Simulated span in days.
    pub days: f64,
    /// Threshold shift of the worst core (the system's critical margin).
    pub worst_delta_vth_mv: Millivolts,
    /// Mean threshold shift across cores.
    pub mean_delta_vth_mv: Millivolts,
    /// Per-core shifts, in core order.
    pub per_core_mv: Vec<Millivolts>,
    /// Worst core's margin consumption.
    pub worst_margin_consumed: Fraction,
    /// Core-seconds of useful work delivered.
    // analyzer: allow(bare-physical-f64) -- compound unit (core·s), no newtype yet
    pub served_core_seconds: f64,
    /// Core-seconds of energy burned (active cores × time), the energy
    /// proxy that separates always-on from the demand-following policies.
    // analyzer: allow(bare-physical-f64) -- compound unit (core·s), no newtype yet
    pub active_core_seconds: f64,
}

impl SystemReport {
    /// Spread between the worst and best core — fixed-preference gating
    /// concentrates wear (large spread); rotation balances it.
    #[must_use]
    pub fn wear_spread_mv(&self) -> Millivolts {
        let max = float::max_of(self.per_core_mv.iter().map(|mv| mv.get()));
        let min = float::min_of(self.per_core_mv.iter().map(|mv| mv.get()));
        match (max, min) {
            (Some(max), Some(min)) => Millivolts::new(max - min),
            _ => Millivolts::ZERO,
        }
    }
}

/// The simulator. See the crate-level example.
pub struct MulticoreSim {
    config: SimConfig,
    thermal: ThermalGrid,
    scheduler: Box<dyn Scheduler>,
    workload: Workload,
    cores: Vec<AnalyticBti>,
    now: Seconds,
    served: f64,
    active_time: f64,
}

// Not derivable: `Box<dyn Scheduler>` carries no `Debug` bound.
impl std::fmt::Debug for MulticoreSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulticoreSim")
            .field("config", &self.config)
            .field("scheduler", &self.scheduler.name())
            .field("workload", &self.workload)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl MulticoreSim {
    /// Builds a simulator with the default package thermals.
    #[must_use]
    pub fn new(config: SimConfig, scheduler: Box<dyn Scheduler>, workload: Workload) -> Self {
        let thermal = ThermalGrid::default_package(config.floorplan.clone());
        let cores = (0..config.floorplan.len())
            .map(|_| AnalyticBti::default())
            .collect();
        MulticoreSim {
            config,
            thermal,
            scheduler,
            workload,
            cores,
            now: Seconds::ZERO,
            served: 0.0,
            active_time: 0.0,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Current per-core threshold shifts.
    #[must_use]
    pub fn wear(&self) -> Vec<Millivolts> {
        self.cores.iter().map(AnalyticBti::delta_vth).collect()
    }

    /// The largest number of cores the TDP budget allows to run at once.
    #[must_use]
    pub fn tdp_core_cap(&self) -> usize {
        match self.config.tdp_watts {
            Some(tdp) if self.config.active_power_w > 0.0 => {
                (tdp / self.config.active_power_w).floor() as usize
            }
            _ => self.config.floorplan.len(),
        }
    }

    /// Advances the system by one scheduling interval.
    pub fn step(&mut self) {
        let n = self.config.floorplan.len();
        let demand = self
            .workload
            .demand(self.now, n)
            .min(self.tdp_core_cap());
        let wear = self.wear();
        let active = self
            .scheduler
            .assign(self.now, demand, &self.config.floorplan, &wear);
        debug_assert_eq!(active.len(), n);

        let powers: Vec<f64> = active
            .iter()
            .map(|a| {
                if *a {
                    self.config.active_power_w
                } else {
                    self.config.sleep_power_w
                }
            })
            .collect();
        let temps = self.thermal.temperatures(&powers);

        let dt = self.config.step;
        let sleep_supply = self.scheduler.sleep_supply();
        for (i, core) in self.cores.iter_mut().enumerate() {
            let cond = if active[i] {
                DeviceCondition::dc_stress(Environment::new(self.config.active_supply, temps[i]))
            } else {
                DeviceCondition::recovery(Environment::new(sleep_supply, temps[i]))
            };
            core.advance(cond, dt);
        }

        let active_count = active.iter().filter(|a| **a).count();
        self.served += (active_count.min(demand)) as f64 * dt.get();
        self.active_time += active_count as f64 * dt.get();
        self.now += dt;

        telemetry::event!(
            "multicore.scheduler.decision",
            t_s = self.now.get(),
            demand = demand,
            active = active_count,
            scheduler = self.scheduler.name()
        );
        telemetry::counter!("multicore.sim.steps", 1.0);
        if telemetry::metrics::enabled() {
            let worst = float::max_of(self.cores.iter().map(|c| c.delta_vth().get()))
                .unwrap_or(0.0);
            telemetry::metrics::histogram_observe("multicore.worst_delta_vth_mv", worst);
            let hottest = float::max_of(temps.iter().map(|t| t.get())).unwrap_or(0.0);
            telemetry::metrics::histogram_observe("multicore.hottest_core_celsius", hottest);
        }
    }

    /// Runs for (at least) the given number of days and reports.
    pub fn run_days(&mut self, days: f64) -> SystemReport {
        let horizon = Seconds::new(days * 24.0 * 3600.0);
        while self.now < horizon {
            self.step();
        }
        self.report()
    }

    /// Snapshot report of the current state.
    #[must_use]
    pub fn report(&self) -> SystemReport {
        let per_core: Vec<Millivolts> =
            self.cores.iter().map(AnalyticBti::delta_vth).collect();
        let worst = float::max_of(per_core.iter().map(|mv| mv.get()))
            .unwrap_or(0.0)
            .max(0.0);
        let mean =
            per_core.iter().map(|mv| mv.get()).sum::<f64>() / per_core.len().max(1) as f64;
        SystemReport {
            scheduler: self.scheduler.name().to_string(),
            days: self.now.get() / 86_400.0,
            worst_delta_vth_mv: Millivolts::new(worst),
            mean_delta_vth_mv: Millivolts::new(mean),
            per_core_mv: per_core,
            worst_margin_consumed: Fraction::new(worst / self.config.margin_mv.get()),
            served_core_seconds: self.served,
            active_core_seconds: self.active_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{AlwaysOn, CircadianRotation, HeaterAware, NaiveGating};

    fn race(scheduler: Box<dyn Scheduler>, days: f64) -> SystemReport {
        let mut sim = MulticoreSim::new(SimConfig::default(), scheduler, Workload::constant(6));
        sim.run_days(days)
    }

    #[test]
    fn always_on_ages_worst() {
        let on = race(Box::new(AlwaysOn), 30.0);
        let rotate = race(Box::new(CircadianRotation::paper_default()), 30.0);
        assert!(
            on.worst_delta_vth_mv > rotate.worst_delta_vth_mv,
            "{} vs {}",
            on.worst_delta_vth_mv,
            rotate.worst_delta_vth_mv
        );
        // Always-on also burns the most energy.
        assert!(on.active_core_seconds > rotate.active_core_seconds);
    }

    #[test]
    fn naive_gating_concentrates_wear() {
        let naive = race(Box::new(NaiveGating), 30.0);
        let rotate = race(Box::new(CircadianRotation::paper_default()), 30.0);
        // Fixed preference: cores 0–5 worn, 6–7 nearly fresh ⇒ big spread.
        assert!(
            naive.wear_spread_mv() > 3.0 * rotate.wear_spread_mv(),
            "naive spread {} vs rotation spread {}",
            naive.wear_spread_mv(),
            rotate.wear_spread_mv()
        );
    }

    #[test]
    fn healing_rotation_beats_naive_gating_on_worst_core() {
        let naive = race(Box::new(NaiveGating), 30.0);
        let rotate = race(Box::new(CircadianRotation::paper_default()), 30.0);
        assert!(
            rotate.worst_delta_vth_mv < naive.worst_delta_vth_mv,
            "rotation {} vs naive {}",
            rotate.worst_delta_vth_mv,
            naive.worst_delta_vth_mv
        );
        // Both served the same demand.
        assert!((rotate.served_core_seconds - naive.served_core_seconds).abs() < 1.0);
    }

    #[test]
    fn heater_aware_at_least_matches_rotation() {
        let rotate = race(Box::new(CircadianRotation::paper_default()), 30.0);
        let heater = race(Box::new(HeaterAware::paper_default()), 30.0);
        assert!(
            heater.worst_delta_vth_mv <= rotate.worst_delta_vth_mv * 1.1,
            "heater-aware {} vs rotation {}",
            heater.worst_delta_vth_mv,
            rotate.worst_delta_vth_mv
        );
    }

    #[test]
    fn report_accounting_is_consistent() {
        let r = race(Box::new(CircadianRotation::paper_default()), 10.0);
        assert!((r.days - 10.0).abs() < 0.1);
        assert_eq!(r.per_core_mv.len(), 8);
        let served_upper = 6.0 * 10.0 * 86_400.0;
        assert!((r.served_core_seconds - served_upper).abs() < 1.0);
        assert!(r.worst_margin_consumed.get() > 0.0);
        assert!(r.mean_delta_vth_mv <= r.worst_delta_vth_mv);
    }

    #[test]
    fn tdp_cap_forces_dark_silicon() {
        let capped = SimConfig {
            tdp_watts: Some(50.0), // 5 of 8 cores at 10 W
            ..SimConfig::default()
        };
        let mut sim = MulticoreSim::new(
            capped,
            Box::new(CircadianRotation::paper_default()),
            Workload::constant(8), // asks for everything
        );
        assert_eq!(sim.tdp_core_cap(), 5);
        let report = sim.run_days(10.0);
        // Served work is TDP-bound, not demand-bound.
        let expected = 5.0 * 10.0 * 86_400.0;
        assert!((report.served_core_seconds - expected).abs() < 1.0);
        // And the forced sleepers heal: less wear than an uncapped run.
        let mut uncapped = MulticoreSim::new(
            SimConfig::default(),
            Box::new(CircadianRotation::paper_default()),
            Workload::constant(8),
        );
        let free = uncapped.run_days(10.0);
        assert!(report.worst_delta_vth_mv < free.worst_delta_vth_mv);
    }

    #[test]
    fn no_tdp_means_no_cap() {
        let sim = MulticoreSim::new(
            SimConfig::default(),
            Box::new(CircadianRotation::paper_default()),
            Workload::constant(6),
        );
        assert_eq!(sim.tdp_core_cap(), 8);
    }

    #[test]
    fn diurnal_workload_gives_night_healing() {
        let mut day_sim = MulticoreSim::new(
            SimConfig::default(),
            Box::new(CircadianRotation::paper_default()),
            Workload::diurnal(2, 8),
        );
        let diurnal = day_sim.run_days(30.0);
        let flat = race(Box::new(CircadianRotation::paper_default()), 30.0);
        // The diurnal system (mean demand ≈ 5, with deep night troughs)
        // ends up healthier than the constant-6 system.
        assert!(
            diurnal.worst_delta_vth_mv < flat.worst_delta_vth_mv,
            "{} vs {}",
            diurnal.worst_delta_vth_mv,
            flat.worst_delta_vth_mv
        );
    }
}
