//! Lifetime estimation: how long each scheduler keeps the die inside its
//! wear budget — the "extending life time" half of §6.2's closing claim.

use selfheal_runtime as runtime;
use selfheal_units::{float, Millivolts, Seconds};

use crate::scheduler::Scheduler;
use crate::sim::{MulticoreSim, SimConfig};
use crate::workload::Workload;

/// Result of running a scheduler until its worst core exhausts the wear
/// budget (or the horizon expires first).
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeEstimate {
    /// The scheduler under test.
    pub scheduler: String,
    /// Time until the worst core crossed the budget, if it did.
    pub exhausted_after: Option<Seconds>,
    /// The evaluation horizon.
    pub horizon: Seconds,
    /// Worst-core shift at the end (of exhaustion or horizon).
    pub final_worst_mv: Millivolts,
}

impl LifetimeEstimate {
    /// Lifetime in days, using the horizon as a lower bound for survivors.
    #[must_use]
    pub fn lifetime_days(&self) -> f64 {
        self.exhausted_after.unwrap_or(self.horizon).get() / 86_400.0
    }

    /// Whether the die survived the whole horizon.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.exhausted_after.is_none()
    }
}

/// Runs the simulation until the worst core's shift crosses
/// `config.margin_mv` or `horizon` elapses.
pub fn estimate_lifetime(
    config: SimConfig,
    scheduler: Box<dyn Scheduler>,
    workload: Workload,
    horizon: Seconds,
) -> LifetimeEstimate {
    let margin = config.margin_mv;
    let mut sim = MulticoreSim::new(config, scheduler, workload);
    let mut exhausted_after = None;
    while sim.now() < horizon {
        sim.step();
        let worst = float::max_of(sim.wear().iter().map(|m| m.get())).unwrap_or(0.0);
        if worst >= margin.get() {
            exhausted_after = Some(sim.now());
            break;
        }
    }
    let report = sim.report();
    LifetimeEstimate {
        scheduler: report.scheduler,
        exhausted_after,
        horizon,
        final_worst_mv: report.worst_delta_vth_mv,
    }
}

/// One entry of a lifetime sweep: a labeled scheduler/workload/config
/// combination for [`estimate_lifetimes`].
pub struct LifetimeCase {
    /// Label carried through to the result (e.g. the scheduler name).
    pub label: String,
    /// Simulation configuration.
    pub config: SimConfig,
    /// Scheduler under test. `Send` so the sweep can cross threads.
    pub scheduler: Box<dyn Scheduler + Send>,
    /// Workload trace.
    pub workload: Workload,
    /// Evaluation horizon.
    pub horizon: Seconds,
}

impl std::fmt::Debug for LifetimeCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifetimeCase")
            .field("label", &self.label)
            .field("config", &self.config)
            .field("workload", &self.workload)
            .field("horizon", &self.horizon)
            .finish_non_exhaustive()
    }
}

/// Runs a sweep of lifetime estimates concurrently on the
/// `selfheal-runtime` global pool.
///
/// Each case is an independent deterministic simulation (no RNG), so the
/// results — returned in input order, paired with their labels — are
/// identical to calling [`estimate_lifetime`] in a loop, at any worker
/// count.
#[must_use]
pub fn estimate_lifetimes(cases: Vec<LifetimeCase>) -> Vec<(String, LifetimeEstimate)> {
    // Caller-side root span: keeps the pool's internal spans nested, so
    // manifests list the same phases at any worker count.
    let _span = selfheal_telemetry::span!("multicore.lifetime_sweep", cases = cases.len());
    runtime::par_map(cases, |case| {
        let estimate = estimate_lifetime(case.config, case.scheduler, case.workload, case.horizon);
        (case.label, estimate)
    })
}

/// Lifetime-extension factor of `candidate` over `baseline` (both capped
/// at the horizon; a factor of exactly 1.0 with both surviving means the
/// horizon was too short to separate them).
#[must_use]
pub fn extension_factor(baseline: &LifetimeEstimate, candidate: &LifetimeEstimate) -> f64 {
    candidate.lifetime_days() / baseline.lifetime_days().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{AlwaysOn, CircadianRotation, NaiveGating};
    use selfheal_units::Hours;

    fn tight_config() -> SimConfig {
        // A margin tight enough that the unhealed schedulers exhaust it
        // within the test horizon, but above the healed steady state so
        // rotation buys real lifetime. (Active cores on a busy die run
        // 90–110 °C here, so wear is fast.)
        SimConfig {
            margin_mv: Millivolts::new(40.0),
            step: Hours::new(2.0).into(),
            ..SimConfig::default()
        }
    }

    fn horizon() -> Seconds {
        Seconds::new(120.0 * 86_400.0)
    }

    #[test]
    fn always_on_dies_first() {
        let on = estimate_lifetime(
            tight_config(),
            Box::new(AlwaysOn),
            Workload::constant(6),
            horizon(),
        );
        let naive = estimate_lifetime(
            tight_config(),
            Box::new(NaiveGating),
            Workload::constant(6),
            horizon(),
        );
        assert!(!on.survived(), "always-on exhausts a tight budget");
        assert!(
            on.lifetime_days() <= naive.lifetime_days(),
            "gating can only help: {} vs {}",
            on.lifetime_days(),
            naive.lifetime_days()
        );
    }

    #[test]
    fn healing_extends_lifetime() {
        let naive = estimate_lifetime(
            tight_config(),
            Box::new(NaiveGating),
            Workload::constant(6),
            horizon(),
        );
        let rotate = estimate_lifetime(
            tight_config(),
            Box::new(CircadianRotation::paper_default()),
            Workload::constant(6),
            horizon(),
        );
        let factor = extension_factor(&naive, &rotate);
        assert!(
            factor > 1.2,
            "rotation should extend lifetime: {}x ({} vs {} days)",
            factor,
            naive.lifetime_days(),
            rotate.lifetime_days()
        );
    }

    #[test]
    fn survivors_report_the_horizon_bound() {
        let generous = SimConfig {
            margin_mv: Millivolts::new(500.0),
            step: Hours::new(6.0).into(),
            ..SimConfig::default()
        };
        let estimate = estimate_lifetime(
            generous,
            Box::new(CircadianRotation::paper_default()),
            Workload::constant(6),
            Seconds::new(30.0 * 86_400.0),
        );
        assert!(estimate.survived());
        assert!((estimate.lifetime_days() - 30.0).abs() < 0.5);
        assert!(estimate.final_worst_mv < Millivolts::new(500.0));
    }

    #[test]
    fn parallel_sweep_matches_individual_estimates() {
        let sweep = estimate_lifetimes(vec![
            LifetimeCase {
                label: "always-on".to_string(),
                config: tight_config(),
                scheduler: Box::new(AlwaysOn),
                workload: Workload::constant(6),
                horizon: horizon(),
            },
            LifetimeCase {
                label: "rotation".to_string(),
                config: tight_config(),
                scheduler: Box::new(CircadianRotation::paper_default()),
                workload: Workload::constant(6),
                horizon: horizon(),
            },
        ]);
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].0, "always-on");
        assert_eq!(sweep[1].0, "rotation");
        let solo = estimate_lifetime(
            tight_config(),
            Box::new(AlwaysOn),
            Workload::constant(6),
            horizon(),
        );
        assert_eq!(sweep[0].1, solo, "sweep result identical to the loop");
    }

    #[test]
    fn exhaustion_time_is_step_resolved() {
        let estimate = estimate_lifetime(
            tight_config(),
            Box::new(AlwaysOn),
            Workload::constant(8),
            horizon(),
        );
        let t = estimate.exhausted_after.expect("exhausts");
        // Reported at a step boundary.
        let steps = t.get() / tight_config().step.get();
        assert!((steps - steps.round()).abs() < 1e-9);
    }
}
