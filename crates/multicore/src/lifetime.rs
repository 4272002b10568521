//! Lifetime estimation: how long each scheduler keeps the die inside its
//! wear budget — the "extending life time" half of §6.2's closing claim.

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
    // analyzer: allow(test-only-pub) -- §6.2's lifetime-extension claim, read by extension_features and the lifetime tests
    pub fn lifetime_days(&self) -> f64 {
        self.exhausted_after.unwrap_or(self.horizon).get() / 86_400.0
    }
}

/// Runs the simulation until the worst core's shift crosses
/// `config.margin_mv` or `horizon` elapses.
#[must_use]
// analyzer: allow(test-only-pub) -- §6.2's lifetime-extension claim, pinned by extension_features and the lifetime tests
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
        assert!(
            on.exhausted_after.is_some(),
            "always-on exhausts a tight budget"
        );
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
        let factor = rotate.lifetime_days() / naive.lifetime_days();
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
        assert!(estimate.exhausted_after.is_none());
        assert!((estimate.lifetime_days() - 30.0).abs() < 0.5);
        assert!(estimate.final_worst_mv < Millivolts::new(500.0));
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
