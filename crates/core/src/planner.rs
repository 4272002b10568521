//! Circadian schedule planning — the paper's §7 outlook made executable:
//! "Since the time before the next scheduled deep rejuvenation is known in
//! advance, there is a good opportunity for ... cross-layer optimization."
//!
//! Given the operating condition, a wear budget and a rejuvenation
//! technique, the planner finds the **smallest sleep share** (largest α)
//! whose steady-state peak shift stays inside the budget — i.e. how little
//! throughput must be sacrificed to hold a given margin, or conversely how
//! much margin a given rhythm buys back.

use std::ops::Range;

use selfheal_bti::analytic::{AnalyticBti, CycleModel, RecoveryModel, StressModel};
use selfheal_bti::td::{PhaseRates, Rhythm, RhythmPhase, TrapBank};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{DutyCycle, Millivolts, Ratio, Seconds};

use crate::technique::RejuvenationTechnique;

/// A planned circadian rhythm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejuvenationPlan {
    /// The chosen active-vs-sleep ratio.
    pub alpha: Ratio,
    /// The sleep treatment the plan assumes.
    pub technique: RejuvenationTechnique,
    /// The full day/night period.
    pub period: Seconds,
    /// Predicted worst shift over the horizon under this plan.
    pub predicted_peak: Millivolts,
    /// Whether the schedule opens with one sleep phase before its first
    /// cycle, and the margin applies from the end of that sleep: how a
    /// chip already over its budget is planned back under it.
    pub recover_first: bool,
}

/// The planner: first-order models plus the operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulePlanner {
    stress: StressModel,
    recovery: RecoveryModel,
    active_env: Environment,
    margin: Millivolts,
}

impl SchedulePlanner {
    /// Creates a planner for a circuit operating at `active_env` with a
    /// total threshold-shift budget of `margin`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive margin.
    #[must_use]
    pub fn new(
        stress: StressModel,
        recovery: RecoveryModel,
        active_env: Environment,
        margin: Millivolts,
    ) -> Self {
        assert!(margin.get() > 0.0, "margin must be positive");
        SchedulePlanner {
            stress,
            recovery,
            active_env,
            margin,
        }
    }

    /// A planner with the default calibrated models.
    #[must_use]
    pub fn with_default_models(active_env: Environment, margin: Millivolts) -> Self {
        SchedulePlanner::new(
            StressModel::default(),
            RecoveryModel::default(),
            active_env,
            margin,
        )
    }

    /// The planner's threshold-shift budget.
    #[must_use]
    pub fn margin(&self) -> Millivolts {
        self.margin
    }

    /// Peak shift over `horizon` when running a rhythm with ratio `alpha`
    /// and the given technique.
    #[must_use]
    pub fn predicted_peak(
        &self,
        alpha: Ratio,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Millivolts {
        self.probe(
            alpha,
            technique,
            period,
            cycles(period, horizon),
            Millivolts::new(f64::INFINITY),
        )
    }

    /// The peak of the rhythm `alpha` over `cycles` periods, exact up to
    /// `ceiling` ([`CycleModel::peak`]).
    fn probe(
        &self,
        alpha: Ratio,
        technique: RejuvenationTechnique,
        period: Seconds,
        cycles: usize,
        ceiling: Millivolts,
    ) -> Millivolts {
        let model = CycleModel {
            alpha,
            period,
            active: DeviceCondition::dc_stress(self.active_env),
            sleep: DeviceCondition::recovery(technique.environment()),
        };
        model.peak(
            AnalyticBti::new(self.stress, self.recovery),
            cycles,
            ceiling,
        )
    }

    /// Whether running with **no** rejuvenation at all stays within the
    /// budget over the horizon (if so, no plan is needed).
    #[must_use]
    pub fn unhealed_peak(&self, horizon: Seconds) -> Millivolts {
        let mut device = AnalyticBti::new(self.stress, self.recovery);
        device.advance(DeviceCondition::dc_stress(self.active_env), horizon);
        device.delta_vth()
    }

    /// Finds the largest α (least sleep) whose predicted peak stays inside
    /// the margin over `horizon`, searching α ∈ [0.5, 64] by bisection on
    /// the sleep fraction.
    ///
    /// Returns `None` when even the most generous rhythm tried (α = 0.5,
    /// i.e. sleeping twice as long as working) cannot hold the budget —
    /// the designer must then add margin or derate the operating point.
    #[must_use]
    pub fn plan(
        &self,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Option<RejuvenationPlan> {
        self.plan_within(self.margin, technique, period, horizon)
    }

    /// The bisection behind [`plan`](Self::plan) and
    /// [`plan_with_consumed`](Self::plan_with_consumed), against `budget`.
    ///
    /// Every probe runs with `budget` as its ceiling, so a rhythm that
    /// breaks the budget stops simulating as soon as it does; a rhythm
    /// that holds it runs in full, and the last one to hold it is the
    /// plan, peak included.
    fn plan_within(
        &self,
        budget: Millivolts,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Option<RejuvenationPlan> {
        let cycles = cycles(period, horizon);
        let (alpha, predicted_peak) = search_alpha(|alpha| {
            let peak = self.probe(alpha, technique, period, cycles, budget);
            (peak.get() <= budget.get()).then_some(peak)
        })?;
        Some(RejuvenationPlan {
            alpha,
            technique,
            period,
            predicted_peak,
            recover_first: false,
        })
    }

    /// The margin still unspent after `consumed` mV of shift, or `None`
    /// once the budget is exhausted (the chip is already out of spec —
    /// no rhythm can plan its way back below a budget it has crossed).
    ///
    /// Only [`plan_with_consumed`](Self::plan_with_consumed) uses it; the
    /// fleet daemon no longer calls either.
    #[must_use]
    pub fn remaining_margin(&self, consumed: Millivolts) -> Option<Millivolts> {
        let left = self.margin.get() - consumed.get();
        (left > 0.0).then(|| Millivolts::new(left))
    }

    /// [`plan`](Self::plan) against the budget that remains after the
    /// chip has already consumed `consumed` mV of its margin.
    ///
    /// It plans a *fresh* analytic device at DC against what is left,
    /// whatever duty the chip runs at and however its traps are filled.
    /// Returns `None` when the budget is already spent or no rhythm in
    /// the search window can hold the remainder. The fleet daemon no
    /// longer calls it: it plans each chip on its own trap slice with
    /// [`plan_from_bank`](Self::plan_from_bank). Benchmarks still time
    /// it.
    #[must_use]
    pub fn plan_with_consumed(
        &self,
        consumed: Millivolts,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Option<RejuvenationPlan> {
        let remaining = self.remaining_margin(consumed)?;
        self.plan_within(remaining, technique, period, horizon)
    }

    /// Plans one chip from its own trap slice: the largest α in
    /// [0.5, 64] whose rhythm, run from the slice's current occupancies
    /// with the chip's `duty` while active and the technique's
    /// environment asleep, keeps [`TrapBank::rhythm_bound`] inside the
    /// whole margin (the slice already holds the chip's wear). The
    /// search is [`plan`](Self::plan)'s bisection on the sleep fraction,
    /// except that it probes α = 64 first.
    ///
    /// When no α holds the budget from the chip's current state, the
    /// same search runs on recover-first rhythms: one sleep phase opens
    /// the schedule and the margin applies from its end. A plan found
    /// that way has [`recover_first`](RejuvenationPlan::recover_first)
    /// set. `None` means neither holds the budget even at α = 0.5.
    ///
    /// The reply's `predicted_peak` is the bound at the chosen α. Each
    /// probe costs two `exp` and a few multiply-adds per trap and cycle.
    ///
    /// # Panics
    ///
    /// Panics if `traps` ends past the bank.
    #[must_use]
    pub fn plan_from_bank(
        &self,
        bank: &TrapBank,
        traps: Range<usize>,
        duty: DutyCycle,
        technique: RejuvenationTechnique,
        period: Seconds,
        horizon: Seconds,
    ) -> Option<RejuvenationPlan> {
        let active = PhaseRates::for_condition(DeviceCondition::new(self.active_env, duty));
        let sleep = PhaseRates::for_condition(DeviceCondition::recovery(technique.environment()));
        let cycles = cycles(period, horizon);
        let mut sums = vec![0.0; 2 * cycles + 1];
        let mut search = |opening_sleep: bool| {
            let fitting_peak = |alpha: Ratio| {
                let (active_len, sleep_len) = alpha.split_cycle(period);
                let rhythm = Rhythm {
                    active: RhythmPhase {
                        rates: active,
                        len: active_len,
                    },
                    sleep: RhythmPhase {
                        rates: sleep,
                        len: sleep_len,
                    },
                    cycles,
                    opening_sleep,
                };
                let peak = bank.rhythm_bound(traps.clone(), &rhythm, self.margin, &mut sums);
                (peak.get() <= self.margin.get()).then_some(peak)
            };
            search_alpha(fitting_peak)
        };
        let (recover_first, (alpha, predicted_peak)) = match search(false) {
            Some(fit) => (false, fit),
            None => (true, search(true)?),
        };
        Some(RejuvenationPlan {
            alpha,
            technique,
            period,
            predicted_peak,
            recover_first,
        })
    }

    /// The shift a chip's trap slice would reach after running `dt`
    /// under `cond`, projected forward from the live bank state
    /// ([`TrapBank::projected_delta_vth`]: the bank is read in place,
    /// never copied or touched).
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank.
    #[must_use]
    pub fn predicted_shift_from_bank(
        &self,
        bank: &TrapBank,
        range: Range<usize>,
        cond: DeviceCondition,
        dt: Seconds,
    ) -> Millivolts {
        bank.projected_delta_vth(range, &PhaseRates::for_condition(cond), dt)
    }
}

/// The most sleep a plan asks for: α = 0.5. It survives the round trip
/// through its sleep fraction (1 / (2/3) − 1 is exactly 0.5), so when no
/// bisection probe fits, the plan is this probe's.
fn alpha_min() -> Ratio {
    planner_alpha(0.5)
}

/// The least sleep a plan asks for: α = 64.
fn alpha_max() -> Ratio {
    planner_alpha(64.0)
}

/// The α search of every plan: α = 64 when it fits, else nothing when
/// α = 0.5 does not, else the bisection.
fn search_alpha(
    mut fitting_peak: impl FnMut(Ratio) -> Option<Millivolts>,
) -> Option<(Ratio, Millivolts)> {
    if let Some(peak) = fitting_peak(alpha_max()) {
        return Some((alpha_max(), peak));
    }
    let fit = (alpha_min(), fitting_peak(alpha_min())?);
    Some(bisect(fit, fitting_peak))
}

/// Bisects on the sleep fraction s = 1/(1+α), monotone in wear, between
/// α = 64 (too little sleep) and α = 0.5 (enough: `fit` holds its
/// peak), 40 times; returns the last α that fits and its peak.
fn bisect(
    mut fit: (Ratio, Millivolts),
    mut fitting_peak: impl FnMut(Ratio) -> Option<Millivolts>,
) -> (Ratio, Millivolts) {
    let mut s_lo = alpha_max().sleep_fraction().get();
    let mut s_hi = alpha_min().sleep_fraction().get();
    for _ in 0..40 {
        let s_mid = 0.5 * (s_lo + s_hi);
        let alpha = planner_alpha(1.0 / s_mid - 1.0);
        if let Some(peak) = fitting_peak(alpha) {
            s_hi = s_mid;
            fit = (alpha, peak);
        } else {
            s_lo = s_mid;
        }
    }
    fit
}

/// How many whole periods cover `horizon` (at least one).
fn cycles(period: Seconds, horizon: Seconds) -> usize {
    (horizon.get() / period.get()).ceil().max(1.0) as usize
}

/// Builds a [`Ratio`] from an α value the planner derived itself.
///
/// The search keeps every candidate in `[0.5, 64]` with a sleep fraction
/// strictly inside `(0, 1)`, so construction cannot fail.
fn planner_alpha(value: f64) -> Ratio {
    match Ratio::new(value) {
        Some(alpha) => alpha,
        None => unreachable!("planner-internal α must be positive and finite, got {value}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::{Celsius, Hours, Volts};

    fn planner(margin: f64) -> SchedulePlanner {
        SchedulePlanner::with_default_models(
            Environment::new(Volts::new(1.2), Celsius::new(90.0)),
            Millivolts::new(margin),
        )
    }

    fn year() -> Seconds {
        Seconds::new(365.0 * 86_400.0)
    }

    fn day_period() -> Seconds {
        Hours::new(24.0).into()
    }

    #[test]
    fn plan_meets_its_own_budget() {
        let p = planner(24.0);
        let plan = p
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .expect("a combined-technique rhythm can hold 24 mV");
        assert!(plan.predicted_peak.get() <= 24.0 + 1e-6);
        assert!(plan.alpha.get() >= 0.5);
    }

    #[test]
    fn tighter_budget_needs_more_sleep() {
        let loose = planner(24.8)
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .unwrap();
        let tight = planner(22.0)
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .unwrap();
        assert!(
            tight.alpha.get() < loose.alpha.get(),
            "tight budget α {} < loose budget α {}",
            tight.alpha.get(),
            loose.alpha.get()
        );
        assert!(tight.alpha.active_fraction().get() < loose.alpha.active_fraction().get());
    }

    #[test]
    fn better_technique_buys_availability() {
        let margin = 24.0;
        let combined = planner(margin)
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .expect("combined holds it");
        if let Some(passive) =
            planner(margin).plan(RejuvenationTechnique::PassiveGating, day_period(), year())
        {
            assert!(
                combined.alpha.get() >= passive.alpha.get(),
                "deep rejuvenation needs no more sleep than passive gating"
            );
        }
        // Either passive can't hold the budget at all, or it needs ≥ sleep.
    }

    #[test]
    fn impossible_budgets_return_none() {
        // Even sleeping twice as long as working cannot hold 15 mV at
        // this operating point; and the permanent component alone blows a
        // sub-millivolt budget.
        for margin in [15.0, 0.5] {
            let p = planner(margin);
            assert!(p
                .plan(RejuvenationTechnique::Combined, day_period(), year())
                .is_none());
        }
    }

    #[test]
    fn generous_budget_needs_no_sleep_to_speak_of() {
        let p = planner(500.0);
        let plan = p
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .unwrap();
        assert!(plan.alpha.get() >= 60.0, "α = {}", plan.alpha.get());
        assert!(plan.alpha.active_fraction().get() > 0.97);
    }

    #[test]
    fn unhealed_peak_exceeds_any_planned_peak() {
        let p = planner(24.0);
        let plan = p
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .unwrap();
        assert!(p.unhealed_peak(year()).get() > plan.predicted_peak.get());
    }

    #[test]
    #[should_panic(expected = "margin must be positive")]
    fn rejects_nonpositive_margin() {
        let _ = planner(0.0);
    }

    #[test]
    fn consumed_margin_shrinks_the_plan() {
        let p = planner(26.0);
        let fresh = p
            .plan(RejuvenationTechnique::Combined, day_period(), year())
            .expect("fresh chip plans");
        let worn = p
            .plan_with_consumed(
                Millivolts::new(3.0),
                RejuvenationTechnique::Combined,
                day_period(),
                year(),
            )
            .expect("3 mV of wear still leaves a feasible budget");
        assert!(
            worn.alpha.get() < fresh.alpha.get(),
            "a worn chip must sleep more: worn α {} vs fresh α {}",
            worn.alpha.get(),
            fresh.alpha.get()
        );
        // A chip past its whole budget cannot plan at all.
        assert!(p
            .plan_with_consumed(
                Millivolts::new(26.0),
                RejuvenationTechnique::Combined,
                day_period(),
                year()
            )
            .is_none());
        assert_eq!(p.remaining_margin(Millivolts::new(30.0)), None);
    }

    #[test]
    fn bank_views_agree_with_scalar_entry_points() {
        use rand::SeedableRng;
        use selfheal_bti::td::TrapEnsembleParams;

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let bank = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng);
        let p = planner(26.0);

        // The projection advances a copy: the bank itself must not move,
        // and the projected shift matches advancing the slice directly.
        let cond =
            DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(90.0)));
        let dt: Seconds = Hours::new(24.0).into();
        let before = bank.clone();
        let projected = p.predicted_shift_from_bank(&bank, 0..bank.len(), cond, dt);
        assert_eq!(bank, before, "projection must not mutate the live bank");
        let mut direct = bank.clone();
        direct.advance_all(&PhaseRates::for_condition(cond), dt);
        assert_eq!(
            projected.get().to_bits(),
            direct.delta_vth().get().to_bits()
        );
        // A chip's slice of a larger bank projects like the chip alone.
        let mut shard = bank.clone();
        shard.extend(TrapEnsembleParams::default().sample_traps(&mut rng));
        let sliced = p.predicted_shift_from_bank(&shard, 0..bank.len(), cond, dt);
        assert_eq!(sliced.get().to_bits(), projected.get().to_bits());
    }
}
