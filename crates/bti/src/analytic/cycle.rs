//! Eq. (12)/(13): duty-cycled operation with the active-vs-sleep ratio α,
//! plus a stateful wrapper that carries the first-order model across an
//! arbitrary stress/recovery schedule.

use selfheal_telemetry as telemetry;
use selfheal_units::{float, Millivolts, Ratio, Seconds};

use crate::condition::{DeviceCondition, Phase};

use super::recovery::RecoveryModel;
use super::stress::{StressFactors, StressModel};

/// Stateful first-order BTI model.
///
/// The closed-form counterpart of a stochastic device's
/// [`crate::td::TrapBank`]: it answers the same question (`delta_vth`
/// after an `advance` under a condition), but evolves the closed-form
/// Eqs. (1)–(4) instead of a trap population. Crossing from a recovery
/// phase back into stress resumes the stress curve from the
/// *recovered* level — the unrecovered remainder
/// is carried into the next stress phase and accumulates, reproducing the
/// Fig. 1 sawtooth.
///
/// # Examples
///
/// ```
/// use selfheal_bti::analytic::AnalyticBti;
/// use selfheal_bti::{DeviceCondition, Environment};
/// use selfheal_units::{Celsius, Hours, Volts};
///
/// let mut model = AnalyticBti::default();
/// let stress = DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
/// let heal = DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)));
///
/// model.advance(stress, Hours::new(24.0).into());
/// let aged = model.delta_vth();
/// model.advance(heal, Hours::new(6.0).into());
/// assert!(model.delta_vth().get() < 0.5 * aged.get());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticBti {
    stress: StressModel,
    recovery: RecoveryModel,
    total_mv: f64,
    /// The wear a never-healed twin device would show — the irreversible
    /// component is a fixed fraction of this curve, mirroring the
    /// stochastic engine where permanent traps are a fixed share of the
    /// population that fills along the stress history and never empties.
    virtual_unhealed_mv: f64,
    cumulative_stress: f64,
    recovery_elapsed: f64,
    recovery_start_mv: f64,
}

impl Default for AnalyticBti {
    fn default() -> Self {
        AnalyticBti::new(StressModel::default(), RecoveryModel::default())
    }
}

impl AnalyticBti {
    /// Creates a fresh device governed by the given sub-models.
    #[must_use]
    pub fn new(stress: StressModel, recovery: RecoveryModel) -> Self {
        AnalyticBti {
            stress,
            recovery,
            total_mv: 0.0,
            virtual_unhealed_mv: 0.0,
            cumulative_stress: 0.0,
            recovery_elapsed: 0.0,
            recovery_start_mv: 0.0,
        }
    }

    /// Current total threshold shift.
    #[must_use]
    pub fn delta_vth(&self) -> Millivolts {
        Millivolts::new(self.total_mv)
    }

    /// The irreversible component of the current shift: a fixed fraction
    /// of the wear an identical never-healed device would carry.
    #[must_use]
    pub fn permanent_delta_vth(&self) -> Millivolts {
        Millivolts::new(self.stress.permanent_fraction * self.virtual_unhealed_mv)
    }

    /// Total DC-equivalent stress exposure so far — the `t1` of Eq. (3).
    #[must_use]
    pub fn cumulative_stress(&self) -> Seconds {
        Seconds::new(self.cumulative_stress)
    }

    /// Advances the model by `dt` under a constant condition.
    pub fn advance(&mut self, cond: DeviceCondition, dt: Seconds) {
        if dt.is_zero_or_negative() {
            return;
        }
        let recovery = self.recovery;
        self.step(self.factors(cond), dt.get(), |t2| {
            recovery.eta_numerator(Seconds::new(t2))
        });
        telemetry::counter!("bti.analytic.advance_calls", 1.0);
        telemetry::histogram!("bti.analytic.delta_vth_mv", self.total_mv);
    }

    /// What `cond` contributes to every step under it.
    fn factors(&self, cond: DeviceCondition) -> PhaseFactors {
        match cond.phase() {
            Phase::Stress => PhaseFactors::Stress(self.stress.factors(cond)),
            Phase::Recovery => PhaseFactors::Recovery {
                phi: self.recovery.phi(cond.env()),
            },
        }
    }

    /// One step of `dt > 0` seconds under a condition's factors.
    /// `eta_numerator` maps the sleep time reached to `η`'s numerator
    /// ([`RecoveryModel::eta_numerator`]); only recovery steps call it.
    fn step(&mut self, factors: PhaseFactors, dt: f64, eta_numerator: impl FnOnce(f64) -> f64) {
        match factors {
            PhaseFactors::Stress(f) => self.stress_step(&f, dt),
            PhaseFactors::Recovery { phi } => self.recovery_step(phi, dt, eta_numerator),
        }
    }

    fn stress_step(&mut self, f: &StressFactors, dt: f64) {
        // Re-entering stress: freeze the recovery bookkeeping.
        self.recovery_elapsed = 0.0;
        self.recovery_start_mv = self.total_mv;

        // Resume the stress curve (for this mode's duty cycle) from the
        // point that matches the current shift, then move along it by dt.
        let t_eq = self.stress.factored_equivalent_time(self.delta_vth(), f);
        let new_total = self
            .stress
            .factored_delta_vth(Seconds::new(t_eq.get() + dt), f)
            .get();
        self.total_mv = new_total.max(self.total_mv);
        // The never-healed twin advances along the same curve from its
        // own (higher) level; it feeds the permanent component.
        let t_eq_virtual = self
            .stress
            .factored_equivalent_time(Millivolts::new(self.virtual_unhealed_mv), f);
        self.virtual_unhealed_mv = self
            .stress
            .factored_delta_vth(Seconds::new(t_eq_virtual.get() + dt), f)
            .get()
            .max(self.virtual_unhealed_mv);
        self.cumulative_stress += dt * f.duty;
    }

    fn recovery_step(&mut self, phi: f64, dt: f64, eta_numerator: impl FnOnce(f64) -> f64) {
        if self.recovery_elapsed == 0.0 {
            self.recovery_start_mv = self.total_mv;
        }
        self.recovery_elapsed += dt;
        let after = self.recovery.factored_delta_vth_after(
            Millivolts::new(self.recovery_start_mv),
            self.permanent_delta_vth(),
            Seconds::new(self.cumulative_stress),
            Seconds::new(self.recovery_elapsed),
            phi,
            eta_numerator(self.recovery_elapsed),
        );
        // Recovery must never *increase* the shift (environment changes
        // mid-recovery could otherwise step backwards through φr).
        self.total_mv = after.get().min(self.total_mv);
    }
}

/// What a condition contributes to every step under it, computed once
/// per condition instead of once per step.
#[derive(Debug, Clone, Copy)]
enum PhaseFactors {
    /// A stress condition's duty, AC relief and `φs`.
    Stress(StressFactors),
    /// `φr` of a recovery environment.
    Recovery { phi: f64 },
}

/// One sample of a duty-cycled simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSample {
    /// Wall-clock time since the start of the schedule.
    pub time: Seconds,
    /// Total threshold shift at this instant.
    pub delta_vth: Millivolts,
    /// Which phase the device was in when sampled.
    pub phase: Phase,
}

/// Eq. (12): periodic operation with active fraction `α/(1+α)` under a
/// stress condition and sleep fraction `1/(1+α)` under a recovery
/// condition.
///
/// Produces the Fig. 1 behavioural sawtooth and the Fig. 9 long-run
/// comparison between plain wearout and scheduled accelerated recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleModel {
    /// Active-vs-sleep ratio α.
    pub alpha: Ratio,
    /// One full active+sleep period.
    pub period: Seconds,
    /// Condition during the active sub-phase.
    pub active: DeviceCondition,
    /// Condition during the sleep sub-phase.
    pub sleep: DeviceCondition,
}

impl CycleModel {
    /// Samples per sub-phase in [`Self::run`]; enough to render the
    /// sawtooth smoothly without bloating the series.
    const SAMPLES_PER_PHASE: usize = 8;

    /// Runs `cycles` full periods from a fresh device, returning the
    /// sampled `ΔVth` trajectory (including the `t = 0` fresh point).
    #[must_use]
    pub fn run(&self, cycles: usize) -> Vec<CycleSample> {
        self.run_from(AnalyticBti::default(), cycles)
    }

    /// Runs `cycles` full periods continuing from an existing model state.
    #[must_use]
    pub fn run_from(&self, mut model: AnalyticBti, cycles: usize) -> Vec<CycleSample> {
        let (active_len, sleep_len) = self.alpha.split_cycle(self.period);
        let mut samples = Vec::with_capacity(cycles * Self::SAMPLES_PER_PHASE * 2 + 1);
        let mut now = 0.0;
        samples.push(CycleSample {
            time: Seconds::ZERO,
            delta_vth: model.delta_vth(),
            phase: Phase::Recovery,
        });
        for _ in 0..cycles {
            for (cond, len, phase) in [
                (self.active, active_len, Phase::Stress),
                (self.sleep, sleep_len, Phase::Recovery),
            ] {
                let step = len / Self::SAMPLES_PER_PHASE as f64;
                for _ in 0..Self::SAMPLES_PER_PHASE {
                    model.advance(cond, step);
                    now += step.get();
                    samples.push(CycleSample {
                        time: Seconds::new(now),
                        delta_vth: model.delta_vth(),
                        phase,
                    });
                }
            }
        }
        samples
    }

    /// The largest shift of [`Self::run_from`]'s samples, without
    /// building them: `float::max_of` of the samples' shifts, bit for
    /// bit, NaN included.
    ///
    /// Once that running maximum exceeds `ceiling` the rest of the
    /// schedule cannot bring it back under, so the walk stops and returns
    /// the maximum so far. The result therefore exceeds `ceiling` exactly
    /// when the full peak does, and equals the full peak when it does
    /// not; pass `Millivolts::new(f64::INFINITY)` for the full peak.
    ///
    /// Each condition's factors are computed once, the sleep phase's `η`
    /// numerators once per call (every stress phase restarts the sleep
    /// clock at zero, so the `k`-th sleep step of every cycle sees the
    /// same sleep time), and no step feeds the metrics registry.
    #[must_use]
    pub fn peak(&self, mut model: AnalyticBti, cycles: usize, ceiling: Millivolts) -> Millivolts {
        const STEPS: usize = CycleModel::SAMPLES_PER_PHASE;
        let (active_len, sleep_len) = self.alpha.split_cycle(self.period);
        let phases = [
            (model.factors(self.active), active_len / STEPS as f64),
            (model.factors(self.sleep), sleep_len / STEPS as f64),
        ];
        let recovery = model.recovery;
        // (sleep time, η numerator) after each sleep step from zero; a
        // step whose sleep time differs (no stress phase restarted the
        // clock) computes its own numerator.
        let mut sleep_clock = [(0.0, 0.0); STEPS];
        let mut t2 = 0.0;
        for entry in &mut sleep_clock {
            t2 += phases[1].1.get();
            *entry = (t2, recovery.eta_numerator(Seconds::new(t2)));
        }
        let mut peak = model.total_mv;
        for _ in 0..cycles {
            for (factors, step) in phases {
                // The k-th step of either phase carries the k-th entry.
                for &(clock, numerator) in &sleep_clock {
                    if !step.is_zero_or_negative() {
                        model.step(factors, step.get(), |t2| {
                            if t2.to_bits() == clock.to_bits() {
                                numerator
                            } else {
                                recovery.eta_numerator(Seconds::new(t2))
                            }
                        });
                    }
                    peak = float::max_total(peak, model.total_mv);
                }
                if peak > ceiling.get() {
                    return Millivolts::new(peak);
                }
            }
        }
        Millivolts::new(peak)
    }

    /// The shift at the end of the schedule (last sample of [`Self::run`]).
    #[must_use]
    pub fn final_delta_vth(&self, cycles: usize) -> Millivolts {
        self.run(cycles)
            .last()
            .map(|s| s.delta_vth)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Environment;
    use selfheal_units::{Celsius, Hours, Volts};

    fn stress_cond() -> DeviceCondition {
        DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)))
    }

    fn heal_cond() -> DeviceCondition {
        DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)))
    }

    fn passive_cond() -> DeviceCondition {
        DeviceCondition::recovery(Environment::new(Volts::new(0.0), Celsius::new(20.0)))
    }

    #[test]
    fn fresh_model_has_no_shift() {
        let m = AnalyticBti::default();
        assert_eq!(m.delta_vth().get(), 0.0);
        assert_eq!(m.permanent_delta_vth().get(), 0.0);
        assert_eq!(m.cumulative_stress(), Seconds::ZERO);
    }

    #[test]
    fn stress_steps_compose() {
        // 24 × 1 h must equal 1 × 24 h under a constant condition.
        let mut one = AnalyticBti::default();
        one.advance(stress_cond(), Hours::new(24.0).into());
        let mut many = AnalyticBti::default();
        for _ in 0..24 {
            many.advance(stress_cond(), Hours::new(1.0).into());
        }
        assert!((one.delta_vth().get() - many.delta_vth().get()).abs() < 1e-6);
    }

    #[test]
    fn recovery_steps_compose() {
        let mut one = AnalyticBti::default();
        one.advance(stress_cond(), Hours::new(24.0).into());
        let mut many = one.clone();

        one.advance(heal_cond(), Hours::new(6.0).into());
        for _ in 0..6 {
            many.advance(heal_cond(), Hours::new(1.0).into());
        }
        assert!((one.delta_vth().get() - many.delta_vth().get()).abs() < 1e-9);
    }

    #[test]
    fn sawtooth_accumulates_residual() {
        // Repeated stress/recover cycles must trend upward (Fig. 1): the
        // unrecovered part adds to the next stress phase.
        let model = CycleModel {
            alpha: Ratio::PAPER_ALPHA,
            period: Hours::new(30.0).into(),
            active: stress_cond(),
            sleep: heal_cond(),
        };
        let one = model.final_delta_vth(1).get();
        let three = model.final_delta_vth(3).get();
        let six = model.final_delta_vth(6).get();
        assert!(one > 0.0);
        assert!(three > one);
        assert!(six > three);
        // ...but sub-linearly (deep rejuvenation keeps margins in check).
        assert!(six < 4.0 * one, "six cycles = {six}, one cycle = {one}");
    }

    #[test]
    fn accelerated_sleep_beats_passive_sleep_over_cycles() {
        let mk = |sleep| CycleModel {
            alpha: Ratio::PAPER_ALPHA,
            period: Hours::new(30.0).into(),
            active: stress_cond(),
            sleep,
        };
        let healed = mk(heal_cond()).final_delta_vth(5).get();
        let passive = mk(passive_cond()).final_delta_vth(5).get();
        assert!(healed < passive, "{healed} vs {passive}");
    }

    #[test]
    fn run_sample_count_and_monotone_time() {
        let model = CycleModel {
            alpha: Ratio::PAPER_ALPHA,
            period: Hours::new(30.0).into(),
            active: stress_cond(),
            sleep: heal_cond(),
        };
        let series = model.run(2);
        assert_eq!(series.len(), 2 * 16 + 1);
        for pair in series.windows(2) {
            assert!(pair[1].time.get() > pair[0].time.get());
        }
        let total: f64 = series.last().unwrap().time.get();
        assert!((total - 2.0 * 30.0 * 3600.0).abs() < 1e-6);
    }

    #[test]
    fn permanent_grows_only_under_stress() {
        let mut m = AnalyticBti::default();
        m.advance(stress_cond(), Hours::new(24.0).into());
        let p1 = m.permanent_delta_vth().get();
        assert!(p1 > 0.0);
        m.advance(heal_cond(), Hours::new(24.0).into());
        let p2 = m.permanent_delta_vth().get();
        assert!(
            (p1 - p2).abs() < 1e-12,
            "healing must not touch permanent damage"
        );
    }

    #[test]
    fn shift_never_drops_below_permanent() {
        let mut m = AnalyticBti::default();
        m.advance(stress_cond(), Hours::new(48.0).into());
        m.advance(heal_cond(), Hours::new(10_000.0).into());
        assert!(m.delta_vth().get() >= m.permanent_delta_vth().get() - 1e-9);
    }

    #[test]
    fn ac_stress_milder_than_dc() {
        let mut dc = AnalyticBti::default();
        dc.advance(stress_cond(), Hours::new(24.0).into());
        let mut ac = AnalyticBti::default();
        ac.advance(
            DeviceCondition::ac_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0))),
            Hours::new(24.0).into(),
        );
        let ratio = ac.delta_vth().get() / dc.delta_vth().get();
        assert!(ratio > 0.15 && ratio < 0.45, "AC/DC = {ratio}");
    }

    #[test]
    fn zero_dt_is_noop() {
        let mut m = AnalyticBti::default();
        m.advance(stress_cond(), Hours::new(1.0).into());
        let before = m.clone();
        m.advance(heal_cond(), Seconds::ZERO);
        m.advance(stress_cond(), Seconds::new(-1.0));
        assert_eq!(m, before);
    }
}
