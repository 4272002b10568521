//! Eq. (1)/(2): first-order wearout under stress.

use selfheal_units::{ElectronVolts, Millivolts, PerSecond, PerVolt, Seconds};

use crate::condition::{DeviceCondition, Environment};
use crate::constants::{reference_stress_voltage, reference_temperature};

/// The paper's stress-phase model:
///
/// ```text
/// ΔVth(t) = A · φs(V, T) · log(1 + Cs·t)          (Eq. 1)
/// φs(V,T) = exp(E0/k·(1/Tref − 1/T)) · exp(Bs·(V − Vref))   (Eq. 2, normalised)
/// ```
///
/// `φs` is normalised to `1` at the reference condition (110 °C, 1.2 V),
/// so `amplitude` is directly the log-slope scale of the headline
/// accelerated-stress experiments. The paper treats `A` and `C` as
/// "approximately constant" fitting parameters — exactly how they are used
/// here and in `selfheal::fitting`.
///
/// # Examples
///
/// ```
/// use selfheal_bti::analytic::StressModel;
/// use selfheal_bti::Environment;
/// use selfheal_units::{Celsius, Hours, Volts};
///
/// let model = StressModel::default();
/// let env = Environment::new(Volts::new(1.2), Celsius::new(110.0));
/// let day: selfheal_units::Seconds = Hours::new(24.0).into();
/// let shift = model.delta_vth(day, env);
/// assert!(shift.get() > 20.0 && shift.get() < 60.0, "{shift}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressModel {
    /// `A`: overall magnitude at the reference condition.
    pub amplitude: Millivolts,
    /// `Cs`: sets where the log ramp begins.
    pub log_rate_per_s: PerSecond,
    /// Fraction of newly inflicted shift that is irreversible.
    pub permanent_fraction: f64,
    /// *Effective* activation energy of the measured degradation
    /// amplitude. Smaller than the microscopic capture barrier because the
    /// log-time trap dynamics compress rate changes into small amplitude
    /// changes; 0.25 eV reproduces the modest Fig. 5 temperature gap.
    pub thermal_activation: ElectronVolts,
    /// Effective voltage acceleration of the amplitude.
    pub voltage_gain_per_volt: PerVolt,
}

impl Default for StressModel {
    /// Calibrated so 24 h DC at 110 °C/1.2 V inflicts ≈ 38 mV, matching the
    /// stochastic engine's defaults and the paper's ≈ 2.3 % delay shift.
    fn default() -> Self {
        StressModel {
            amplitude: Millivolts::new(5.6),
            log_rate_per_s: PerSecond::new(1e-2),
            permanent_fraction: 0.05,
            thermal_activation: ElectronVolts::new(0.25),
            voltage_gain_per_volt: PerVolt::new(2.5),
        }
    }
}

impl StressModel {
    /// Exponent of the amplitude's sub-linear duty response, calibrated so
    /// the per-device AC/DC ratio matches the stochastic engine's ≈ 0.25
    /// (which in turn yields the paper's path-level "AC ≈ half of DC").
    pub const AC_RELIEF_EXPONENT: f64 = 1.7;

    /// The environment acceleration factor `φs`, normalised to `1` at
    /// 110 °C / 1.2 V.
    #[must_use]
    pub fn phi(&self, env: Environment) -> f64 {
        // exp(E0/k·(1/Tref − 1/T)) expressed as a ratio of Boltzmann
        // factors, so the activation energy carries its eV dimension.
        let thermal = self.thermal_activation.boltzmann_factor(env.temperature())
            / self
                .thermal_activation
                .boltzmann_factor(reference_temperature());
        let dv = env.supply() - reference_stress_voltage();
        thermal * (self.voltage_gain_per_volt * dv).exp()
    }

    /// Threshold shift after `t` of *continuous DC* stress from fresh
    /// (Eq. 1). Negative times are treated as zero.
    #[must_use]
    pub fn delta_vth(&self, t: Seconds, env: Environment) -> Millivolts {
        self.curve(t, self.phi(env))
    }

    /// Eq. (1) with `φs` already evaluated.
    fn curve(&self, t: Seconds, phi: f64) -> Millivolts {
        let t = Seconds::new(t.get().max(0.0));
        Millivolts::new(self.amplitude.get() * phi * (1.0 + self.log_rate_per_s * t).ln())
    }

    /// The factors a stress condition contributes to every step under it:
    /// its duty, the AC relief `duty^1.7` and `φs`.
    #[must_use]
    pub(super) fn factors(&self, cond: DeviceCondition) -> StressFactors {
        let duty = cond.stress_duty().get();
        StressFactors {
            duty,
            relief: duty.powf(Self::AC_RELIEF_EXPONENT),
            phi: self.phi(cond.env()),
        }
    }

    /// Threshold shift under an arbitrary duty cycle, with the
    /// condition's factors given: the paper's AC mode simply scales the
    /// effective stress exposure (§5.1.1 observes AC degradation ≈ half
    /// of DC).
    #[must_use]
    pub(super) fn factored_delta_vth(&self, t: Seconds, f: &StressFactors) -> Millivolts {
        if f.duty <= 0.0 {
            return Millivolts::new(0.0);
        }
        // Effective stress time scales with duty; the sub-linear amplitude
        // factor accounts for intra-cycle recovery, which keeps shallow
        // traps from ever reaching their DC equilibrium under AC stress.
        // The exponent is calibrated to §5.1.1's "AC degradation is about
        // half of DC".
        let base = self.curve(Seconds::new(t.get() * f.duty), f.phi);
        Millivolts::new(base.get() * f.relief)
    }

    /// Inverts [`Self::factored_delta_vth`]: the wall-clock time under
    /// the condition with factors `f` that would produce `delta` from
    /// fresh.
    ///
    /// Returns zero for non-positive shifts or a zero duty cycle.
    #[must_use]
    pub(super) fn factored_equivalent_time(&self, delta: Millivolts, f: &StressFactors) -> Seconds {
        let d = delta.get();
        if d <= 0.0 || f.duty <= 0.0 {
            return Seconds::ZERO;
        }
        let x = d / (f.relief * self.amplitude.get() * f.phi);
        (x.exp() - 1.0) / (self.log_rate_per_s * f.duty)
    }
}

/// What a stress condition contributes to every step under it, computed
/// once per condition: [`StressModel::factors`].
#[derive(Debug, Clone, Copy)]
pub(super) struct StressFactors {
    /// The condition's stress duty.
    pub(super) duty: f64,
    /// `duty^1.7`, the intra-cycle relief of AC stress.
    relief: f64,
    /// `φs` of the condition's environment.
    phi: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::{Celsius, Hours, Volts};

    fn env(v: f64, t: f64) -> Environment {
        Environment::new(Volts::new(v), Celsius::new(t))
    }

    #[test]
    fn phi_is_one_at_reference() {
        let m = StressModel::default();
        assert!((m.phi(env(1.2, 110.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shift_grows_logarithmically() {
        let m = StressModel::default();
        let e = env(1.2, 110.0);
        let d1 = m.delta_vth(Seconds::new(1e3), e).get();
        let d2 = m.delta_vth(Seconds::new(1e4), e).get();
        let d3 = m.delta_vth(Seconds::new(1e5), e).get();
        assert!(d1 < d2 && d2 < d3);
        // Per-decade increments converge for t ≫ 1/C.
        let inc1 = d2 - d1;
        let inc2 = d3 - d2;
        assert!((inc1 - inc2).abs() / inc2 < 0.2, "{inc1} vs {inc2}");
    }

    #[test]
    fn hotter_is_worse() {
        let m = StressModel::default();
        let day: Seconds = Hours::new(24.0).into();
        let cool = m.delta_vth(day, env(1.2, 100.0)).get();
        let hot = m.delta_vth(day, env(1.2, 110.0)).get();
        assert!(hot > cool);
        assert!(hot / cool < 1.4, "gap should be modest like Fig. 5");
    }

    #[test]
    fn higher_supply_is_worse() {
        let m = StressModel::default();
        let day: Seconds = Hours::new(24.0).into();
        assert!(m.delta_vth(day, env(1.3, 110.0)) > m.delta_vth(day, env(1.2, 110.0)));
    }

    #[test]
    fn ac_per_device_is_about_a_quarter_of_dc() {
        let m = StressModel::default();
        let day: Seconds = Hours::new(24.0).into();
        let with_duty = |cond| m.factored_delta_vth(day, &m.factors(cond)).get();
        let dc = with_duty(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let ac = with_duty(DeviceCondition::ac_stress(env(1.2, 110.0)));
        let ratio = ac / dc;
        // Per-device ratio; at the path level DC stresses only about half
        // the devices, so this maps to the paper's path-level ≈ 0.5.
        assert!(ratio > 0.15 && ratio < 0.4, "AC/DC = {ratio}");
    }

    #[test]
    fn zero_duty_inflicts_nothing() {
        let m = StressModel::default();
        let day: Seconds = Hours::new(24.0).into();
        let none =
            m.factored_delta_vth(day, &m.factors(DeviceCondition::recovery(env(0.0, 110.0))));
        assert_eq!(none.get(), 0.0);
    }

    #[test]
    fn equivalent_time_round_trips() {
        let m = StressModel::default();
        let dc = m.factors(DeviceCondition::dc_stress(env(1.2, 110.0)));
        for t in [1e2, 1e3, 1e4, 86_400.0] {
            let d = m.factored_delta_vth(Seconds::new(t), &dc);
            let t_back = m.factored_equivalent_time(d, &dc);
            assert!(
                (t_back.get() - t).abs() / t < 1e-9,
                "t = {t}, t_back = {}",
                t_back.get()
            );
        }
    }

    #[test]
    fn equivalent_time_of_zero_shift_is_zero() {
        let m = StressModel::default();
        let dc = m.factors(DeviceCondition::dc_stress(env(1.2, 110.0)));
        assert_eq!(
            m.factored_equivalent_time(Millivolts::new(0.0), &dc),
            Seconds::ZERO
        );
        assert_eq!(
            m.factored_equivalent_time(Millivolts::new(-3.0), &dc),
            Seconds::ZERO
        );
    }

    #[test]
    fn negative_time_treated_as_fresh() {
        let m = StressModel::default();
        assert_eq!(m.delta_vth(Seconds::new(-10.0), env(1.2, 110.0)).get(), 0.0);
    }

    #[test]
    fn calibration_target_24h() {
        let m = StressModel::default();
        let day: Seconds = Hours::new(24.0).into();
        let d = m.delta_vth(day, env(1.2, 110.0)).get();
        assert!(d > 30.0 && d < 50.0, "24 h @110 °C shift = {d} mV");
    }
}
