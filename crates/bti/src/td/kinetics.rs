//! Voltage and temperature acceleration of trap capture and emission.
//!
//! Trap time constants are tabulated at the reference condition
//! (110 °C, 1.2 V stress). These functions return the *rate multipliers*
//! that convert a tabulated rate `1/τ₀` into the effective rate under an
//! arbitrary condition:
//!
//! * **Capture** (Eq. 2 structure): Arrhenius in temperature, exponential
//!   in the oxide field, and proportional to the stress duty cycle (a gate
//!   that is only stressed half the time captures at half the average
//!   rate — this is what makes AC stress milder than DC, §5.1.1).
//! * **Emission** (Eq. 4 structure): Arrhenius in temperature (with its own,
//!   lower activation energy), *boosted* exponentially by a negative gate
//!   voltage (the paper's −0.3 V knob) and *suppressed* while the gate is
//!   stressed (a filled channel keeps traps filled).

use crate::condition::DeviceCondition;
use crate::constants::{
    arrhenius_factor, reference_stress_voltage, ACTIVATION_ENERGY_CAPTURE_EV,
    ACTIVATION_ENERGY_EMISSION_EV, AC_CAPTURE_RELIEF_EXPONENT, FIELD_FACTOR_CAPTURE_PER_VOLT,
    FIELD_FACTOR_EMISSION_PER_VOLT, STRESS_EMISSION_SUPPRESSION_PER_VOLT,
};

/// Multiplier on a trap's tabulated capture rate `1/τc₀` under `cond`.
///
/// Returns `0` when the device is never stressed during the interval
/// (`stress_duty == 0`): with no carriers in the channel there is nothing
/// to capture. At the reference condition (110 °C, 1.2 V, DC) the
/// multiplier is `1`. For fractional duty the response is deliberately
/// *sub-linear* (`duty³`): this is the empirical high-frequency AC relief
/// that, combined with intra-cycle emission, yields the per-device
/// AC-vs-DC degradation ratio of ≈ 0.25 needed for the paper's path-level
/// "AC ≈ half of DC" (Fig. 4). Duty here means fast gate toggling, not
/// slow activity scheduling — model slow schedules as alternating
/// [`DeviceCondition`] phases instead.
///
/// # Examples
///
/// ```
/// use selfheal_bti::td::capture_rate_multiplier;
/// use selfheal_bti::{DeviceCondition, Environment};
/// use selfheal_units::{Celsius, Volts};
///
/// let reference = DeviceCondition::dc_stress(
///     Environment::new(Volts::new(1.2), Celsius::new(110.0)));
/// assert!((capture_rate_multiplier(reference) - 1.0).abs() < 1e-12);
///
/// let sleeping = DeviceCondition::recovery(
///     Environment::new(Volts::new(0.0), Celsius::new(110.0)));
/// assert_eq!(capture_rate_multiplier(sleeping), 0.0);
/// ```
#[must_use]
pub fn capture_rate_multiplier(cond: DeviceCondition) -> f64 {
    let duty = cond.stress_duty().get();
    if duty <= 0.0 {
        return 0.0;
    }
    let thermal = arrhenius_factor(cond.env().temperature(), ACTIVATION_ENERGY_CAPTURE_EV);
    let dv = cond.env().supply() - reference_stress_voltage();
    let field = (FIELD_FACTOR_CAPTURE_PER_VOLT * dv.get()).exp();
    // Sub-linear duty response: fast fragmentary stress windows rarely
    // complete a capture (see AC_CAPTURE_RELIEF_EXPONENT).
    duty.powf(AC_CAPTURE_RELIEF_EXPONENT) * thermal * field
}

/// Multiplier on a trap's tabulated emission rate `1/τe₀` under `cond`.
///
/// Emission never stops entirely — passive recovery exists, it is just slow
/// (§2.2). It is accelerated by temperature and by negative gate voltage,
/// and suppressed (per unit time) in proportion to how much of the interval
/// the gate spends stressed.
///
/// At the reference recovery condition (110 °C, 0 V, no stress) the
/// multiplier is `1`.
#[must_use]
pub fn emission_rate_multiplier(cond: DeviceCondition) -> f64 {
    let thermal = arrhenius_factor(cond.env().temperature(), ACTIVATION_ENERGY_EMISSION_EV);
    let v = cond.env().supply().get();
    let duty = cond.stress_duty().get();
    // Split the interval: during the stressed fraction emission is
    // field-suppressed; during the unstressed fraction a negative supply
    // boosts it.
    let stressed_part = if duty > 0.0 {
        duty * (-STRESS_EMISSION_SUPPRESSION_PER_VOLT * v.max(0.0)).exp()
    } else {
        0.0
    };
    let recovering_part = (1.0 - duty) * (-FIELD_FACTOR_EMISSION_PER_VOLT * v.min(0.0)).exp();
    thermal * (stressed_part + recovering_part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Environment;
    use crate::td::PhaseRates;
    use selfheal_units::{Celsius, DutyCycle, Volts};

    fn env(v: f64, t: f64) -> Environment {
        Environment::new(Volts::new(v), Celsius::new(t))
    }

    #[test]
    fn capture_is_unity_at_reference() {
        let m = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capture_scales_subliearly_with_duty() {
        let dc = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let ac = capture_rate_multiplier(DeviceCondition::ac_stress(env(1.2, 110.0)));
        // Sub-linear AC relief: 0.5^3.5 ≈ 0.088.
        assert!((ac / dc - 0.5f64.powf(3.5)).abs() < 1e-12);
    }

    #[test]
    fn capture_zero_when_unstressed() {
        assert_eq!(
            capture_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0))),
            0.0
        );
        assert_eq!(
            capture_rate_multiplier(DeviceCondition::recovery(env(-0.3, 20.0))),
            0.0
        );
    }

    #[test]
    fn capture_monotone_in_temperature_and_voltage() {
        let base = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 100.0)));
        let hotter = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let higher_v = capture_rate_multiplier(DeviceCondition::dc_stress(env(1.3, 100.0)));
        assert!(hotter > base);
        assert!(higher_v > base);
    }

    #[test]
    fn emission_is_unity_at_reference_recovery() {
        let m = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_voltage_accelerates_emission() {
        let passive = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        let active = emission_rate_multiplier(DeviceCondition::recovery(env(-0.3, 110.0)));
        assert!(
            active > 2.0 * passive,
            "−0.3 V should buy a few ×: {active} vs {passive}"
        );
    }

    #[test]
    fn temperature_accelerates_emission() {
        let cold = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 20.0)));
        let hot = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        assert!(hot > 2.0 * cold);
    }

    #[test]
    fn emission_suppressed_under_dc_stress() {
        let stressed = emission_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let resting = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        assert!(stressed < 0.5 * resting);
    }

    #[test]
    fn ac_emission_between_dc_and_recovery() {
        let dc = emission_rate_multiplier(DeviceCondition::dc_stress(env(1.2, 110.0)));
        let ac = emission_rate_multiplier(DeviceCondition::ac_stress(env(1.2, 110.0)));
        let rec = emission_rate_multiplier(DeviceCondition::recovery(env(0.0, 110.0)));
        assert!(dc < ac && ac < rec);
    }

    #[test]
    fn relaxation_at_reference_stress_prefers_occupied() {
        // τe ≫ τc under stress ⇒ equilibrium occupancy near 1.
        let (p_inf, tau) = PhaseRates::for_condition(DeviceCondition::dc_stress(env(1.2, 110.0)))
            .relaxation(10.0, 1000.0);
        assert!(p_inf > 0.9, "p_inf = {p_inf}");
        assert!(tau.is_finite() && tau > 0.0);
    }

    #[test]
    fn relaxation_during_recovery_prefers_empty() {
        let (p_inf, _) = PhaseRates::for_condition(DeviceCondition::recovery(env(-0.3, 110.0)))
            .relaxation(10.0, 1000.0);
        assert_eq!(p_inf, 0.0, "no capture during sleep");
    }

    #[test]
    fn frozen_trap_has_infinite_tau() {
        // Unstressed and emission astronomically slow: simulate by a huge τe.
        let cond = DeviceCondition::recovery(env(0.0, 20.0));
        let (_, tau) = PhaseRates::for_condition(cond).relaxation(1.0, f64::INFINITY);
        assert!(tau.is_infinite());
    }

    #[test]
    fn partial_duty_interpolates_capture() {
        let env25 = DeviceCondition::new(env(1.2, 110.0), DutyCycle::new(0.25));
        let m = capture_rate_multiplier(env25);
        assert!((m - 0.25f64.powf(3.5)).abs() < 1e-12);
    }
}
