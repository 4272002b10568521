//! Hot-carrier injection (HCI): the other "interrelated physical
//! mechanism" of the paper's §1 that its first-order model folds away.
//!
//! HCI damages the gate oxide when energetic channel carriers strike it
//! *during switching events*: it scales with switching activity and with
//! the drain field (supply voltage), is essentially permanent (interface
//! states do not anneal at operating temperatures), and — unlike BTI and
//! EM — is classically *worse at low temperature*, where carriers scatter
//! less and arrive hotter. Sleep of any flavour does nothing for it
//! except stop the switching.

use selfheal_units::{Millivolts, Seconds, BOLTZMANN_EV_PER_K};

use crate::condition::DeviceCondition;

/// HCI kinetics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HciParams {
    /// Threshold drift per second of full-activity switching at the
    /// nominal 1.2 V supply and 110 °C, in mV/s.
    // analyzer: allow(bare-physical-f64) -- compound unit (mV/s), deferred per ROADMAP
    pub drift_mv_per_s: f64,
    /// Drain-field acceleration per volt above nominal.
    // analyzer: allow(bare-physical-f64) -- compound unit (1/V), deferred per ROADMAP
    pub field_per_volt: f64,
    /// *Negative* thermal activation (eV): colder channels hit harder.
    pub inverse_activation_ev: f64,
    /// Sub-linear time exponent (interface-state generation saturates;
    /// classic HCI `n ≈ 0.5`).
    pub time_exponent: f64,
}

impl Default for HciParams {
    /// Calibrated to ≈ 3 mV after a year of full-activity switching at
    /// nominal conditions — a minor term next to BTI over the paper's
    /// 24 h runs, non-negligible over a lifetime.
    fn default() -> Self {
        HciParams {
            drift_mv_per_s: 3.0 / (365.25 * 86_400.0f64).powf(0.5),
            field_per_volt: 6.0,
            inverse_activation_ev: 0.06,
            time_exponent: 0.5,
        }
    }
}

/// Accumulated HCI damage of one device.
///
/// The state variable is *effective switching exposure* (seconds of
/// full-activity switching, weighted by field and temperature); the drift
/// follows the classic `t^n` power law in that exposure.
///
/// # Examples
///
/// ```
/// use selfheal_bti::hci::HotCarrier;
/// use selfheal_bti::{DeviceCondition, Environment};
/// use selfheal_units::{Celsius, Seconds, Volts};
///
/// let mut device = HotCarrier::new();
/// let switching = DeviceCondition::ac_stress(
///     Environment::new(Volts::new(1.2), Celsius::new(110.0)));
/// device.advance(switching, Seconds::new(365.25 * 86_400.0));
/// assert!(device.delta_vth().get() > 0.0);
///
/// // A parked (DC) or gated circuit does not switch — no HCI:
/// let parked = DeviceCondition::recovery(
///     Environment::new(Volts::new(-0.3), Celsius::new(110.0)));
/// let before = device.delta_vth();
/// device.advance(parked, Seconds::new(365.25 * 86_400.0));
/// assert_eq!(device.delta_vth(), before);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HotCarrier {
    exposure_s: f64,
}

impl HotCarrier {
    /// A fresh device.
    #[must_use]
    pub fn new() -> Self {
        HotCarrier::default()
    }

    /// Accumulated (permanent) threshold drift with default kinetics.
    #[must_use]
    pub fn delta_vth(&self) -> Millivolts {
        self.delta_vth_with(&HciParams::default())
    }

    /// Accumulated drift with explicit kinetics.
    #[must_use]
    pub fn delta_vth_with(&self, params: &HciParams) -> Millivolts {
        Millivolts::new(params.drift_mv_per_s * self.exposure_s.powf(params.time_exponent))
    }

    /// Advances the damage by `dt` under `cond` with default kinetics.
    pub fn advance(&mut self, cond: DeviceCondition, dt: Seconds) {
        self.advance_with(&HciParams::default(), cond, dt);
    }

    /// Advances the damage with explicit kinetics.
    ///
    /// Only *switching* circuits accumulate exposure: HCI needs current
    /// pulses through the channel, so a statically-parked (DC) gate and a
    /// gated sleeper are both exempt. The AC duty cycle is the switching
    /// activity.
    pub fn advance_with(&mut self, params: &HciParams, cond: DeviceCondition, dt: Seconds) {
        if dt.is_zero_or_negative() {
            return;
        }
        let duty = cond.stress_duty().get();
        // Only fractional duty (< 1) represents toggling; DC stress is a
        // parked level with no drain-current pulses.
        let switching = if duty > 0.0 && duty < 1.0 { duty } else { 0.0 };
        if switching == 0.0 {
            return;
        }
        let v = cond.env().supply().get();
        let field = (params.field_per_volt * (v - 1.2)).exp();
        // Inverse Arrhenius: colder is worse.
        let t = cond.env().temperature().get();
        let t_ref = 383.15;
        let thermal =
            (params.inverse_activation_ev / BOLTZMANN_EV_PER_K * (1.0 / t - 1.0 / t_ref)).exp();
        self.exposure_s += switching * field * thermal * dt.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Environment;
    use selfheal_units::{Celsius, Volts};

    fn switching(v: f64, t: f64) -> DeviceCondition {
        DeviceCondition::ac_stress(Environment::new(Volts::new(v), Celsius::new(t)))
    }

    fn year() -> Seconds {
        Seconds::new(365.25 * 86_400.0)
    }

    #[test]
    fn only_switching_accumulates() {
        let mut hci = HotCarrier::new();
        let parked =
            DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
        hci.advance(parked, year());
        assert_eq!(hci.delta_vth().get(), 0.0, "DC-parked gates take no HCI");

        hci.advance(switching(1.2, 110.0), year());
        assert!(hci.delta_vth().get() > 0.0);
    }

    #[test]
    fn colder_is_worse() {
        let mut cold = HotCarrier::new();
        cold.advance(switching(1.2, 20.0), year());
        let mut hot = HotCarrier::new();
        hot.advance(switching(1.2, 110.0), year());
        assert!(
            cold.delta_vth() > hot.delta_vth(),
            "{} vs {}",
            cold.delta_vth(),
            hot.delta_vth()
        );
    }

    #[test]
    fn overdrive_accelerates_hci_strongly() {
        let mut nominal = HotCarrier::new();
        nominal.advance(switching(1.2, 110.0), year());
        let mut overdriven = HotCarrier::new();
        overdriven.advance(switching(1.32, 110.0), year());
        assert!(
            overdriven.delta_vth().get() > 1.3 * nominal.delta_vth().get(),
            "the other reason GNOMO-style overdrive is not free"
        );
    }

    #[test]
    fn drift_is_sublinear_in_time() {
        let mut one = HotCarrier::new();
        one.advance(switching(1.2, 110.0), year());
        let mut four = HotCarrier::new();
        four.advance(switching(1.2, 110.0), Seconds::new(4.0 * year().get()));
        let ratio = four.delta_vth().get() / one.delta_vth().get();
        assert!(
            (ratio - 2.0).abs() < 1e-9,
            "t^0.5: 4x time = 2x drift ({ratio})"
        );
    }

    #[test]
    fn no_sleep_condition_heals_hci() {
        let mut hci = HotCarrier::new();
        hci.advance(switching(1.2, 110.0), year());
        let damaged = hci.delta_vth();
        for v in [0.0, -0.3] {
            hci.advance(
                DeviceCondition::recovery(Environment::new(Volts::new(v), Celsius::new(110.0))),
                year(),
            );
        }
        assert_eq!(hci.delta_vth(), damaged);
    }

    #[test]
    fn calibration_magnitude() {
        let mut hci = HotCarrier::new();
        hci.advance(switching(1.2, 110.0), year());
        let drift = hci.delta_vth().get();
        // Half-duty switching at reference: √0.5 of the 3 mV/yr full-duty
        // calibration.
        assert!(
            drift > 1.5 && drift < 3.0,
            "≈2 mV/yr at 50 % activity: {drift}"
        );
        // And negligible over the paper's 24 h runs.
        let mut day = HotCarrier::new();
        day.advance(switching(1.2, 110.0), Seconds::new(86_400.0));
        assert!(day.delta_vth().get() < 0.2);
    }
}
