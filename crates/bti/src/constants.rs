//! Physical constants and 40 nm technology parameters.
//!
//! Values are calibrated so that the simulated 40 nm fabric lands in the
//! ranges the paper reports (≈2.3 % frequency degradation after 24 h of DC
//! stress at 110 °C; ≈72 % shift recovery after 6 h at 110 °C/−0.3 V). The
//! *structure* of every expression follows the paper's Eqs. 2, 4 and 13;
//! only the fitted magnitudes are ours, since the authors do not publish
//! their extracted constants for the commercial parts.

use selfheal_units::{Celsius, Kelvin, Volts};

pub use selfheal_units::BOLTZMANN_EV_PER_K as BOLTZMANN;

/// Activation energy (eV) of the trap *capture* process — the `E0` of
/// Eq. (2). Sets how strongly temperature accelerates wearout. 0.6 eV is a
/// typical NBTI lifetime-acceleration energy: it makes a 24 h chamber run
/// at 110 °C equivalent to years at room temperature (the whole point of
/// accelerated testing, §4.3) while keeping the 110 °C-vs-100 °C gap of
/// Fig. 5 modest.
pub const ACTIVATION_ENERGY_CAPTURE_EV: f64 = 0.6;

/// Activation energy (eV) of the trap *emission* process — the `E0` of
/// Eq. (4). Chosen so that passive recovery at room temperature is roughly
/// a decade of log-time slower than at the 110 °C chamber setpoint: this is
/// what makes passive (20 °C / 0 V) recovery "slow and unpredictable"
/// (§2.2) while chamber-heated recovery is effective.
pub const ACTIVATION_ENERGY_EMISSION_EV: f64 = 0.22;

/// Capture field-acceleration coefficient, `Bs/(tox·k·Tref)`, in 1/V.
///
/// The 40 nm process's effective oxide thickness (`tox` ≈ 1.2 nm)
/// enters the model only through this factor, folded in at the
/// reference temperature.
///
/// `exp(2.5 · ΔV)` ⇒ raising the stress supply by 100 mV speeds capture by
/// ≈28 %, a typical 40 nm NBTI voltage acceleration.
pub const FIELD_FACTOR_CAPTURE_PER_VOLT: f64 = 2.5;

/// Emission field-acceleration coefficient in 1/V.
///
/// Emission speeds up as the gate voltage drops below zero:
/// `rate ∝ exp(−6 · V)` for `V ≤ 0`, so the paper's −0.3 V rejuvenation
/// supply buys `e^{1.8} ≈ 6×` faster detrapping (≈ 0.8 decades of
/// log-time — the gap between the 0 V and −0.3 V curves of Fig. 7).
pub const FIELD_FACTOR_EMISSION_PER_VOLT: f64 = 6.0;

/// Suppression of emission while the device is actively stressed: a trap
/// under a filled channel rarely emits. `rate ∝ exp(−1.6 · V)` for `V > 0`.
pub const STRESS_EMISSION_SUPPRESSION_PER_VOLT: f64 = 1.6;

/// Exponent of the empirical AC capture relief: the effective capture rate
/// under fast toggling scales as `duty^AC_CAPTURE_RELIEF_EXPONENT` rather
/// than linearly in duty. High-frequency AC BTI measurements consistently
/// show much less degradation than the duty cycle alone would predict
/// (fragmentary stress windows rarely complete a capture); the sub-linear
/// relief, combined with intra-cycle emission, reproduces the paper's
/// Fig. 4 observation that AC stress degrades a ring oscillator about half
/// as much as DC stress even though AC exercises twice as many devices on
/// the path of interest.
pub const AC_CAPTURE_RELIEF_EXPONENT: f64 = 3.5;

/// Reference temperature at which trap time constants are tabulated:
/// 110 °C, the paper's principal accelerated condition.
#[must_use]
pub fn reference_temperature() -> Kelvin {
    Celsius::new(110.0).to_kelvin()
}

/// Reference stress supply at which trap time constants are tabulated.
#[must_use]
pub fn reference_stress_voltage() -> Volts {
    Volts::new(1.2)
}

/// Nominal core supply of the simulated 40 nm FPGA family.
#[must_use]
pub fn nominal_vdd() -> Volts {
    Volts::new(1.2)
}

/// Nominal (fresh, typical-corner) threshold voltage magnitude.
#[must_use]
pub fn nominal_vth() -> Volts {
    Volts::new(0.40)
}

/// Arrhenius acceleration factor between temperature `t` and the reference
/// temperature, for a process with activation energy `ea_ev`.
///
/// Returns `exp(ea/k · (1/Tref − 1/T))`: `> 1` above the reference
/// temperature, `< 1` below it, exactly `1` at the reference.
///
/// # Examples
///
/// ```
/// use selfheal_bti::constants::{arrhenius_factor, ACTIVATION_ENERGY_CAPTURE_EV};
/// use selfheal_units::Celsius;
///
/// let at_ref = arrhenius_factor(Celsius::new(110.0).to_kelvin(), ACTIVATION_ENERGY_CAPTURE_EV);
/// assert!((at_ref - 1.0).abs() < 1e-12);
///
/// let room = arrhenius_factor(Celsius::new(20.0).to_kelvin(), ACTIVATION_ENERGY_CAPTURE_EV);
/// assert!(room < 1.0, "everything is slower at room temperature");
/// ```
#[must_use]
pub fn arrhenius_factor(t: Kelvin, ea_ev: f64) -> f64 {
    let t_ref = reference_temperature();
    (ea_ev / BOLTZMANN * (1.0 / t_ref.get() - 1.0 / t.get())).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrhenius_is_one_at_reference() {
        assert!((arrhenius_factor(reference_temperature(), 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arrhenius_monotone_in_temperature() {
        let cold = arrhenius_factor(Celsius::new(20.0).to_kelvin(), 0.2);
        let warm = arrhenius_factor(Celsius::new(100.0).to_kelvin(), 0.2);
        let hot = arrhenius_factor(Celsius::new(110.0).to_kelvin(), 0.2);
        assert!(cold < warm && warm < hot);
    }

    #[test]
    fn arrhenius_monotone_in_activation_energy_below_ref() {
        // Below the reference temperature, a higher barrier slows things more.
        let t = Celsius::new(20.0).to_kelvin();
        assert!(arrhenius_factor(t, 0.3) < arrhenius_factor(t, 0.1));
    }

    #[test]
    fn capture_between_100_and_110_matches_paper_gap() {
        // A 0.6 eV barrier gives a ~1.6× capture-rate gap between 100 °C
        // and 110 °C, which the log-time trap dynamics compress into the
        // modest Fig. 5 degradation gap.
        let ratio = arrhenius_factor(
            Celsius::new(110.0).to_kelvin(),
            ACTIVATION_ENERGY_CAPTURE_EV,
        ) / arrhenius_factor(
            Celsius::new(100.0).to_kelvin(),
            ACTIVATION_ENERGY_CAPTURE_EV,
        );
        assert!(ratio > 1.3 && ratio < 2.0, "ratio = {ratio}");
    }

    #[test]
    fn emission_boost_at_minus_300mv_is_several_x() {
        let boost = (FIELD_FACTOR_EMISSION_PER_VOLT * 0.3).exp();
        assert!(boost > 4.0 && boost < 15.0, "boost = {boost}");
    }

    #[test]
    fn reference_values() {
        assert!((reference_temperature().get() - 383.15).abs() < 1e-9);
        assert_eq!(reference_stress_voltage(), Volts::new(1.2));
        assert_eq!(nominal_vdd(), Volts::new(1.2));
        assert!(nominal_vth().get() > 0.0 && nominal_vth() < nominal_vdd());
    }
}
