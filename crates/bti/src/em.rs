//! Electromigration: the irreversible aging mechanism the paper's model
//! deliberately ignores (§7: "the first order model is optimistic in that
//! it ignores other aging effects, such as Electromigration").
//!
//! Implemented here so the optimism can be *quantified*: EM is void
//! growth in current-carrying interconnect — Black's-equation kinetics,
//! linear-in-time resistance drift, thermally accelerated, and completely
//! indifferent to the BTI recovery knobs. Negative sleep voltage does
//! nothing for a void; the only mercy sleep offers EM is that a gated
//! wire carries no current.

use selfheal_units::{Fraction, Kelvin, Seconds, BOLTZMANN_EV_PER_K};

use crate::condition::DeviceCondition;

/// Electromigration kinetics for one interconnect segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmParams {
    /// Fractional resistance drift per second of full-activity operation
    /// at the reference temperature.
    pub drift_rate_per_s: f64,
    /// Black's-equation activation energy, eV (≈ 0.9 eV for Cu
    /// interconnect).
    pub activation_ev: f64,
    /// Current-density exponent `n` applied to the activity factor
    /// (Black's classic n ≈ 2).
    pub current_exponent: f64,
    /// Reference temperature for `drift_rate_per_s`.
    pub reference_temperature: Kelvin,
}

impl Default for EmParams {
    /// Calibrated so a wire switching at full activity at 110 °C drifts
    /// ≈ 1.5 % per year — slow next to accelerated BTI, exactly why the
    /// paper could ignore it over 24-hour experiments, and exactly why it
    /// matters over a product lifetime.
    fn default() -> Self {
        EmParams {
            drift_rate_per_s: 1.5e-2 / (365.25 * 86_400.0),
            activation_ev: 0.9,
            current_exponent: 2.0,
            reference_temperature: selfheal_units::Celsius::new(110.0).to_kelvin(),
        }
    }
}

impl EmParams {
    /// Instantaneous fractional drift rate under `cond`.
    ///
    /// Current only flows while the segment is actively switching, so the
    /// rate scales with `duty^n`; a gated (sleeping) wire does not
    /// electromigrate at all, whatever the sleep voltage.
    #[must_use]
    pub fn rate(&self, cond: DeviceCondition) -> f64 {
        let duty = cond.stress_duty().get();
        if duty <= 0.0 {
            return 0.0;
        }
        let t = cond.env().temperature();
        let thermal = (self.activation_ev / BOLTZMANN_EV_PER_K
            * (1.0 / self.reference_temperature.get() - 1.0 / t.get()))
        .exp();
        self.drift_rate_per_s * duty.powf(self.current_exponent) * thermal
    }
}

/// Accumulated electromigration damage of one segment.
///
/// # Examples
///
/// ```
/// use selfheal_bti::em::Electromigration;
/// use selfheal_bti::{DeviceCondition, Environment};
/// use selfheal_units::{Celsius, Seconds, Volts};
///
/// let mut wire = Electromigration::default();
/// let busy = DeviceCondition::ac_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
/// wire.advance(busy, Seconds::new(365.25 * 86_400.0));
/// let after_a_year = wire.resistance_drift();
/// assert!(after_a_year.get() > 0.0);
///
/// // Deep rejuvenation does nothing for a void:
/// let heal = DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)));
/// wire.advance(heal, Seconds::new(365.25 * 86_400.0));
/// assert_eq!(wire.resistance_drift(), after_a_year);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Electromigration {
    drift: f64,
}

impl Electromigration {
    /// A fresh segment with the given kinetics... kinetics are supplied
    /// per-step; the state itself is just the accumulated drift.
    #[must_use]
    pub fn new() -> Self {
        Electromigration::default()
    }

    /// Accumulated fractional resistance drift (monotone, irreversible).
    #[must_use]
    pub fn resistance_drift(&self) -> Fraction {
        Fraction::new(self.drift)
    }

    /// Advances the damage by `dt` under `cond` with the default kinetics.
    pub fn advance(&mut self, cond: DeviceCondition, dt: Seconds) {
        self.advance_with(&EmParams::default(), cond, dt);
    }

    /// Advances the damage with explicit kinetics.
    pub fn advance_with(&mut self, params: &EmParams, cond: DeviceCondition, dt: Seconds) {
        if dt.is_zero_or_negative() {
            return;
        }
        self.drift = (self.drift + params.rate(cond) * dt.get()).min(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Environment;
    use selfheal_units::{Celsius, Volts};

    fn busy(t: f64) -> DeviceCondition {
        DeviceCondition::ac_stress(Environment::new(Volts::new(1.2), Celsius::new(t)))
    }

    fn year() -> Seconds {
        Seconds::new(365.25 * 86_400.0)
    }

    #[test]
    fn drift_accumulates_linearly_with_active_time() {
        let mut one = Electromigration::new();
        one.advance(busy(110.0), year());
        let mut two = Electromigration::new();
        two.advance(busy(110.0), year());
        two.advance(busy(110.0), year());
        assert!((two.resistance_drift().get() - 2.0 * one.resistance_drift().get()).abs() < 1e-12);
    }

    #[test]
    fn gated_wire_never_migrates() {
        let mut wire = Electromigration::new();
        let sleep =
            DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)));
        wire.advance(sleep, year());
        assert_eq!(wire.resistance_drift().get(), 0.0);
    }

    #[test]
    fn heat_accelerates_em_strongly() {
        let mut hot = Electromigration::new();
        hot.advance(busy(110.0), year());
        let mut cool = Electromigration::new();
        cool.advance(busy(60.0), year());
        // 0.9 eV over 50 °C is more than an order of magnitude.
        assert!(
            hot.resistance_drift().get() > 10.0 * cool.resistance_drift().get(),
            "{} vs {}",
            hot.resistance_drift(),
            cool.resistance_drift()
        );
    }

    #[test]
    fn duty_enters_quadratically() {
        let full = EmParams::default().rate(DeviceCondition::dc_stress(Environment::new(
            Volts::new(1.2),
            Celsius::new(110.0),
        )));
        let half = EmParams::default().rate(busy(110.0));
        assert!((half / full - 0.25).abs() < 1e-12, "n = 2: {}", half / full);
    }

    #[test]
    fn healing_cannot_touch_em() {
        let mut wire = Electromigration::new();
        wire.advance(busy(110.0), year());
        let damaged = wire.resistance_drift();
        for _ in 0..10 {
            wire.advance(
                DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0))),
                year(),
            );
        }
        assert_eq!(wire.resistance_drift(), damaged, "voids do not anneal here");
    }

    #[test]
    fn calibration_magnitude() {
        let mut wire = Electromigration::new();
        wire.advance(
            DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0))),
            year(),
        );
        let drift = wire.resistance_drift().get();
        assert!(
            drift > 0.01 && drift < 0.03,
            "≈1.5 %/yr at reference: {drift}"
        );
        // And negligible over the paper's 24 h experiments:
        let mut day = Electromigration::new();
        day.advance(
            DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0))),
            Seconds::new(86_400.0),
        );
        assert!(day.resistance_drift().get() < 1e-4);
    }

    #[test]
    fn drift_saturates_at_total_failure() {
        let mut wire = Electromigration::new();
        let extreme = EmParams {
            drift_rate_per_s: 1.0,
            ..EmParams::default()
        };
        wire.advance_with(
            &extreme,
            DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0))),
            Seconds::new(10.0),
        );
        assert_eq!(wire.resistance_drift().get(), 1.0);
    }
}
