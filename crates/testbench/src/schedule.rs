//! Phase specifications: what to do to a chip, for how long, and how often
//! to sample it.

use selfheal_fpga::RoMode;
use selfheal_units::{Celsius, Minutes, Seconds, Volts};

/// One phase of a test schedule: a constant chamber setpoint, supply level
/// and RO mode held for `duration`, with counter samples every
/// `sampling_interval`.
///
/// # Examples
///
/// ```
/// use selfheal_testbench::PhaseSpec;
/// use selfheal_units::{Celsius, Hours, Minutes, Volts};
///
/// // The paper's AR110N6: 6 h at 110 °C and −0.3 V, sampled every 30 min.
/// let spec = PhaseSpec::recovery_phase(
///     Volts::new(-0.3),
///     Celsius::new(110.0),
///     Hours::new(6.0).into(),
///     Minutes::new(30.0).into(),
/// );
/// assert!(spec.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Human-readable label (shows up in records and logs).
    pub name: String,
    /// Ring-oscillator mode during the phase.
    pub mode: RoMode,
    /// Chamber setpoint.
    pub temperature: Celsius,
    /// Core supply level.
    pub supply: Volts,
    /// Phase length.
    pub duration: Seconds,
    /// Counter sampling cadence.
    pub sampling_interval: Seconds,
}

impl PhaseSpec {
    /// Accelerated DC stress at the nominal 1.2 V supply (`ASxxxDCyy`).
    #[must_use]
    pub fn dc_stress_phase(temperature: Celsius, duration: Seconds, sampling: Seconds) -> Self {
        PhaseSpec {
            name: format!("DC stress @ {temperature}"),
            mode: RoMode::Static,
            temperature,
            supply: Volts::new(1.2),
            duration,
            sampling_interval: sampling,
        }
    }

    /// Accelerated AC stress at the nominal 1.2 V supply (`ASxxxACyy`).
    #[must_use]
    pub fn ac_stress_phase(temperature: Celsius, duration: Seconds, sampling: Seconds) -> Self {
        PhaseSpec {
            name: format!("AC stress @ {temperature}"),
            mode: RoMode::Oscillating,
            temperature,
            supply: Volts::new(1.2),
            duration,
            sampling_interval: sampling,
        }
    }

    /// A recovery/sleep phase at the given supply level (`Rxx`/`ARxx`).
    #[must_use]
    pub fn recovery_phase(
        supply: Volts,
        temperature: Celsius,
        duration: Seconds,
        sampling: Seconds,
    ) -> Self {
        PhaseSpec {
            name: format!("recovery @ {temperature}, {supply}"),
            mode: RoMode::Sleep,
            temperature,
            supply,
            duration,
            sampling_interval: sampling,
        }
    }

    /// The paper's burn-in baseline: "all chips are stressed at 20 °C and
    /// 1.2 V for 2 hours initially" (§4.4).
    #[must_use]
    pub fn burn_in() -> Self {
        let mut spec = PhaseSpec::dc_stress_phase(
            Celsius::new(20.0),
            Seconds::new(2.0 * 3600.0),
            Minutes::new(30.0).into(),
        );
        spec.name = "burn-in baseline".to_string();
        spec
    }

    /// Renames the phase (builder style).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: non-positive duration
    /// or sampling interval, or an interval longer than the phase.
    pub fn validate(&self) -> Result<(), String> {
        if self.duration.is_zero_or_negative() {
            return Err(format!("phase '{}' has non-positive duration", self.name));
        }
        if self.sampling_interval.is_zero_or_negative() {
            return Err(format!(
                "phase '{}' has non-positive sampling interval",
                self.name
            ));
        }
        if self.sampling_interval > self.duration {
            return Err(format!(
                "phase '{}' samples less than once ({} interval vs {} duration)",
                self.name, self.sampling_interval, self.duration
            ));
        }
        Ok(())
    }

    /// Number of sampling steps in this phase (including a possibly
    /// shorter final step).
    #[must_use]
    pub fn step_count(&self) -> usize {
        let full = (self.duration.get() / self.sampling_interval.get()).floor() as usize;
        let remainder = self.duration.get() - full as f64 * self.sampling_interval.get();
        full + usize::from(remainder > 1e-9)
    }
}

/// An ordered sequence of phases applied to one chip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    phases: Vec<PhaseSpec>,
}

impl Schedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Appends a phase (builder style).
    #[must_use]
    pub fn then(mut self, phase: PhaseSpec) -> Self {
        self.phases.push(phase);
        self
    }

    /// The phases in order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Validates every phase.
    ///
    /// # Errors
    ///
    /// Returns the first phase's validation error.
    pub fn validate(&self) -> Result<(), String> {
        self.phases.iter().try_for_each(PhaseSpec::validate)
    }
}

impl FromIterator<PhaseSpec> for Schedule {
    fn from_iter<I: IntoIterator<Item = PhaseSpec>>(iter: I) -> Self {
        Schedule {
            phases: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::Hours;

    #[test]
    fn paper_phase_constructors() {
        let dc = PhaseSpec::dc_stress_phase(
            Celsius::new(110.0),
            Hours::new(24.0).into(),
            Minutes::new(20.0).into(),
        );
        assert_eq!(dc.mode, RoMode::Static);
        assert_eq!(dc.supply, Volts::new(1.2));
        assert!(dc.validate().is_ok());

        let ac = PhaseSpec::ac_stress_phase(
            Celsius::new(110.0),
            Hours::new(24.0).into(),
            Minutes::new(20.0).into(),
        );
        assert_eq!(ac.mode, RoMode::Oscillating);

        let ar = PhaseSpec::recovery_phase(
            Volts::new(-0.3),
            Celsius::new(110.0),
            Hours::new(6.0).into(),
            Minutes::new(30.0).into(),
        );
        assert_eq!(ar.mode, RoMode::Sleep);
        assert!(ar.supply.is_negative());
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut spec = PhaseSpec::burn_in();
        spec.duration = Seconds::ZERO;
        assert!(spec.validate().is_err());

        let mut spec = PhaseSpec::burn_in();
        spec.sampling_interval = Seconds::new(-5.0);
        assert!(spec.validate().is_err());

        let mut spec = PhaseSpec::burn_in();
        spec.sampling_interval = spec.duration * 2.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn step_count_handles_remainders() {
        let spec = PhaseSpec::dc_stress_phase(
            Celsius::new(110.0),
            Seconds::new(3600.0),
            Seconds::new(1200.0),
        );
        assert_eq!(spec.step_count(), 3);

        let ragged = PhaseSpec::dc_stress_phase(
            Celsius::new(110.0),
            Seconds::new(4000.0),
            Seconds::new(1200.0),
        );
        assert_eq!(ragged.step_count(), 4, "3 full steps + 400 s remainder");
    }

    #[test]
    fn schedule_builder_and_totals() {
        let schedule = Schedule::new()
            .then(PhaseSpec::burn_in())
            .then(PhaseSpec::dc_stress_phase(
                Celsius::new(110.0),
                Hours::new(24.0).into(),
                Minutes::new(20.0).into(),
            ));
        assert_eq!(schedule.phases().len(), 2);
        let total: Seconds = schedule.phases().iter().map(|p| p.duration).sum();
        assert!((total.to_hours().get() - 26.0).abs() < 1e-9);
        assert!(schedule.validate().is_ok());
    }

    #[test]
    fn schedule_from_iterator() {
        let schedule: Schedule = vec![PhaseSpec::burn_in()].into_iter().collect();
        assert_eq!(schedule.phases().len(), 1);
    }
}
