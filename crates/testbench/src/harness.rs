//! The measurement harness: chip + instruments + sampling loop.

use std::fmt;

use rand::Rng;
use selfheal_bti::Environment;
use selfheal_fpga::{Chip, Measurement, RoMode};
use selfheal_telemetry as telemetry;
use selfheal_units::{Seconds, Volts};

use crate::chamber::{ChamberError, ThermalChamber};
use crate::clock::ClockGenerator;
use crate::schedule::{PhaseSpec, Schedule};
use crate::supply::{PowerSupply, SupplyError};

/// Errors from running a phase on the harness.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// The phase spec itself is inconsistent.
    InvalidSpec(String),
    /// The chamber refused the setpoint.
    Chamber(ChamberError),
    /// The supply refused the level.
    Supply(SupplyError),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::InvalidSpec(msg) => write!(f, "invalid phase spec: {msg}"),
            HarnessError::Chamber(e) => write!(f, "chamber: {e}"),
            HarnessError::Supply(e) => write!(f, "supply: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::InvalidSpec(_) => None,
            HarnessError::Chamber(e) => Some(e),
            HarnessError::Supply(e) => Some(e),
        }
    }
}

impl From<ChamberError> for HarnessError {
    fn from(e: ChamberError) -> Self {
        HarnessError::Chamber(e)
    }
}

impl From<SupplyError> for HarnessError {
    fn from(e: SupplyError) -> Self {
        HarnessError::Supply(e)
    }
}

/// One timestamped sample from the diagnostic program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementRecord {
    /// Time since the start of the current phase.
    pub elapsed_in_phase: Seconds,
    /// Time since the harness was created (across all phases run on it).
    pub total_elapsed: Seconds,
    /// The counter capture and derived metrics.
    pub measurement: Measurement,
    /// The RO mode in force during the preceding interval.
    pub mode: RoMode,
    /// Chamber setpoint during the preceding interval.
    pub temperature_setpoint: selfheal_units::Celsius,
    /// Supply level during the preceding interval.
    pub supply: Volts,
}

/// The complete result of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    /// The phase's label.
    pub name: String,
    /// All samples, starting with the `t = 0` sample taken before the
    /// phase begins.
    pub records: Vec<MeasurementRecord>,
}

/// A chip mounted in the chamber and wired to the instruments.
///
/// The data-sampling overhead (< 3 s per capture, §4.4) is negligible
/// against 20–30 minute sampling intervals, so the harness treats
/// measurement as instantaneous — the chip keeps the phase's environment
/// while the counter is read, exactly as in the paper where the RO "wakes
/// up every 30 minutes for data sampling".
#[derive(Debug, Clone, PartialEq)]
pub struct TestHarness {
    chip: Chip,
    chamber: ThermalChamber,
    supply: PowerSupply,
    clock: ClockGenerator,
    total_elapsed: Seconds,
}

impl TestHarness {
    /// Mounts a chip with laboratory-default instruments.
    #[must_use]
    pub fn new(chip: Chip) -> Self {
        TestHarness {
            chip,
            chamber: ThermalChamber::laboratory(),
            supply: PowerSupply::bench(),
            clock: ClockGenerator::paper_reference(),
            total_elapsed: Seconds::ZERO,
        }
    }

    /// The mounted chip.
    #[must_use]
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Unmounts and returns the chip.
    #[must_use]
    // analyzer: allow(test-only-pub) -- the unmount-and-remount workflow lab_workflow pins
    pub fn into_chip(self) -> Chip {
        self.chip
    }

    /// The chamber.
    #[must_use]
    pub fn chamber(&self) -> &ThermalChamber {
        &self.chamber
    }

    /// The supply.
    #[must_use]
    pub fn supply(&self) -> &PowerSupply {
        &self.supply
    }

    /// The counter reference clock.
    #[must_use]
    pub fn clock(&self) -> &ClockGenerator {
        &self.clock
    }

    /// Total time this harness has spent running phases.
    #[must_use]
    pub fn total_elapsed(&self) -> Seconds {
        self.total_elapsed
    }

    /// Takes a single measurement right now.
    pub fn measure<R: Rng + ?Sized>(&self, rng: &mut R) -> Measurement {
        self.chip.measure(rng)
    }

    /// Runs one phase, returning all samples (the first record is the
    /// `t = 0` state before the phase has aged the chip at all).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError`] if the spec fails validation or either
    /// instrument rejects its setpoint; the chip is untouched in that case.
    pub fn run_phase<R: Rng + ?Sized>(
        &mut self,
        spec: &PhaseSpec,
        rng: &mut R,
    ) -> Result<Vec<MeasurementRecord>, HarnessError> {
        spec.validate().map_err(HarnessError::InvalidSpec)?;
        let _phase_span = telemetry::span!(
            "testbench.phase",
            name = spec.name.as_str(),
            mode = spec.mode.to_string(),
            duration_s = spec.duration.get(),
        );
        self.chamber.set_temperature(spec.temperature)?;
        telemetry::event!("testbench.chamber.set", celsius = spec.temperature.get());
        self.supply.set_voltage(spec.supply)?;
        telemetry::event!("testbench.supply.set", volts = spec.supply.get());

        let mut records = Vec::with_capacity(spec.step_count() + 1);
        let mut record = |harness: &TestHarness, elapsed: Seconds, rng: &mut R| {
            records.push(MeasurementRecord {
                elapsed_in_phase: elapsed,
                total_elapsed: harness.total_elapsed,
                measurement: harness.chip.measure(rng),
                mode: spec.mode,
                temperature_setpoint: spec.temperature,
                supply: spec.supply,
            });
        };
        record(self, Seconds::ZERO, rng);

        let mut elapsed = Seconds::ZERO;
        while elapsed < spec.duration {
            let dt = spec.sampling_interval.min(spec.duration - elapsed);
            // The chamber wobbles within ±0.3 °C around the setpoint; each
            // interval sees one draw of that fluctuation.
            let actual_t = self.chamber.temperature(rng);
            let env = Environment::new(self.supply.voltage(), actual_t);
            self.chip.advance(spec.mode, env, dt);
            elapsed += dt;
            self.total_elapsed += dt;
            record(self, elapsed, rng);
        }
        telemetry::counter!("testbench.samples", records.len() as f64);
        Ok(records)
    }

    /// Runs a whole schedule phase by phase.
    ///
    /// # Errors
    ///
    /// Stops at the first failing phase and returns its error; earlier
    /// phases' aging has already been applied (as it would have been in the
    /// physical lab).
    pub fn run_schedule<R: Rng + ?Sized>(
        &mut self,
        schedule: &Schedule,
        rng: &mut R,
    ) -> Result<Vec<PhaseResult>, HarnessError> {
        schedule
            .phases()
            .iter()
            .map(|spec| {
                Ok(PhaseResult {
                    name: spec.name.clone(),
                    records: self.run_phase(spec, rng)?,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_fpga::ChipId;
    use selfheal_units::{Celsius, Hours, Minutes};

    fn harness(seed: u64) -> (TestHarness, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::commercial_40nm(ChipId::new(2), &mut rng);
        (TestHarness::new(chip), rng)
    }

    #[test]
    fn phase_produces_expected_record_count() {
        let (mut h, mut rng) = harness(1);
        let spec = PhaseSpec::dc_stress_phase(
            Celsius::new(110.0),
            Hours::new(2.0).into(),
            Minutes::new(20.0).into(),
        );
        let records = h.run_phase(&spec, &mut rng).unwrap();
        assert_eq!(records.len(), 7, "t = 0 plus six 20-min samples");
        assert_eq!(records[0].elapsed_in_phase, Seconds::ZERO);
        assert!((records.last().unwrap().elapsed_in_phase.to_hours().get() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn records_show_monotone_degradation_under_stress() {
        let (mut h, mut rng) = harness(2);
        let spec = PhaseSpec::dc_stress_phase(
            Celsius::new(110.0),
            Hours::new(24.0).into(),
            Hours::new(4.0).into(),
        );
        let records = h.run_phase(&spec, &mut rng).unwrap();
        let first = records.first().unwrap().measurement.frequency;
        let last = records.last().unwrap().measurement.frequency;
        assert!(last < first, "frequency falls over the stress phase");
    }

    #[test]
    fn ragged_final_interval_is_shorter() {
        let (mut h, mut rng) = harness(3);
        let spec = PhaseSpec::dc_stress_phase(
            Celsius::new(110.0),
            Seconds::new(4000.0),
            Seconds::new(1200.0),
        );
        let records = h.run_phase(&spec, &mut rng).unwrap();
        assert_eq!(records.len(), 5);
        let last_two: Vec<f64> = records[3..]
            .iter()
            .map(|r| r.elapsed_in_phase.get())
            .collect();
        assert!((last_two[1] - 4000.0).abs() < 1e-9);
        assert!((last_two[1] - last_two[0] - 400.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_spec_leaves_chip_untouched() {
        let (mut h, mut rng) = harness(4);
        let before = h.chip().clone();
        let mut spec = PhaseSpec::burn_in();
        spec.duration = Seconds::ZERO;
        let err = h.run_phase(&spec, &mut rng).unwrap_err();
        assert!(matches!(err, HarnessError::InvalidSpec(_)));
        assert_eq!(h.chip(), &before);
    }

    #[test]
    fn chamber_rejection_propagates() {
        let (mut h, mut rng) = harness(5);
        let spec = PhaseSpec::dc_stress_phase(
            Celsius::new(400.0),
            Hours::new(1.0).into(),
            Minutes::new(20.0).into(),
        );
        let err = h.run_phase(&spec, &mut rng).unwrap_err();
        assert!(matches!(err, HarnessError::Chamber(_)));
        assert!(err.to_string().contains("chamber"));
    }

    #[test]
    fn supply_rejection_propagates() {
        let (mut h, mut rng) = harness(6);
        let mut spec = PhaseSpec::burn_in();
        spec.supply = Volts::new(-2.0);
        let err = h.run_phase(&spec, &mut rng).unwrap_err();
        assert!(matches!(err, HarnessError::Supply(_)));
    }

    #[test]
    fn schedule_runs_phases_in_order_and_accumulates_time() {
        let (mut h, mut rng) = harness(7);
        let schedule = Schedule::new()
            .then(PhaseSpec::dc_stress_phase(
                Celsius::new(110.0),
                Hours::new(4.0).into(),
                Hours::new(1.0).into(),
            ))
            .then(PhaseSpec::recovery_phase(
                Volts::new(-0.3),
                Celsius::new(110.0),
                Hours::new(1.0).into(),
                Minutes::new(30.0).into(),
            ));
        let results = h.run_schedule(&schedule, &mut rng).unwrap();
        assert_eq!(results.len(), 2);
        assert!((h.total_elapsed().to_hours().get() - 5.0).abs() < 1e-9);
        // Recovery phase improves frequency from its own t = 0 sample.
        let rec = &results[1].records;
        assert!(
            rec.last().unwrap().measurement.frequency >= rec.first().unwrap().measurement.frequency,
            "recovery must not degrade frequency"
        );
    }

    #[test]
    fn into_chip_returns_the_aged_chip() {
        let (mut h, mut rng) = harness(8);
        let fresh_delay = h.chip().true_cut_delay();
        let spec = PhaseSpec::dc_stress_phase(
            Celsius::new(110.0),
            Hours::new(8.0).into(),
            Hours::new(2.0).into(),
        );
        h.run_phase(&spec, &mut rng).unwrap();
        let chip = h.into_chip();
        assert!(chip.true_cut_delay() > fresh_delay);
    }
}
