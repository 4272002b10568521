//! Healing metrics: frequency degradation, the Recovered Delay of
//! Eq. (16) and the design-margin-relaxed parameter of Table 4.

use selfheal_testbench::MeasurementRecord;
use selfheal_units::{Nanoseconds, Percent, Seconds};

/// One point of a wearout curve (Figs. 4–5): elapsed stress time against
/// frequency degradation and delay shift, both relative to the series'
/// own first sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPoint {
    /// Time since the start of the stress phase.
    pub elapsed: Seconds,
    /// Frequency degradation versus the phase's first sample (positive =
    /// slower), ×100.
    pub frequency_degradation: Percent,
    /// Delay shift versus the phase's first sample.
    pub delay_shift: Nanoseconds,
}

/// One point of a recovery curve (Figs. 6–8): elapsed sleep time against
/// the Recovered Delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPoint {
    /// Time since the start of the sleep phase.
    pub elapsed: Seconds,
    /// `RD(t₂) = Td(t₁) − Td(t₂)` (Eq. 16): how much delay has been healed
    /// so far. Grows as recovery proceeds.
    pub recovered_delay: Nanoseconds,
    /// The remaining delay shift versus the series baseline provided to
    /// [`recovery_series`] (what Fig. 8 plots).
    pub remaining_shift: Nanoseconds,
}

/// Eq. (16): the Recovered Delay.
///
/// `RD = Td(t₁) − Td(t₂)` where `Td(t₁)` is the CUT delay at the end of
/// the stress phase and `Td(t₂)` the current delay. The subtraction
/// cancels each chip's fresh baseline, which is why the paper uses it for
/// cross-chip comparison ("to make a fair comparison, we use recovered
/// delay ... as our metric", §5.2).
#[must_use]
pub fn recovered_delay(at_end_of_stress: Nanoseconds, now: Nanoseconds) -> Nanoseconds {
    at_end_of_stress - now
}

/// Converts a stress phase's records into the Fig. 4/5 degradation series.
///
/// The first record (the phase's `t = 0` sample) is the baseline; it is
/// included in the output as an all-zero point.
#[must_use]
pub fn degradation_series(records: &[MeasurementRecord]) -> Vec<DegradationPoint> {
    let Some(first) = records.first() else {
        return Vec::new();
    };
    let f0 = first.measurement.frequency;
    let d0 = first.measurement.cut_delay;
    records
        .iter()
        .map(|r| DegradationPoint {
            elapsed: r.elapsed_in_phase,
            frequency_degradation: Percent::new(
                r.measurement.frequency.degradation_from(f0) * 100.0,
            ),
            delay_shift: r.measurement.cut_delay - d0,
        })
        .collect()
}

/// Converts a recovery phase's records into the Fig. 6–8 series.
///
/// `fresh_delay` is the chip's delay before any stress — needed for the
/// `remaining_shift` component that Fig. 8 plots. The recovery baseline
/// `Td(t₁)` is the phase's first sample.
#[must_use]
pub fn recovery_series(
    records: &[MeasurementRecord],
    fresh_delay: Nanoseconds,
) -> Vec<RecoveryPoint> {
    let Some(first) = records.first() else {
        return Vec::new();
    };
    let aged = first.measurement.cut_delay;
    records
        .iter()
        .map(|r| RecoveryPoint {
            elapsed: r.elapsed_in_phase,
            recovered_delay: recovered_delay(aged, r.measurement.cut_delay),
            remaining_shift: r.measurement.cut_delay - fresh_delay,
        })
        .collect()
}

/// The Table 4 summary of one recovery experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryAssessment {
    /// The delay shift inflicted by the stress phase, `ΔTd(t₁)`.
    pub inflicted: Nanoseconds,
    /// The delay healed by the sleep phase, `RD`.
    pub recovered: Nanoseconds,
}

impl RecoveryAssessment {
    /// Builds an assessment from the three delay snapshots.
    #[must_use]
    pub fn new(fresh: Nanoseconds, aged: Nanoseconds, healed: Nanoseconds) -> Self {
        RecoveryAssessment {
            inflicted: aged - fresh,
            recovered: aged - healed,
        }
    }

    /// The design-margin-relaxed parameter (Table 4): "how much the chip
    /// recovered from the original margin", i.e. `RD / ΔTd(t₁)` as a
    /// percentage. The paper's best case reaches 72.4 %.
    #[must_use]
    pub fn margin_relaxed(&self) -> Percent {
        if self.inflicted.get() <= 0.0 {
            return Percent::new(0.0);
        }
        Percent::new(100.0 * self.recovered.get() / self.inflicted.get())
    }

    /// The shift still present after healing.
    #[must_use]
    pub fn remaining(&self) -> Nanoseconds {
        self.inflicted - self.recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_fpga::RoMode;
    use selfheal_fpga::{CounterReading, Measurement};
    use selfheal_units::{Celsius, Hertz, Volts};

    fn record(elapsed_s: f64, delay_ns: f64) -> MeasurementRecord {
        // Synthesise a consistent measurement for a given CUT delay.
        let freq = Hertz::new(1e9 / (2.0 * delay_ns));
        MeasurementRecord {
            elapsed_in_phase: Seconds::new(elapsed_s),
            total_elapsed: Seconds::new(elapsed_s),
            measurement: Measurement {
                reading: CounterReading {
                    count: (freq.get() / 1000.0) as u32,
                    saturated: false,
                },
                frequency: freq,
                cut_delay: Nanoseconds::new(delay_ns),
            },
            mode: RoMode::Static,
            temperature_setpoint: Celsius::new(110.0),
            supply: Volts::new(1.2),
        }
    }

    #[test]
    fn recovered_delay_sign_convention() {
        let rd = recovered_delay(Nanoseconds::new(92.3), Nanoseconds::new(90.9));
        assert!((rd.get() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn degradation_series_uses_first_sample_as_baseline() {
        let records = vec![
            record(0.0, 90.0),
            record(3600.0, 91.0),
            record(7200.0, 92.0),
        ];
        let series = degradation_series(&records);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].frequency_degradation.get(), 0.0);
        assert_eq!(series[0].delay_shift, Nanoseconds::ZERO);
        assert!((series[2].delay_shift.get() - 2.0).abs() < 1e-9);
        // 90 → 92 ns is a ~2.17 % frequency drop.
        assert!((series[2].frequency_degradation.get() - 2.174).abs() < 0.01);
    }

    #[test]
    fn recovery_series_tracks_rd_and_remaining() {
        let fresh = Nanoseconds::new(90.0);
        let records = vec![
            record(0.0, 92.3),
            record(1800.0, 91.5),
            record(3600.0, 90.9),
        ];
        let series = recovery_series(&records, fresh);
        assert_eq!(series[0].recovered_delay, Nanoseconds::ZERO);
        assert!((series[2].recovered_delay.get() - 1.4).abs() < 1e-9);
        assert!((series[2].remaining_shift.get() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_series_are_empty() {
        assert!(degradation_series(&[]).is_empty());
        assert!(recovery_series(&[], Nanoseconds::new(90.0)).is_empty());
    }

    #[test]
    fn margin_relaxed_headline_arithmetic() {
        let a = RecoveryAssessment::new(
            Nanoseconds::new(90.0),
            Nanoseconds::new(92.3),
            Nanoseconds::new(90.635),
        );
        // Inflicted 2.3 ns, recovered 1.665 ns → 72.4 %.
        assert!((a.margin_relaxed().get() - 72.39).abs() < 0.05);
        assert!((a.remaining().get() - 0.635).abs() < 1e-9);
    }

    #[test]
    fn margin_relaxed_of_unstressed_chip_is_zero() {
        let a = RecoveryAssessment::new(
            Nanoseconds::new(90.0),
            Nanoseconds::new(90.0),
            Nanoseconds::new(90.0),
        );
        assert_eq!(a.margin_relaxed().get(), 0.0);
    }
}
