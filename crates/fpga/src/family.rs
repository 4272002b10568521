//! Device-family parameters for the simulated commercial 40 nm FPGA.

use selfheal_bti::td::TrapEnsembleParams;
use selfheal_bti::variation::ProcessVariation;
use selfheal_units::{Celsius, Hertz, Nanoseconds, Volts};

/// Everything that characterises an FPGA family for these experiments:
/// fresh delay budget of the path of interest, supply/threshold nominals,
/// the recommended and survivable temperature ranges (§4.3: the paper runs
/// *above* the recommended 85 °C limit but below destruction), and the
/// trap/variation statistics of the process.
///
/// # Examples
///
/// ```
/// use selfheal_fpga::Family;
///
/// let family = Family::commercial_40nm();
/// assert_eq!(family.ro_stages, 75);
/// // §4.3's 110 °C lies above the recommended range, below the limit.
/// let hot = selfheal_units::Celsius::new(110.0);
/// assert!(hot > family.recommended_temperature.1);
/// assert!(hot <= family.accelerated_temperature_limit);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Marketing-style family name.
    pub name: String,
    /// Nominal core supply (1.2 V for the paper's parts).
    pub vdd_nominal: Volts,
    /// Nominal fresh threshold-voltage magnitude.
    pub vth_nominal: Volts,
    /// Fresh delay share of one *pass transistor* on the POI.
    pub pass_delay: Nanoseconds,
    /// Fresh delay share of one *buffer device* (half an inverter) on the POI.
    pub buffer_delay: Nanoseconds,
    /// Fresh delay share of one routing device on the POI.
    pub routing_device_delay: Nanoseconds,
    /// Number of LUT-inverter stages in the ring oscillator (75 in Fig. 3).
    pub ro_stages: usize,
    /// Counter width in bits (16 in Fig. 3).
    pub counter_bits: u32,
    /// Counter reference clock (500 Hz in §4.2).
    pub reference_clock: Hertz,
    /// Recommended operating range from the datasheet (−40 °C to 85 °C).
    pub recommended_temperature: (Celsius, Celsius),
    /// Maximum temperature at which the part still functions well enough to
    /// run accelerated tests (the paper uses 100–110 °C, "above the upper
    /// limit ... but not too high to prevent the chip from functioning").
    pub accelerated_temperature_limit: Celsius,
    /// Trap statistics of the 40 nm process.
    pub trap_params: TrapEnsembleParams,
    /// Process-variation statistics.
    pub variation: ProcessVariation,
}

impl Family {
    /// The simulated stand-in for the paper's commercial 40 nm family.
    ///
    /// The fresh POI delay budget is 1.2 ns per stage (0.55 ns LUT +
    /// 0.65 ns routing), giving the 75-stage ring oscillator a ≈ 90 ns
    /// half-period and a ≈ 5.6 MHz oscillation frequency — comfortably
    /// inside the 16-bit counter range at the 500 Hz reference clock.
    #[must_use]
    pub fn commercial_40nm() -> Self {
        Family {
            name: "SimFab LX-40 (40 nm)".to_string(),
            vdd_nominal: Volts::new(1.2),
            vth_nominal: Volts::new(0.40),
            pass_delay: Nanoseconds::new(0.15),
            buffer_delay: Nanoseconds::new(0.125),
            routing_device_delay: Nanoseconds::new(0.325),
            ro_stages: 75,
            counter_bits: 16,
            reference_clock: Hertz::new(500.0),
            recommended_temperature: (Celsius::new(-40.0), Celsius::new(85.0)),
            accelerated_temperature_limit: Celsius::new(125.0),
            trap_params: TrapEnsembleParams::default(),
            variation: ProcessVariation::default(),
        }
    }

    /// A variation-free copy of the family — every sampled chip is
    /// identical. Used by tests that need exact baselines.
    #[must_use]
    // analyzer: allow(test-only-pub) -- exact-baseline chips for the fpga unit and property tests
    pub fn without_variation(mut self) -> Self {
        self.variation = ProcessVariation::none();
        self
    }
}

impl Default for Family {
    fn default() -> Self {
        Family::commercial_40nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fresh POI delay of one full stage in ns (LUT + routing): two pass
    /// transistors, two buffer devices and two routing devices.
    fn stage_delay(f: &Family) -> f64 {
        2.0 * f.pass_delay.get() + 2.0 * f.buffer_delay.get() + 2.0 * f.routing_device_delay.get()
    }

    #[test]
    fn stage_delay_budget() {
        let f = Family::commercial_40nm();
        assert!((stage_delay(&f) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn ro_frequency_lands_in_counter_range() {
        let f = Family::commercial_40nm();
        let half_period_ns = stage_delay(&f) * f.ro_stages as f64;
        let fosc_hz = 1e9 / (2.0 * half_period_ns);
        let count = fosc_hz / (2.0 * f.reference_clock.get());
        assert!(count > 1000.0, "enough resolution: {count}");
        assert!(
            count < f64::from(u32::pow(2, f.counter_bits) - 1),
            "no overflow: {count}"
        );
    }

    #[test]
    fn without_variation_zeroes_sigmas() {
        let f = Family::commercial_40nm().without_variation();
        assert_eq!(f.variation.chip_sigma_mv.get(), 0.0);
        assert_eq!(f.variation.device_sigma_mv.get(), 0.0);
    }
}
