//! Process variation: chip-to-chip and device-to-device threshold spread.
//!
//! The paper measures different physical chips and notes that "the initial
//! RO frequencies for different fresh chips differ due to variations" —
//! which is why its recovery metric is the *Recovered Delay* (Eq. 16), a
//! difference that cancels the chip's own baseline. To make that metric
//! meaningful in simulation, fresh chips must actually differ, which is
//! what this module provides.

use rand::Rng;
use selfheal_units::Millivolts;

/// Gaussian process-variation parameters for fresh threshold voltages.
///
/// Total per-device offset = chip-level corner offset (shared by every
/// device on the chip) + device-local mismatch.
///
/// # Examples
///
/// ```
/// use selfheal_bti::variation::ProcessVariation;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pv = ProcessVariation::default();
/// let chip = pv.sample_chip_offset(&mut rng);
/// let device = pv.sample_device_offset(&mut rng);
/// assert!(chip.get().abs() < 100.0 && device.get().abs() < 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessVariation {
    /// σ of the chip-level (global) Vth offset.
    pub chip_sigma_mv: Millivolts,
    /// σ of per-device (local mismatch) Vth offset.
    pub device_sigma_mv: Millivolts,
}

impl Default for ProcessVariation {
    /// Typical 40 nm spreads: ±10 mV σ chip corner, ±6 mV σ local
    /// mismatch — enough to give each simulated chip a visibly different
    /// fresh RO frequency, as in the paper's chip set.
    fn default() -> Self {
        ProcessVariation {
            chip_sigma_mv: Millivolts::new(10.0),
            device_sigma_mv: Millivolts::new(6.0),
        }
    }
}

impl ProcessVariation {
    /// A variation-free process (all chips identical). Useful for tests
    /// that need exact baselines.
    #[must_use]
    pub fn none() -> Self {
        ProcessVariation {
            chip_sigma_mv: Millivolts::ZERO,
            device_sigma_mv: Millivolts::ZERO,
        }
    }

    /// Samples the chip-level threshold offset.
    #[must_use]
    pub fn sample_chip_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> Millivolts {
        sample_normal(rng) * self.chip_sigma_mv
    }

    /// Samples a single device's local mismatch offset.
    #[must_use]
    pub fn sample_device_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> Millivolts {
        sample_normal(rng) * self.device_sigma_mv
    }
}

/// Standard-normal sample via the Box–Muller transform (keeps the
/// dependency set to plain `rand`).
fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_sigma_means_zero_offsets() {
        let mut rng = StdRng::seed_from_u64(3);
        let pv = ProcessVariation::none();
        for _ in 0..10 {
            assert_eq!(pv.sample_chip_offset(&mut rng).get(), 0.0);
            assert_eq!(pv.sample_device_offset(&mut rng).get(), 0.0);
        }
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn chip_offsets_vary_between_chips() {
        let mut rng = StdRng::seed_from_u64(5);
        let pv = ProcessVariation::default();
        let a = pv.sample_chip_offset(&mut rng);
        let b = pv.sample_chip_offset(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn offset_scale_tracks_sigma() {
        let mut rng = StdRng::seed_from_u64(9);
        let pv = ProcessVariation {
            chip_sigma_mv: Millivolts::new(10.0),
            device_sigma_mv: Millivolts::new(6.0),
        };
        let n = 5000;
        let chip_rms = ((0..n)
            .map(|_| pv.sample_chip_offset(&mut rng).get().powi(2))
            .sum::<f64>()
            / n as f64)
            .sqrt();
        assert!((chip_rms - 10.0).abs() < 1.0, "rms = {chip_rms}");
    }
}
