//! An on-chip aging odometer (the paper's refs \[7, 8\]: Kim et al.'s
//! "Silicon Odometer" and Cabe et al.'s embeddable NBTI sensors).
//!
//! Two matched ring oscillators: a **witness** that shares the fabric's
//! stress history, and a **reference** that is kept power-gated except
//! during the brief differential measurement and therefore stays nearly
//! fresh. The fractional beat between them reads out the accumulated
//! degradation without needing any off-chip baseline — exactly the signal
//! a *reactive* rejuvenation policy (§2.2) needs, and the reason reactive
//! policies carry a hardware cost that proactive ones avoid.

use rand::Rng;
use selfheal_bti::Environment;
use selfheal_units::{Fraction, Millivolts, Seconds, Volts};

use crate::family::Family;
use crate::ring_oscillator::{RingOscillator, RoMode};

/// A differential aging sensor.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use selfheal_bti::Environment;
/// use selfheal_fpga::{Family, Odometer, RoMode};
/// use selfheal_units::{Celsius, Hours, Millivolts, Volts};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let family = Family::commercial_40nm();
/// let mut odo = Odometer::sample(&family, Millivolts::new(0.0), &mut rng);
/// assert!(odo.read().get() < 0.002, "fresh sensor reads ~zero");
///
/// let stress = Environment::new(Volts::new(1.2), Celsius::new(110.0));
/// odo.advance(RoMode::Static, stress, Hours::new(24.0).into());
/// assert!(odo.read().get() > 0.01, "a day of hot stress registers");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Odometer {
    witness: RingOscillator,
    reference: RingOscillator,
    vdd: Volts,
}

impl Odometer {
    /// Number of stages in each sensor oscillator — much smaller than the
    /// 75-stage CUT; odometers are meant to be sprinkled around the die.
    pub const STAGES: usize = 15;

    /// Samples a matched sensor pair on the given process corner.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(family: &Family, chip_offset: Millivolts, rng: &mut R) -> Self {
        let mut small = family.clone();
        small.ro_stages = Self::STAGES;
        Odometer {
            witness: RingOscillator::sample(&small, chip_offset, rng),
            reference: RingOscillator::sample(&small, chip_offset, rng),
            vdd: family.vdd_nominal,
        }
    }

    /// Ages the sensor along with the fabric: the witness sees the
    /// fabric's mode and environment; the reference stays gated (it only
    /// wakes for measurements, whose duration is negligible).
    pub fn advance(&mut self, mode: RoMode, env: Environment, dt: Seconds) {
        self.witness.advance(mode, env, dt);
        // The reference is power-gated at the same temperature: it takes
        // no stress and barely moves (residual passive recovery of an
        // unstressed oscillator is a no-op).
        self.reference
            .advance(RoMode::Sleep, env.with_supply(Volts::ZERO), dt);
    }

    /// The fractional beat `(f_ref − f_wit) / f_ref`: ≈ 0 when fresh,
    /// growing with accumulated degradation. Mismatch between the two
    /// oscillators' process corners appears as a (small, constant) offset,
    /// as it does in the real sensor.
    #[must_use]
    pub fn read(&self) -> Fraction {
        let f_ref = self.reference.frequency(self.vdd);
        let f_wit = self.witness.frequency(self.vdd);
        Fraction::new(f_wit.degradation_from(f_ref))
    }

    /// Estimated consumed fraction of a wear budget, given the margin as
    /// the maximum tolerable fractional slowdown — the input a
    /// [`ReactivePolicy`](https://docs.rs/) style controller polls.
    #[must_use]
    pub fn margin_consumed(&self, margin: Fraction) -> Fraction {
        if margin.get() <= 0.0 {
            return Fraction::ONE;
        }
        Fraction::new(self.read().get() / margin.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours};

    fn odo(seed: u64) -> Odometer {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = Family::commercial_40nm().without_variation();
        Odometer::sample(&family, Millivolts::new(0.0), &mut rng)
    }

    fn hot() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(110.0))
    }

    #[test]
    fn fresh_sensor_reads_zero() {
        let o = odo(1);
        assert!(o.read().get() < 1e-9, "matched fresh pair: {}", o.read());
    }

    #[test]
    fn reading_grows_with_stress() {
        let mut o = odo(2);
        let mut previous = o.read().get();
        for _ in 0..3 {
            o.advance(RoMode::Static, hot(), Hours::new(8.0).into());
            let now = o.read().get();
            assert!(now > previous, "odometer only counts up under stress");
            previous = now;
        }
        assert!(
            previous > 0.005 && previous < 0.05,
            "plausible scale: {previous}"
        );
    }

    #[test]
    fn reference_stays_fresh() {
        let mut o = odo(3);
        o.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        let f_ref = o.reference.frequency(Volts::new(1.2));
        let fresh_ref = 1e9 / (2.0 * o.reference.fresh_cut_delay().get());
        assert!(
            (f_ref.get() - fresh_ref).abs() / fresh_ref < 1e-6,
            "gated reference must not age"
        );
    }

    #[test]
    fn reading_falls_after_rejuvenation() {
        let mut o = odo(4);
        o.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        let aged = o.read().get();
        o.advance(
            RoMode::Sleep,
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Hours::new(6.0).into(),
        );
        let healed = o.read().get();
        assert!(healed < aged, "{aged} → {healed}");
        assert!(healed > 0.0, "partial recovery only");
    }

    #[test]
    fn margin_consumed_scales_reading() {
        let mut o = odo(5);
        o.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        let read = o.read().get();
        let consumed = o.margin_consumed(Fraction::new(0.05)).get();
        assert!((consumed - read / 0.05).abs() < 1e-9);
        assert_eq!(
            o.margin_consumed(Fraction::ZERO).get(),
            1.0,
            "degenerate margin"
        );
    }
}
