//! The Fig. 3 test structure: a 75-inverter LUT-based ring oscillator with
//! an enable gate that selects between AC and DC stress modes.

use rand::Rng;
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::Environment;
use selfheal_units::{Hertz, Millivolts, Nanoseconds, Seconds, Volts};

use crate::family::Family;
use crate::netlist::InverterChain;

/// What the enable signal (and the power supply) make the ring oscillator
/// do during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoMode {
    /// `En` asserted: the loop oscillates — AC stress ("RO is always
    /// enabled to switch", case AS110AC24).
    Oscillating,
    /// `En` deasserted: the loop parks at alternating static levels — DC
    /// stress (cases AS110DC24/48, with brief enables only for sampling).
    Static,
    /// Sleep: the fabric is unclocked and the supply is gated to 0 V or
    /// driven negative — the recovery phase.
    Sleep,
}

impl std::fmt::Display for RoMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoMode::Oscillating => f.write_str("oscillating (AC)"),
            RoMode::Static => f.write_str("static (DC)"),
            RoMode::Sleep => f.write_str("sleep"),
        }
    }
}

/// The ring oscillator built from [`InverterChain`] stages.
///
/// The oscillation frequency is `1 / (2·T_poi)` where `T_poi` is the total
/// propagation delay around the loop — the quantity the paper's Eq. (15)
/// recovers from the counter reading.
#[derive(Debug, Clone, PartialEq)]
pub struct RingOscillator {
    chain: InverterChain,
}

impl RingOscillator {
    /// Samples a fresh RO with the family's stage count.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(family: &Family, chip_offset: Millivolts, rng: &mut R) -> Self {
        RingOscillator {
            chain: InverterChain::sample(family.ro_stages, family, chip_offset, rng),
        }
    }

    /// The underlying inverter chain (the circuit under test's POI).
    #[must_use]
    pub fn chain(&self) -> &InverterChain {
        &self.chain
    }

    /// The CUT delay `Td` — the POI propagation delay, i.e. half the
    /// oscillation period (Eq. 15's left-hand side).
    #[must_use]
    pub fn cut_delay(&self, vdd: Volts) -> Nanoseconds {
        self.chain.path_delay(vdd)
    }

    /// The oscillation frequency at supply `vdd`.
    ///
    /// Returns 0 Hz for an empty chain (nothing to oscillate).
    #[must_use]
    pub fn frequency(&self, vdd: Volts) -> Hertz {
        let td = self.cut_delay(vdd);
        if td.get() <= 0.0 {
            return Hertz::new(0.0);
        }
        Hertz::new(1e9 / (2.0 * td.get()))
    }

    /// The fresh CUT delay at the nominal supply.
    #[must_use]
    pub fn fresh_cut_delay(&self) -> Nanoseconds {
        self.chain.fresh_delay()
    }

    /// Ages the oscillator for `dt` in the given mode and environment.
    ///
    /// A gated or negative supply physically cannot keep the loop toggling
    /// or parked at CMOS levels, so any mode combined with `supply ≤ 0 V`
    /// behaves as [`RoMode::Sleep`].
    pub fn advance(&mut self, mode: RoMode, env: Environment, dt: Seconds) {
        self.advance_cached(mode, env, dt, &mut PhaseRateCache::new());
    }

    /// [`advance`](Self::advance) sharing a caller-owned rate cache —
    /// fabric-wide loops advance every oscillator under one cache so the
    /// per-condition rate multipliers are evaluated once for the whole
    /// array.
    pub fn advance_cached(
        &mut self,
        mode: RoMode,
        env: Environment,
        dt: Seconds,
        rates: &mut PhaseRateCache,
    ) {
        let effective = if env.supply().get() <= 0.0 {
            RoMode::Sleep
        } else {
            mode
        };
        match effective {
            RoMode::Oscillating => self.chain.advance_toggling(env, dt, rates),
            RoMode::Static => self.chain.advance_static(env, dt, rates),
            RoMode::Sleep => self.chain.advance_sleep(env, dt, rates),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours};

    fn ro() -> RingOscillator {
        let mut rng = StdRng::seed_from_u64(8);
        let family = Family::commercial_40nm().without_variation();
        RingOscillator::sample(&family, Millivolts::new(0.0), &mut rng)
    }

    fn hot() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(110.0))
    }

    #[test]
    fn fresh_frequency_matches_budget() {
        let ro = ro();
        // 90 ns POI ⇒ 180 ns period ⇒ ≈ 5.56 MHz.
        let f = ro.frequency(Volts::new(1.2));
        assert!((f.get() - 5.555e6).abs() < 1e4, "{f}");
        assert!((ro.cut_delay(Volts::new(1.2)).get() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn dc_stress_degrades_frequency() {
        let mut ro = ro();
        let fresh = ro.frequency(Volts::new(1.2));
        ro.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        let aged = ro.frequency(Volts::new(1.2));
        let deg = aged.degradation_from(fresh);
        assert!(deg > 0.012 && deg < 0.04, "degradation = {deg}");
    }

    #[test]
    fn ac_stress_degrades_about_half_as_much() {
        let mut dc = ro();
        let mut ac = ro();
        let vdd = Volts::new(1.2);
        let fresh = dc.frequency(vdd);
        dc.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        ac.advance(RoMode::Oscillating, hot(), Hours::new(24.0).into());
        let r =
            ac.frequency(vdd).degradation_from(fresh) / dc.frequency(vdd).degradation_from(fresh);
        assert!(r > 0.35 && r < 0.7, "AC/DC = {r}");
    }

    #[test]
    fn negative_supply_forces_sleep_mode() {
        let mut a = ro();
        let mut b = ro();
        let heal = Environment::new(Volts::new(-0.3), Celsius::new(110.0));
        // Stressing "in static mode" at a negative supply must behave like
        // sleep: identical to an explicit sleep call.
        a.advance(RoMode::Static, heal, Hours::new(6.0).into());
        b.advance(RoMode::Sleep, heal, Hours::new(6.0).into());
        assert_eq!(a, b);
    }

    #[test]
    fn sleep_after_stress_restores_frequency_partially() {
        let mut ro = ro();
        let vdd = Volts::new(1.2);
        let fresh = ro.frequency(vdd);
        ro.advance(RoMode::Static, hot(), Hours::new(24.0).into());
        let aged = ro.frequency(vdd);
        ro.advance(
            RoMode::Sleep,
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Hours::new(6.0).into(),
        );
        let healed = ro.frequency(vdd);
        assert!(healed > aged, "healing speeds the RO back up");
        assert!(healed < fresh, "but not all the way to fresh");
    }
}
