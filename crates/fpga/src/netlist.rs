//! The path of interest: a chain of LUT-mapped inverters and routing
//! blocks (Eq. 7's `LD` and `Ns` live here).

use rand::Rng;
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::Environment;
use selfheal_units::{Millivolts, Nanoseconds, Seconds, Volts};

use crate::family::Family;
use crate::lut::{Lut, LutConfig};
use crate::routing::RoutingBlock;

/// One inverter stage: a LUT plus its downstream routing block.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The LUT-mapped inverter.
    pub lut: Lut,
    /// The routing block carrying its output to the next stage.
    pub routing: RoutingBlock,
}

/// A chain of LUT-mapped inverters — the circuit under test's path of
/// interest.
///
/// `In1` is tied high on every LUT (the paper's inverter mapping). When the
/// chain is *disabled* (DC stress mode) the loop parks with alternating
/// logic levels: stage `i` sees input `1` for even `i` — so even stages
/// carry the paper's `{M1, M5}`-style stress set and odd stages the `{M7}`
/// set, and about half of the POI devices are stressed in total.
#[derive(Debug, Clone, PartialEq)]
pub struct InverterChain {
    stages: Vec<Stage>,
    fresh_delay: Nanoseconds,
    vdd_nominal: Volts,
}

impl InverterChain {
    /// Samples a fresh chain of `n` inverter stages.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        n: usize,
        family: &Family,
        chip_offset: Millivolts,
        rng: &mut R,
    ) -> Self {
        let stages: Vec<Stage> = (0..n)
            .map(|_| Stage {
                lut: Lut::sample(LutConfig::inverter_in0(), family, chip_offset, rng),
                routing: RoutingBlock::sample(family, chip_offset, rng),
            })
            .collect();
        let mut chain = InverterChain {
            stages,
            fresh_delay: Nanoseconds::ZERO,
            vdd_nominal: family.vdd_nominal,
        };
        chain.fresh_delay = chain.path_delay(family.vdd_nominal);
        chain
    }

    /// Number of stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stages.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The input level stage `i` parks at while the chain is disabled.
    #[must_use]
    pub fn static_input(i: usize) -> bool {
        i.is_multiple_of(2)
    }

    /// Total propagation delay along the POI at supply `vdd`.
    #[must_use]
    pub fn path_delay(&self, vdd: Volts) -> Nanoseconds {
        self.stages
            .iter()
            .map(|s| s.lut.switching_delay(vdd, true) + s.routing.delay(vdd))
            .sum()
    }

    /// The chain's fresh POI delay at the nominal supply, recorded at
    /// construction.
    #[must_use]
    pub fn fresh_delay(&self) -> Nanoseconds {
        self.fresh_delay
    }

    /// Current POI delay shift versus fresh, at the nominal supply.
    #[must_use]
    pub fn delay_shift(&self) -> Nanoseconds {
        self.path_delay(self.vdd_nominal) - self.fresh_delay
    }

    /// Ages the chain with the loop parked (DC stress).
    ///
    /// `rates` is a caller-owned rate cache, so a whole-chip advance
    /// evaluates each condition's rate multipliers once.
    pub fn advance_static(&mut self, env: Environment, dt: Seconds, rates: &mut PhaseRateCache) {
        for (i, stage) in self.stages.iter_mut().enumerate() {
            let in0 = Self::static_input(i);
            stage.lut.advance_static(in0, true, env, dt, rates);
            // The routing net parks at the LUT's output level.
            let out = stage.lut.evaluate(in0, true);
            stage.routing.advance_static(out, env, dt, rates);
        }
    }

    /// Ages the chain while it oscillates (AC stress).
    pub fn advance_toggling(&mut self, env: Environment, dt: Seconds, rates: &mut PhaseRateCache) {
        for stage in &mut self.stages {
            stage.lut.advance_toggling(true, env, dt, rates);
            stage.routing.advance_toggling(env, dt, rates);
        }
    }

    /// Ages the chain during sleep (no stress anywhere).
    pub fn advance_sleep(&mut self, env: Environment, dt: Seconds, rates: &mut PhaseRateCache) {
        for stage in &mut self.stages {
            stage.lut.advance_sleep(env, dt, rates);
            stage.routing.advance_sleep(env, dt, rates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours};

    fn chain(n: usize) -> InverterChain {
        let mut rng = StdRng::seed_from_u64(6);
        let family = Family::commercial_40nm().without_variation();
        InverterChain::sample(n, &family, Millivolts::new(0.0), &mut rng)
    }

    fn hot() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(110.0))
    }

    #[test]
    fn fresh_delay_budget_for_75_stages() {
        let c = chain(75);
        assert!(
            (c.fresh_delay().get() - 90.0).abs() < 1e-9,
            "{}",
            c.fresh_delay()
        );
        assert_eq!(c.len(), 75);
        assert!(!c.is_empty());
    }

    #[test]
    fn static_levels_alternate() {
        assert!(InverterChain::static_input(0));
        assert!(!InverterChain::static_input(1));
        assert!(InverterChain::static_input(2));
    }

    #[test]
    fn dc_stress_shifts_delay_about_two_percent() {
        let mut c = chain(75);
        c.advance_static(hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());
        let rel = c.delay_shift().get() / c.fresh_delay().get();
        assert!(rel > 0.012 && rel < 0.04, "relative shift = {rel}");
    }

    #[test]
    fn ac_path_shift_is_about_half_of_dc() {
        let mut dc = chain(75);
        dc.advance_static(hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());
        let mut ac = chain(75);
        ac.advance_toggling(hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());
        let ratio = ac.delay_shift().get() / dc.delay_shift().get();
        assert!(ratio > 0.35 && ratio < 0.7, "AC/DC path ratio = {ratio}");
    }

    #[test]
    fn sleep_recovers_most_of_the_shift() {
        let mut c = chain(75);
        c.advance_static(hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());
        let aged = c.delay_shift().get();
        c.advance_sleep(
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Hours::new(6.0).into(),
            &mut PhaseRateCache::new(),
        );
        let healed = c.delay_shift().get();
        let recovered = (aged - healed) / aged;
        assert!(
            recovered > 0.6 && recovered < 0.9,
            "recovered fraction = {recovered}"
        );
    }

    #[test]
    fn empty_chain_is_harmless() {
        let mut c = chain(0);
        assert!(c.is_empty());
        assert_eq!(c.path_delay(Volts::new(1.2)), Nanoseconds::ZERO);
        c.advance_static(hot(), Hours::new(1.0).into(), &mut PhaseRateCache::new());
        assert_eq!(c.delay_shift(), Nanoseconds::ZERO);
    }
}
