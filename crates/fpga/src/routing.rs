//! Routing blocks: the buffered interconnect between LUTs on the path of
//! interest.
//!
//! The paper's POI runs "from the input of the LUT-based inverter to the
//! output of the routing blocks" (§3.2). We model one routing block per
//! stage as a buffered switch with a pull-down NMOS (`R1`) and a pull-up
//! PMOS (`R2`); the device driving the parked logic level is the one under
//! DC stress, exactly as for the LUT's output buffer.

use rand::Rng;
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{Millivolts, Nanoseconds, Seconds, Volts};

use crate::family::Family;
use crate::transistor::{Polarity, Transistor};

/// One routing stage on the POI.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingBlock {
    devices: [Transistor; 2],
}

impl RoutingBlock {
    /// Samples a fresh routing block.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(family: &Family, chip_offset: Millivolts, rng: &mut R) -> Self {
        let mut mk = |name: &str, pol: Polarity| {
            let local = family.variation.sample_device_offset(rng);
            let vth = family.vth_nominal + Volts::from(chip_offset) + Volts::from(local);
            Transistor::sample(
                name,
                pol,
                vth,
                family.vth_nominal,
                family.routing_device_delay,
                &family.trap_params,
                rng,
            )
        };
        RoutingBlock {
            devices: [mk("R1", Polarity::Nmos), mk("R2", Polarity::Pmos)],
        }
    }

    /// The two routing devices (`R1` NMOS, `R2` PMOS).
    #[must_use]
    pub fn devices(&self) -> &[Transistor] {
        &self.devices
    }

    /// Which device is statically stressed when the routed net is parked at
    /// `value`: the NMOS for a high net, the PMOS for a low one.
    #[must_use]
    pub fn stressed_index(&self, value: bool) -> usize {
        usize::from(!value)
    }

    /// Routing delay through the block (both devices sit on the POI).
    #[must_use]
    pub fn delay(&self, vdd: Volts) -> Nanoseconds {
        self.devices.iter().map(|d| d.delay(vdd)).sum()
    }

    /// Ages the block with its input parked at `value` (DC stress).
    ///
    /// `rates` is a caller-owned rate cache, so a whole-chip advance
    /// evaluates each condition's rate multipliers once.
    pub fn advance_static(
        &mut self,
        value: bool,
        env: Environment,
        dt: Seconds,
        rates: &mut PhaseRateCache,
    ) {
        let stressed = self.stressed_index(value);
        for (idx, device) in self.devices.iter_mut().enumerate() {
            let cond = if idx == stressed {
                DeviceCondition::dc_stress(env)
            } else {
                DeviceCondition::recovery(env)
            };
            device.advance(&rates.rates(cond), dt);
        }
    }

    /// Ages the block while its input toggles (AC stress): both devices at
    /// 50 % duty.
    pub fn advance_toggling(&mut self, env: Environment, dt: Seconds, rates: &mut PhaseRateCache) {
        let ac = rates.rates(DeviceCondition::ac_stress(env));
        for device in &mut self.devices {
            device.advance(&ac, dt);
        }
    }

    /// Ages the block during sleep: both devices recover.
    pub fn advance_sleep(&mut self, env: Environment, dt: Seconds, rates: &mut PhaseRateCache) {
        let recovery = rates.rates(DeviceCondition::recovery(env));
        for device in &mut self.devices {
            device.advance(&recovery, dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours};

    fn fresh_block() -> RoutingBlock {
        let mut rng = StdRng::seed_from_u64(4);
        let family = Family::commercial_40nm().without_variation();
        RoutingBlock::sample(&family, Millivolts::new(0.0), &mut rng)
    }

    fn hot() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(110.0))
    }

    #[test]
    fn fresh_delay_matches_budget() {
        let block = fresh_block();
        assert!((block.delay(Volts::new(1.2)).get() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn parked_level_picks_the_stressed_device() {
        let block = fresh_block();
        assert_eq!(
            block.stressed_index(true),
            0,
            "high net stresses the NMOS R1"
        );
        assert_eq!(
            block.stressed_index(false),
            1,
            "low net stresses the PMOS R2"
        );
    }

    #[test]
    fn static_stress_only_ages_one_device() {
        let mut block = fresh_block();
        block.advance_static(
            true,
            hot(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );
        assert!(block.devices()[0].is_aged());
        assert!(!block.devices()[1].is_aged());
    }

    #[test]
    fn toggling_ages_both_but_less() {
        let mut parked = fresh_block();
        parked.advance_static(
            true,
            hot(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );
        let mut toggling = fresh_block();
        toggling.advance_toggling(hot(), Hours::new(24.0).into(), &mut PhaseRateCache::new());

        assert!(toggling.devices()[0].is_aged());
        assert!(toggling.devices()[1].is_aged());
        assert!(
            toggling.devices()[0].delta_vth().get() < parked.devices()[0].delta_vth().get(),
            "AC per-device shift is below DC"
        );
    }

    #[test]
    fn sleep_recovers_delay() {
        let mut block = fresh_block();
        block.advance_static(
            false,
            hot(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );
        let aged = block.delay(Volts::new(1.2));
        block.advance_sleep(
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Hours::new(6.0).into(),
            &mut PhaseRateCache::new(),
        );
        assert!(block.delay(Volts::new(1.2)) < aged);
    }
}
