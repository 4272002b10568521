//! The Fig. 2 pass-transistor 2-input LUT.
//!
//! Structure (all pass devices NMOS, as in the paper's generic PT-based
//! LUT):
//!
//! ```text
//!             branch A (selected when In1 = 1)
//!   c11 --[M1: gate=In0 ]--+
//!   c10 --[M2: gate=!In0]--+--[M5: gate=In1 ]--+
//!             branch B (selected when In1 = 0)  +--> internal --[buffer]--> out
//!   c01 --[M3: gate=In0 ]--+                    |
//!   c00 --[M4: gate=!In0]--+--[M6: gate=!In1]--+
//! ```
//!
//! The output buffer is modelled as its two devices, `M7` (NMOS pull-down,
//! PBTI-stressed while the internal node is high) and `M8` (PMOS pull-up,
//! NBTI-stressed while it is low).
//!
//! **Stress rule.** A pass NMOS is BTI-stressed exactly when its gate is
//! high *and* it is passing a logic 0: only then is the full `Vgs = Vdd`
//! across the oxide. A gate-high device passing a 1 sits at
//! `Vgs ≈ Vth` — no meaningful stress. This single physical rule
//! reproduces the paper's §3.2 example verbatim for the LUT-mapped
//! inverter: with `In0 = 1`, `{M1, M5}` (plus the buffer PMOS `M8`) are
//! stressed; with `In0 = 0`, only the buffer NMOS `M7` is.

use rand::Rng;
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{DutyCycle, Millivolts, Nanoseconds, Seconds, Volts};

use crate::family::Family;
use crate::transistor::{Polarity, Transistor};

/// Indices of the LUT's devices in its device vector.
const M1: usize = 0;
const M2: usize = 1;
const M3: usize = 2;
const M4: usize = 3;
const M5: usize = 4;
const M6: usize = 5;
const M7: usize = 6;
const M8: usize = 7;

/// The four configuration bits of a 2-input LUT, indexed by
/// `(In1 << 1) | In0`.
///
/// # Examples
///
/// ```
/// use selfheal_fpga::LutConfig;
///
/// let inv = LutConfig::inverter_in0();
/// assert!(!inv.evaluate(true, true));  // In0 = 1 → 0
/// assert!(inv.evaluate(false, true));  // In0 = 0 → 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LutConfig {
    bits: [bool; 4],
}

impl LutConfig {
    /// Creates a configuration from `[c00, c01, c10, c11]` where `cXY` is
    /// the output for `In1 = X`, `In0 = Y`.
    #[must_use]
    pub const fn new(bits: [bool; 4]) -> Self {
        LutConfig { bits }
    }

    /// The paper's LUT-mapped inverter: with `In1` tied high the output is
    /// `!In0`.
    ///
    /// The two don't-care bits (`In1 = 0` rows) are set high so that no
    /// off-branch device is parked on a logic 0 — this makes the static
    /// stress sets match the paper's example exactly (`{M1, M5}` vs
    /// `{M7}`).
    #[must_use]
    pub const fn inverter_in0() -> Self {
        // [c00, c01, c10, c11]
        LutConfig::new([true, true, true, false])
    }

    /// Looks up the configured output for an input pair.
    #[must_use]
    pub fn evaluate(&self, in0: bool, in1: bool) -> bool {
        self.bits[(usize::from(in1) << 1) | usize::from(in0)]
    }

    /// The raw bit the mux tree routes for `(in0, in1)` — identical to
    /// [`Self::evaluate`] for a PT tree, exposed for structural tests.
    #[must_use]
    pub fn bit(&self, index: usize) -> bool {
        self.bits[index]
    }
}

/// One pass-transistor LUT instance with live devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Lut {
    config: LutConfig,
    devices: Vec<Transistor>,
}

impl Lut {
    /// Samples a fresh LUT of the given family, applying the chip's corner
    /// offset plus fresh per-device mismatch.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        config: LutConfig,
        family: &Family,
        chip_offset: Millivolts,
        rng: &mut R,
    ) -> Self {
        let mk_vth = |rng: &mut R| {
            let local = family.variation.sample_device_offset(rng);
            family.vth_nominal + Volts::from(chip_offset) + Volts::from(local)
        };
        let pass = family.pass_delay;
        let buf = family.buffer_delay;
        let spec: [(&str, Polarity, Nanoseconds); 8] = [
            ("M1", Polarity::Nmos, pass),
            ("M2", Polarity::Nmos, pass),
            ("M3", Polarity::Nmos, pass),
            ("M4", Polarity::Nmos, pass),
            ("M5", Polarity::Nmos, pass),
            ("M6", Polarity::Nmos, pass),
            ("M7", Polarity::Nmos, buf),
            ("M8", Polarity::Pmos, buf),
        ];
        let devices = spec
            .into_iter()
            .map(|(name, pol, share)| {
                let vth = mk_vth(rng);
                Transistor::sample(
                    name,
                    pol,
                    vth,
                    family.vth_nominal,
                    share,
                    &family.trap_params,
                    rng,
                )
            })
            .collect();
        Lut { config, devices }
    }

    /// The LUT's configuration.
    #[must_use]
    pub fn config(&self) -> LutConfig {
        self.config
    }

    /// The LUT's devices (`M1`…`M8`).
    #[must_use]
    pub fn devices(&self) -> &[Transistor] {
        &self.devices
    }

    /// Logic output for an input pair.
    #[must_use]
    pub fn evaluate(&self, in0: bool, in1: bool) -> bool {
        self.config.evaluate(in0, in1)
    }

    /// Device indices on the path of interest for the given inputs: the
    /// selected level-1 pass device, the selected level-2 pass device and
    /// both buffer devices.
    #[must_use]
    pub fn poi_indices(&self, in0: bool, in1: bool) -> [usize; 4] {
        let level1 = match (in1, in0) {
            (true, true) => M1,
            (true, false) => M2,
            (false, true) => M3,
            (false, false) => M4,
        };
        let level2 = if in1 { M5 } else { M6 };
        [level1, level2, M7, M8]
    }

    /// Device indices statically stressed while the inputs are held at
    /// `(in0, in1)` — the DC stress set of Hypothesis 1.
    #[must_use]
    pub fn stressed_indices(&self, in0: bool, in1: bool) -> Vec<usize> {
        let mut stressed = Vec::new();
        let c = &self.config;
        // Level-1 pass devices: stressed when gate high and passing a 0.
        let level1 = [
            (M1, in0, c.bit(0b11)),
            (M2, !in0, c.bit(0b10)),
            (M3, in0, c.bit(0b01)),
            (M4, !in0, c.bit(0b00)),
        ];
        for (idx, gate, value) in level1 {
            if gate && !value {
                stressed.push(idx);
            }
        }
        // Level-2 pass devices pass their branch's selected value.
        let branch_a = if in0 { c.bit(0b11) } else { c.bit(0b10) };
        let branch_b = if in0 { c.bit(0b01) } else { c.bit(0b00) };
        if in1 && !branch_a {
            stressed.push(M5);
        }
        if !in1 && !branch_b {
            stressed.push(M6);
        }
        // Buffer: NMOS stressed on a high internal node, PMOS on a low one.
        let internal = self.evaluate(in0, in1);
        if internal {
            stressed.push(M7);
        } else {
            stressed.push(M8);
        }
        stressed
    }

    /// Propagation delay through the LUT for a specific input state.
    #[must_use]
    pub fn path_delay(&self, vdd: Volts, in0: bool, in1: bool) -> Nanoseconds {
        self.poi_indices(in0, in1)
            .into_iter()
            .map(|i| self.devices[i].delay(vdd))
            .sum()
    }

    /// The delay that matters while the oscillator toggles `In0`: the
    /// average of the two input states' path delays (the RO's period is set
    /// by alternating rising/falling propagations).
    #[must_use]
    pub fn switching_delay(&self, vdd: Volts, in1: bool) -> Nanoseconds {
        (self.path_delay(vdd, false, in1) + self.path_delay(vdd, true, in1)) / 2.0
    }

    /// Ages the LUT with inputs held statically at `(in0, in1)` — DC
    /// stress. Stressed devices see full DC stress; the rest passively
    /// recover at the same environment.
    ///
    /// `rates` is a caller-owned rate cache, so a whole-chip advance
    /// evaluates each condition's rate multipliers once.
    pub fn advance_static(
        &mut self,
        in0: bool,
        in1: bool,
        env: Environment,
        dt: Seconds,
        rates: &mut PhaseRateCache,
    ) {
        let stressed = self.stressed_indices(in0, in1);
        for (idx, device) in self.devices.iter_mut().enumerate() {
            let cond = if stressed.contains(&idx) {
                DeviceCondition::dc_stress(env)
            } else {
                DeviceCondition::recovery(env)
            };
            device.advance_with_rates(&rates.rates(cond), dt);
        }
    }

    /// Ages the LUT while `In0` toggles (AC stress): each device's stress
    /// duty is the fraction of the two `In0` states in which it is
    /// statically stressed.
    pub fn advance_toggling(
        &mut self,
        in1: bool,
        env: Environment,
        dt: Seconds,
        rates: &mut PhaseRateCache,
    ) {
        let low = self.stressed_indices(false, in1);
        let high = self.stressed_indices(true, in1);
        for (idx, device) in self.devices.iter_mut().enumerate() {
            let count = u8::from(low.contains(&idx)) + u8::from(high.contains(&idx));
            let duty = DutyCycle::new(f64::from(count) / 2.0);
            device.advance_with_rates(&rates.rates(DeviceCondition::new(env, duty)), dt);
        }
    }

    /// Ages the LUT during sleep: no device is stressed; all recover under
    /// the (possibly negative-voltage, possibly heated) sleep environment.
    pub fn advance_sleep(&mut self, env: Environment, dt: Seconds, rates: &mut PhaseRateCache) {
        let recovery = rates.rates(DeviceCondition::recovery(env));
        for device in &mut self.devices {
            device.advance_with_rates(&recovery, dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours};

    fn fresh_inverter() -> Lut {
        let mut rng = StdRng::seed_from_u64(2);
        let family = Family::commercial_40nm().without_variation();
        Lut::sample(LutConfig::inverter_in0(), &family, Millivolts::new(0.0), &mut rng)
    }

    fn hot_stress() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(110.0))
    }

    #[test]
    fn inverter_truth_table() {
        let lut = fresh_inverter();
        assert!(!lut.evaluate(true, true), "In0=1 → 0");
        assert!(lut.evaluate(false, true), "In0=0 → 1");
    }

    #[test]
    fn paper_stress_example_in0_high() {
        // §3.2: "Assume the inverter is under DC stress, and In0 is always
        // 1. M1, M5 are under stress" (plus the buffer PMOS M8, which the
        // paper's NMOS-focused narration leaves implicit).
        let lut = fresh_inverter();
        let mut stressed = lut.stressed_indices(true, true);
        stressed.sort_unstable();
        assert_eq!(stressed, vec![M1, M5, M8]);
    }

    #[test]
    fn paper_stress_example_in0_low() {
        // §3.2: "If In0 is always 0, only M7 is under stress."
        let lut = fresh_inverter();
        assert_eq!(lut.stressed_indices(false, true), vec![M7]);
    }

    #[test]
    fn hypothesis_1_stress_set_is_constant_under_dc() {
        // The stress set depends only on the inputs, not on elapsed time.
        let mut lut = fresh_inverter();
        let before = lut.stressed_indices(true, true);
        lut.advance_static(
            true,
            true,
            hot_stress(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );
        let after = lut.stressed_indices(true, true);
        assert_eq!(before, after);
    }

    #[test]
    fn hypothesis_2_recovery_only_affects_stressed_devices() {
        let mut lut = fresh_inverter();
        lut.advance_static(
            true,
            true,
            hot_stress(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );
        let aged: Vec<bool> = lut.devices().iter().map(Transistor::is_aged).collect();

        // Deep rejuvenation:
        lut.advance_sleep(
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Hours::new(6.0).into(),
            &mut PhaseRateCache::new(),
        );
        for (device, was_aged) in lut.devices().iter().zip(aged) {
            if !was_aged {
                assert!(
                    !device.is_aged(),
                    "fresh device {} must stay fresh through recovery",
                    device.name()
                );
            }
        }
    }

    #[test]
    fn poi_follows_selected_branch() {
        let lut = fresh_inverter();
        assert_eq!(lut.poi_indices(true, true), [M1, M5, M7, M8]);
        assert_eq!(lut.poi_indices(false, true), [M2, M5, M7, M8]);
        assert_eq!(lut.poi_indices(true, false), [M3, M6, M7, M8]);
        assert_eq!(lut.poi_indices(false, false), [M4, M6, M7, M8]);
    }

    #[test]
    fn fresh_path_delay_matches_budget() {
        let lut = fresh_inverter();
        // 2 × 0.15 (pass) + 2 × 0.125 (buffer) = 0.55 ns.
        let d = lut.path_delay(Volts::new(1.2), true, true);
        assert!((d.get() - 0.55).abs() < 1e-12, "{d}");
        let s = lut.switching_delay(Volts::new(1.2), true);
        assert!((s.get() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn dc_stress_slows_the_stressed_path_more() {
        let mut lut = fresh_inverter();
        lut.advance_static(
            true,
            true,
            hot_stress(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );
        let stressed_path = lut.path_delay(Volts::new(1.2), true, true);
        let other_path = lut.path_delay(Volts::new(1.2), false, true);
        // Both paths share the aged M5/M8, but the stressed path also has
        // the aged M1 while the other has the fresh M2.
        assert!(stressed_path > other_path);
        assert!(other_path > Nanoseconds::new(0.55));
    }

    #[test]
    fn toggling_duties_match_static_union() {
        let lut = fresh_inverter();
        let low = lut.stressed_indices(false, true);
        let high = lut.stressed_indices(true, true);
        // AC stresses exactly the union of the two static sets.
        let union: Vec<usize> = (0..8)
            .filter(|i| low.contains(i) || high.contains(i))
            .collect();
        assert_eq!(union, vec![M1, M5, M7, M8]);
    }

    #[test]
    fn ac_ages_less_than_dc_per_lut() {
        let family = Family::commercial_40nm().without_variation();
        let mut rng = StdRng::seed_from_u64(3);
        let mut dc = Lut::sample(LutConfig::inverter_in0(), &family, Millivolts::new(0.0), &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let mut ac = Lut::sample(LutConfig::inverter_in0(), &family, Millivolts::new(0.0), &mut rng);

        dc.advance_static(
            true,
            true,
            hot_stress(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );
        ac.advance_toggling(
            true,
            hot_stress(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );

        let vdd = Volts::new(1.2);
        let dc_shift = dc.switching_delay(vdd, true).get() - 0.55;
        let ac_shift = ac.switching_delay(vdd, true).get() - 0.55;
        assert!(dc_shift > 0.0 && ac_shift > 0.0);
        assert!(ac_shift < dc_shift, "AC {ac_shift} vs DC {dc_shift}");
    }

    #[test]
    fn sleep_heals_a_stressed_lut() {
        let mut lut = fresh_inverter();
        lut.advance_static(
            true,
            true,
            hot_stress(),
            Hours::new(24.0).into(),
            &mut PhaseRateCache::new(),
        );
        let vdd = Volts::new(1.2);
        let aged = lut.switching_delay(vdd, true);
        lut.advance_sleep(
            Environment::new(Volts::new(-0.3), Celsius::new(110.0)),
            Hours::new(6.0).into(),
            &mut PhaseRateCache::new(),
        );
        let healed = lut.switching_delay(vdd, true);
        assert!(healed < aged);
        assert!(healed.get() > 0.55, "partial recovery only");
    }

    #[test]
    fn config_bit_indexing() {
        let c = LutConfig::new([false, true, false, true]);
        assert!(!c.evaluate(false, false)); // c00
        assert!(c.evaluate(true, false)); // c01
        assert!(!c.evaluate(false, true)); // c10
        assert!(c.evaluate(true, true)); // c11
    }
}
