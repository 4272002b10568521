//! A single FPGA device: polarity, fresh threshold (with process
//! variation) and its BTI aging state.

use rand::Rng;
use selfheal_bti::td::{PhaseRates, TrapBank, TrapEnsembleParams};
use selfheal_units::{Millivolts, Nanoseconds, Seconds, Volts};

use crate::delay::device_delay;

/// Device polarity. NMOS devices suffer PBTI under positive gate stress,
/// PMOS devices suffer NBTI under negative gate stress; the paper treats
/// the two as symmetric in magnitude for high-k 40 nm processes (§3.1),
/// and so do we — the polarity matters for *which bias condition counts as
/// stress*, which the LUT's structural analysis resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel device (pass transistors, buffer pull-down) — PBTI.
    Nmos,
    /// P-channel device (buffer pull-up) — NBTI.
    Pmos,
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Polarity::Nmos => f.write_str("NMOS"),
            Polarity::Pmos => f.write_str("PMOS"),
        }
    }
}

/// One transistor of the simulated fabric.
///
/// The `delay_share` is the device's fresh contribution to the
/// path-of-interest delay at the nominal operating point; devices not on
/// the POI have a zero share (their aging exists but does not slow the
/// oscillator — Hypothesis 1's "not all transistors on POI are under
/// stress" has the complementary face that not all stressed transistors
/// are on the POI).
#[derive(Debug, Clone, PartialEq)]
pub struct Transistor {
    name: String,
    polarity: Polarity,
    vth_fresh: Volts,
    vth_ref: Volts,
    delay_share: Nanoseconds,
    aging: TrapBank,
}

impl Transistor {
    /// Creates a device, sampling its trap population and taking a
    /// pre-computed fresh threshold (nominal + chip corner + local
    /// mismatch).
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        name: impl Into<String>,
        polarity: Polarity,
        vth_fresh: Volts,
        vth_ref: Volts,
        delay_share: Nanoseconds,
        trap_params: &TrapEnsembleParams,
        rng: &mut R,
    ) -> Self {
        Transistor {
            name: name.into(),
            polarity,
            vth_fresh,
            vth_ref,
            delay_share,
            aging: TrapBank::sample(trap_params, rng),
        }
    }

    /// The device's instance name (`M1`…`M8`, `R1`, `R2`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Fresh threshold magnitude (before any aging).
    #[must_use]
    pub fn vth_fresh(&self) -> Volts {
        self.vth_fresh
    }

    /// Current threshold magnitude: fresh + BTI shift.
    #[must_use]
    pub fn vth(&self) -> Volts {
        self.vth_fresh + Volts::from(self.delta_vth())
    }

    /// Current BTI threshold shift.
    #[must_use]
    pub fn delta_vth(&self) -> Millivolts {
        self.aging.delta_vth()
    }

    /// Whether this device has (measurably) aged.
    #[must_use]
    // analyzer: allow(test-only-pub) -- Hypothesis 2's fresh-device predicate, read by fpga_properties
    pub fn is_aged(&self) -> bool {
        self.delta_vth().get() > 1e-9
    }

    /// This device's fresh share of the POI delay.
    #[must_use]
    pub fn delay_share(&self) -> Nanoseconds {
        self.delay_share
    }

    /// Whether the device sits on the path of interest.
    #[must_use]
    pub fn is_on_poi(&self) -> bool {
        self.delay_share.get() > 0.0
    }

    /// The device's present delay contribution at supply `vdd` (Eq. 5).
    #[must_use]
    pub fn delay(&self, vdd: Volts) -> Nanoseconds {
        if !self.is_on_poi() {
            return Nanoseconds::ZERO;
        }
        device_delay(self.delay_share, vdd, self.vth(), self.vth_ref)
    }

    /// Ages the device by `dt` under a condition's pre-evaluated rate
    /// multipliers — chip-level advance loops hoist the transcendental
    /// work once per condition (a [`PhaseRateCache`](selfheal_bti::td::PhaseRateCache))
    /// and fan it out here.
    pub fn advance(&mut self, rates: &PhaseRates, dt: Seconds) {
        self.aging.advance_all(rates, dt);
    }

    /// Immutable view of the trap population (for diagnostics).
    #[must_use]
    pub fn aging(&self) -> &TrapBank {
        &self.aging
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_bti::{DeviceCondition, Environment};
    use selfheal_units::{Celsius, Hours};

    fn device(share: f64) -> Transistor {
        let mut rng = StdRng::seed_from_u64(5);
        Transistor::sample(
            "M1",
            Polarity::Nmos,
            Volts::new(0.40),
            Volts::new(0.40),
            Nanoseconds::new(share),
            &TrapEnsembleParams::default(),
            &mut rng,
        )
    }

    fn stress() -> PhaseRates {
        PhaseRates::for_condition(DeviceCondition::dc_stress(Environment::new(
            Volts::new(1.2),
            Celsius::new(110.0),
        )))
    }

    #[test]
    fn fresh_device_delay_equals_share() {
        let t = device(0.15);
        assert_eq!(t.delay(Volts::new(1.2)), Nanoseconds::new(0.15));
        assert!(!t.is_aged());
    }

    #[test]
    fn stressed_device_slows_down() {
        let mut t = device(0.15);
        t.advance(&stress(), Hours::new(24.0).into());
        assert!(t.is_aged());
        assert!(t.delay(Volts::new(1.2)) > Nanoseconds::new(0.15));
        assert!(t.vth() > t.vth_fresh());
    }

    #[test]
    fn off_poi_device_contributes_no_delay() {
        let mut t = device(0.0);
        t.advance(&stress(), Hours::new(24.0).into());
        assert!(t.is_aged(), "it ages...");
        assert_eq!(
            t.delay(Volts::new(1.2)),
            Nanoseconds::ZERO,
            "...but adds no delay"
        );
        assert!(!t.is_on_poi());
    }

    #[test]
    fn variation_offsets_move_fresh_threshold() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Transistor::sample(
            "M2",
            Polarity::Pmos,
            Volts::new(0.412),
            Volts::new(0.40),
            Nanoseconds::new(0.15),
            &TrapEnsembleParams::default(),
            &mut rng,
        );
        // A slow corner device is slower than nominal even when fresh.
        assert!(t.delay(Volts::new(1.2)) > Nanoseconds::new(0.15));
    }

    #[test]
    fn names_and_polarity_survive() {
        let t = device(0.1);
        assert_eq!(t.name(), "M1");
        assert_eq!(t.polarity(), Polarity::Nmos);
        assert_eq!(Polarity::Pmos.to_string(), "PMOS");
    }
}
