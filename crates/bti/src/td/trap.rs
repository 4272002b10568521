//! A single oxide trap: a two-state Markov system with an exact
//! inter-interval occupancy solution.

use selfheal_units::{Millivolts, Seconds};

use crate::condition::DeviceCondition;

use super::kernel::PhaseRates;

/// One oxide trap.
///
/// The trap's *tabulated* capture and emission time constants (`tau_c0`,
/// `tau_e0`, in seconds) are defined at the reference condition (110 °C,
/// 1.2 V DC stress for capture; 110 °C, 0 V rest for emission). The
/// effective rates under any other condition come from the acceleration
/// functions re-exported at the [`crate::td`] module root
/// ([`crate::td::capture_rate_multiplier`] and friends).
///
/// Occupancy is tracked as a probability in `[0, 1]` (the expected value of
/// the telegraph process) rather than a sampled binary state: with tens of
/// thousands of traps per ring oscillator, the expected-value evolution is
/// indistinguishable from sampling and makes the experiments deterministic
/// given a seed.
///
/// `permanent` traps never emit once captured — they model the
/// irreversible component of aging the paper notes "accumulates at a
/// different rate" and can never be healed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trap {
    tau_c0: f64,
    tau_e0: f64,
    delta_vth: Millivolts,
    permanent: bool,
    occupancy: f64,
}

impl Trap {
    /// Creates a fresh (unoccupied) trap.
    ///
    /// # Panics
    ///
    /// Panics if either time constant is non-positive or NaN, or if the
    /// per-trap threshold step is negative — those are construction bugs,
    /// not run-time conditions.
    #[must_use]
    pub fn new(tau_c0: Seconds, tau_e0: Seconds, delta_vth: Millivolts, permanent: bool) -> Self {
        assert!(
            tau_c0.get() > 0.0 && tau_c0.get().is_finite(),
            "capture time constant must be positive and finite"
        );
        assert!(
            tau_e0.get() > 0.0,
            "emission time constant must be positive"
        );
        assert!(
            delta_vth.get() >= 0.0,
            "per-trap ΔVth step must be non-negative"
        );
        Trap {
            tau_c0: tau_c0.get(),
            tau_e0: tau_e0.get(),
            delta_vth,
            permanent,
            occupancy: 0.0,
        }
    }

    /// Rebuilds a trap at a given occupancy. Unlike [`Trap::new`] this
    /// sets `occupancy` verbatim, so tests can start the scalar oracle
    /// and a [`TrapBank`](crate::td::TrapBank) from any state.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid constants as [`Trap::new`], or if
    /// `occupancy` lies outside `[0, 1]`.
    #[must_use]
    // analyzer: allow(test-only-pub) -- the kernel-equivalence oracle starts from any occupancy
    pub fn restore(
        tau_c0: Seconds,
        tau_e0: Seconds,
        delta_vth: Millivolts,
        permanent: bool,
        occupancy: f64,
    ) -> Self {
        let mut trap = Trap::new(tau_c0, tau_e0, delta_vth, permanent);
        assert!(
            (0.0..=1.0).contains(&occupancy),
            "occupancy must be a probability, got {occupancy}"
        );
        trap.occupancy = occupancy;
        trap
    }

    /// The tabulated capture time constant at reference stress.
    #[must_use]
    pub fn tau_c0(&self) -> Seconds {
        Seconds::new(self.tau_c0)
    }

    /// The tabulated emission time constant at reference rest.
    #[must_use]
    pub fn tau_e0(&self) -> Seconds {
        Seconds::new(if self.permanent {
            f64::INFINITY
        } else {
            self.tau_e0
        })
    }

    /// The threshold-voltage step this trap contributes when occupied.
    #[must_use]
    pub fn delta_vth_step(&self) -> Millivolts {
        self.delta_vth
    }

    /// Whether this trap is irreversible once filled.
    #[must_use]
    // analyzer: allow(test-only-pub) -- the permanent floor the bti properties pin is summed from it
    pub fn is_permanent(&self) -> bool {
        self.permanent
    }

    /// Current occupancy probability.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.occupancy
    }

    /// Expected `ΔVth` contribution right now.
    #[must_use]
    // analyzer: allow(test-only-pub) -- the scalar oracle's ΔVth sum, read by the kernel-equivalence pin
    pub fn contribution(&self) -> Millivolts {
        Millivolts::new(self.occupancy * self.delta_vth.get())
    }

    /// Advances the trap by `dt` under a *constant* condition, using the
    /// exact solution `p(t+dt) = p∞ + (p − p∞)·e^(−dt/τ)`.
    ///
    /// Because the solution is exact, callers may take arbitrarily large
    /// steps as long as the condition is constant over the step — this is
    /// what lets 24-hour stress phases simulate in microseconds.
    ///
    /// This per-trap path re-derives the condition's rate multipliers on
    /// every call; it is the scalar oracle the
    /// [`TrapBank`](super::TrapBank) kernel is pinned against bit for bit.
    pub fn advance(&mut self, cond: DeviceCondition, dt: Seconds) {
        if dt.is_zero_or_negative() {
            return;
        }
        let tau_e = if self.permanent {
            f64::INFINITY
        } else {
            self.tau_e0
        };
        let (p_inf, tau) = PhaseRates::for_condition(cond).relaxation(self.tau_c0, tau_e);
        if tau.is_infinite() {
            return; // frozen: nothing can change
        }
        let decay = (-dt.get() / tau).exp();
        self.occupancy = p_inf + (self.occupancy - p_inf) * decay;
        // Guard against floating-point spill outside [0, 1].
        self.occupancy = self.occupancy.clamp(0.0, 1.0);
    }

    /// Resets the trap to its fresh state. Test helper for "fresh chip"
    /// baselines; silicon has no such button, which is the paper's whole
    /// point.
    pub fn reset(&mut self) {
        self.occupancy = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Environment;
    use selfheal_units::{Celsius, Hours, Volts};

    fn stress() -> DeviceCondition {
        DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)))
    }

    fn heal() -> DeviceCondition {
        DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)))
    }

    fn trap(tau_c: f64, tau_e: f64) -> Trap {
        Trap::new(
            Seconds::new(tau_c),
            Seconds::new(tau_e),
            Millivolts::new(1.0),
            false,
        )
    }

    #[test]
    fn fresh_trap_is_empty() {
        let t = trap(10.0, 100.0);
        assert_eq!(t.occupancy(), 0.0);
        assert_eq!(t.contribution().get(), 0.0);
    }

    #[test]
    fn stress_fills_fast_traps() {
        let mut t = trap(10.0, 1e6);
        t.advance(stress(), Seconds::new(1000.0));
        assert!(t.occupancy() > 0.99, "occupancy = {}", t.occupancy());
    }

    #[test]
    fn slow_traps_stay_mostly_empty() {
        let mut t = trap(1e8, 1e9);
        t.advance(stress(), Seconds::new(1000.0));
        assert!(t.occupancy() < 0.01);
    }

    #[test]
    fn exact_step_is_step_size_invariant() {
        // One 24 h step must equal 24 × 1 h steps under a constant condition.
        let mut one = trap(3600.0, 1e5);
        one.advance(stress(), Hours::new(24.0).into());

        let mut many = trap(3600.0, 1e5);
        for _ in 0..24 {
            many.advance(stress(), Hours::new(1.0).into());
        }
        assert!((one.occupancy() - many.occupancy()).abs() < 1e-12);
    }

    #[test]
    fn recovery_empties_occupied_traps() {
        let mut t = trap(10.0, 3600.0);
        t.advance(stress(), Seconds::new(1e5));
        let filled = t.occupancy();
        t.advance(heal(), Hours::new(6.0).into());
        assert!(
            t.occupancy() < filled * 0.1,
            "accelerated healing drains the trap"
        );
    }

    #[test]
    fn permanent_trap_never_recovers() {
        let mut t = Trap::new(
            Seconds::new(10.0),
            Seconds::new(3600.0),
            Millivolts::new(1.0),
            true,
        );
        t.advance(stress(), Seconds::new(1e5));
        let filled = t.occupancy();
        assert!(filled > 0.99);
        t.advance(heal(), Hours::new(1000.0).into());
        assert!((t.occupancy() - filled).abs() < 1e-12);
    }

    #[test]
    fn zero_dt_is_a_no_op() {
        let mut t = trap(10.0, 100.0);
        t.advance(stress(), Seconds::new(500.0));
        let before = t.occupancy();
        t.advance(heal(), Seconds::ZERO);
        t.advance(heal(), Seconds::new(-5.0));
        assert_eq!(t.occupancy(), before);
    }

    #[test]
    fn occupancy_stays_in_unit_interval() {
        let mut t = trap(0.001, 0.001);
        for _ in 0..100 {
            t.advance(stress(), Seconds::new(1e9));
            assert!((0.0..=1.0).contains(&t.occupancy()));
            t.advance(heal(), Seconds::new(1e9));
            assert!((0.0..=1.0).contains(&t.occupancy()));
        }
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut t = trap(1.0, 1e6);
        t.advance(stress(), Seconds::new(1e4));
        assert!(t.occupancy() > 0.9);
        t.reset();
        assert_eq!(t.occupancy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capture time constant")]
    fn rejects_nonpositive_tau_c() {
        let _ = trap(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "ΔVth step")]
    fn rejects_negative_step() {
        let _ = Trap::new(
            Seconds::new(1.0),
            Seconds::new(1.0),
            Millivolts::new(-1.0),
            false,
        );
    }
}
