//! First-order gate-delay model (Eqs. 5–6).
//!
//! The paper approximates the propagation delay of a digital gate as
//! `td ∝ CL·Vdd / Id ∝ CL·Vdd / (Vdd − Vth)` (Eq. 5), so a threshold shift
//! changes the delay by `Δtd ≈ td0 · ΔVth / (Vdd − Vth)` (Eq. 6). We keep
//! the exact ratio form rather than the linearised derivative so large
//! shifts stay well-behaved; the two agree to first order.

use selfheal_units::{Nanoseconds, Volts};

/// Delay of a device whose fresh share of the path delay is `fresh_delay`
/// (measured at `vdd` with threshold `vth_ref`), now that its threshold has
/// moved to `vth`.
///
/// `td(vth) = fresh · (vdd − vth_ref) / (vdd − vth)`.
///
/// # Panics
///
/// Panics if `vth >= vdd` or `vth_ref >= vdd`: a device whose threshold has
/// reached the supply cannot switch at all, and in this workspace that can
/// only happen through a mis-calibration bug — the shifts involved are tens
/// of millivolts against an 800 mV overdrive.
///
/// # Examples
///
/// ```
/// use selfheal_fpga::delay::device_delay;
/// use selfheal_units::{Nanoseconds, Volts};
///
/// let fresh = Nanoseconds::new(0.15);
/// let same = device_delay(fresh, Volts::new(1.2), Volts::new(0.4), Volts::new(0.4));
/// assert_eq!(same, fresh);
///
/// let aged = device_delay(fresh, Volts::new(1.2), Volts::new(0.44), Volts::new(0.4));
/// assert!(aged > fresh);
/// ```
#[must_use]
pub fn device_delay(
    fresh_delay: Nanoseconds,
    vdd: Volts,
    vth: Volts,
    vth_ref: Volts,
) -> Nanoseconds {
    let overdrive_ref = vdd - vth_ref;
    let overdrive = vdd - vth;
    assert!(
        overdrive_ref.get() > 0.0 && overdrive.get() > 0.0,
        "threshold must stay below the supply: vdd={vdd}, vth={vth}, vth_ref={vth_ref}"
    );
    Nanoseconds::new(fresh_delay.get() * overdrive_ref.get() / overdrive.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_device_keeps_fresh_delay() {
        let d = device_delay(
            Nanoseconds::new(0.3),
            Volts::new(1.2),
            Volts::new(0.4),
            Volts::new(0.4),
        );
        assert_eq!(d, Nanoseconds::new(0.3));
    }

    #[test]
    fn threshold_shift_slows_the_gate() {
        let fresh = Nanoseconds::new(0.3);
        let d = device_delay(fresh, Volts::new(1.2), Volts::new(0.436), Volts::new(0.4));
        // 36 mV on an 800 mV overdrive ⇒ ≈ +4.7 %.
        let rel = (d.get() - fresh.get()) / fresh.get();
        assert!((rel - 0.0471).abs() < 0.002, "rel = {rel}");
    }

    #[test]
    fn lower_supply_amplifies_sensitivity() {
        let fresh = Nanoseconds::new(0.3);
        let vth0 = Volts::new(0.4);
        let dv = Volts::new(0.02);
        let at_nominal = device_delay(fresh, Volts::new(1.2), vth0 + dv, vth0) - fresh;
        let at_low_vdd = device_delay(fresh, Volts::new(1.0), vth0 + dv, vth0) - fresh;
        assert!(at_low_vdd > at_nominal);
    }

    #[test]
    #[should_panic(expected = "threshold must stay below the supply")]
    fn panics_when_threshold_reaches_supply() {
        let _ = device_delay(
            Nanoseconds::new(0.3),
            Volts::new(1.2),
            Volts::new(1.2),
            Volts::new(0.4),
        );
    }
}
