//! Prior-art mitigation baselines the paper positions itself against
//! (§1's related work), implemented so the comparison is executable:
//!
//! * **Guardband-and-endure** — accept the aging, budget margin for it
//!   (the status quo the whole paper attacks).
//! * **GNOMO** (refs \[12, 13\], Gupta & Sapatnekar): run at a
//!   *greater-than-nominal* supply so the same work finishes sooner, then
//!   gate the idle remainder — less stress *time* per unit of work, at a
//!   power cost, with only passive recovery in the gaps. Note that under
//!   this reproduction's log-time TD calibration the shortened stress
//!   time cannot pay for the higher stress voltage, so GNOMO lands
//!   *behind* plain gating here; its published wins assume a power-law
//!   aging model with a stronger time exponent. Either way it
//!   illustrates the paper's point that in-operation mitigation carries
//!   power overheads, while self-healing repairs during sleep for free.
//! * **Accelerated self-healing** — the paper's proposal: nominal-voltage
//!   operation plus scheduled deep rejuvenation.
//!
//! The comparison metric is the steady shift after a work-preserving
//! schedule: every strategy completes the *same work* per period.

use selfheal_bti::analytic::AnalyticBti;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{Celsius, Millivolts, Seconds, Volts};

use crate::technique::RejuvenationTechnique;

/// Relative speed of a gate at supply `vdd` versus the nominal operating
/// point (Eq. 5: speed ∝ (Vdd − Vth)/Vdd, normalised to 1 at nominal).
#[must_use]
pub fn speedup_at(vdd: Volts, nominal: Environment) -> f64 {
    let vth = selfheal_bti::constants::nominal_vth();
    let speed = |v: Volts| (v - vth).get().max(0.0) / v.get();
    speed(vdd) / speed(nominal.supply())
}

/// Outcome of one mitigation strategy over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationOutcome {
    /// Strategy label.
    pub strategy: String,
    /// Final threshold shift.
    pub final_shift: Millivolts,
    /// Peak threshold shift seen at any period boundary.
    pub peak_shift: Millivolts,
    /// Energy proxy: ∫ V² over active time, normalised to the
    /// always-nominal baseline (dynamic power ∝ V², equal work).
    pub relative_energy: f64,
}

/// Work-preserving comparison of the three strategies.
///
/// Each period carries `work` seconds of nominal-speed computation.
/// * The baseline computes it at nominal voltage and then idles unstressed
///   (plain gating).
/// * GNOMO computes it at `overdrive` volts in `work / speedup` seconds,
///   then gates the longer remainder.
/// * Self-healing computes at nominal and spends the idle remainder in
///   deep rejuvenation.
///
/// # Panics
///
/// Panics if `work` exceeds the period or either duration is non-positive.
#[must_use]
pub fn compare_strategies(
    active_env: Environment,
    overdrive: Volts,
    work: Seconds,
    period: Seconds,
    periods: usize,
) -> Vec<MitigationOutcome> {
    assert!(
        work.get() > 0.0 && period.get() > 0.0,
        "durations must be positive"
    );
    assert!(work <= period, "work must fit in the period");

    // A gated, idle unit cools towards the package ambient — it does not
    // stay at the active junction temperature. 45 °C is the in-package
    // ambient of the multi-core thermal model.
    let gated = Environment::new(Volts::ZERO, Celsius::new(45.0));
    let heal = RejuvenationTechnique::Combined.environment();
    let overdrive_env = active_env.with_supply(overdrive);
    let kappa = speedup_at(overdrive, active_env);
    assert!(kappa >= 1.0, "overdrive must not be slower than nominal");

    let run = |label: &str, phases: &[(DeviceCondition, Seconds)], energy: f64| {
        let mut device = AnalyticBti::default();
        let mut peak = 0.0f64;
        for _ in 0..periods {
            for (cond, dt) in phases {
                device.advance(*cond, *dt);
            }
            peak = peak.max(device.delta_vth().get());
        }
        MitigationOutcome {
            strategy: label.to_string(),
            final_shift: device.delta_vth(),
            peak_shift: Millivolts::new(peak),
            relative_energy: energy,
        }
    };

    let idle_baseline = period - work;
    let gnomo_active = work / kappa;
    let idle_gnomo = period - gnomo_active;
    let v_nom = active_env.supply().get();
    let v_od = overdrive.get();

    vec![
        run(
            "guardband-and-endure (nominal + gating)",
            &[
                (DeviceCondition::dc_stress(active_env), work),
                (DeviceCondition::recovery(gated), idle_baseline),
            ],
            1.0,
        ),
        run(
            "GNOMO (overdrive + gating)",
            &[
                (DeviceCondition::dc_stress(overdrive_env), gnomo_active),
                (DeviceCondition::recovery(gated), idle_gnomo),
            ],
            // Same switched work at higher V: energy ∝ V² per operation.
            (v_od * v_od) / (v_nom * v_nom),
        ),
        run(
            "accelerated self-healing (nominal + deep rejuvenation)",
            &[
                (DeviceCondition::dc_stress(active_env), work),
                (DeviceCondition::recovery(heal), idle_baseline),
            ],
            1.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::{Celsius, Hours};

    fn nominal() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(90.0))
    }

    fn compare() -> Vec<MitigationOutcome> {
        compare_strategies(
            nominal(),
            Volts::new(1.32), // +10 % overdrive, as GNOMO explores
            Hours::new(18.0).into(),
            Hours::new(24.0).into(),
            60,
        )
    }

    #[test]
    fn speedup_is_one_at_nominal_and_grows_with_vdd() {
        let env = nominal();
        assert!((speedup_at(Volts::new(1.2), env) - 1.0).abs() < 1e-12);
        assert!(speedup_at(Volts::new(1.32), env) > 1.0);
        assert!(speedup_at(Volts::new(1.1), env) < 1.0);
    }

    #[test]
    fn self_healing_wins_on_final_shift() {
        let outcomes = compare();
        let baseline = &outcomes[0];
        let gnomo = &outcomes[1];
        let healing = &outcomes[2];
        assert!(
            healing.final_shift < baseline.final_shift,
            "healing {} vs baseline {}",
            healing.final_shift,
            baseline.final_shift
        );
        assert!(
            healing.final_shift < gnomo.final_shift,
            "healing {} vs GNOMO {}",
            healing.final_shift,
            gnomo.final_shift
        );
    }

    #[test]
    fn gnomo_pays_power_for_its_gains() {
        let outcomes = compare();
        let gnomo = &outcomes[1];
        assert!(
            gnomo.relative_energy > 1.15,
            "a +10 % supply costs ≈ +21 % dynamic energy: {}",
            gnomo.relative_energy
        );
        // The healing strategy costs no extra dynamic energy.
        assert!((outcomes[2].relative_energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gnomo_trades_stress_time_against_stress_voltage() {
        // GNOMO's premise: less stress time. Verify the schedule really
        // shortens the stressed interval.
        let env = nominal();
        let kappa = speedup_at(Volts::new(1.32), env);
        // First-order Eq. 5 speedup for +10 % Vdd is a modest few percent
        // — which is exactly GNOMO's trade: small time savings bought
        // with quadratic energy.
        assert!(
            kappa > 1.02 && kappa < 1.3,
            "plausible +10 % Vdd speedup: {kappa}"
        );
    }

    #[test]
    #[should_panic(expected = "work must fit")]
    fn rejects_overfull_period() {
        let _ = compare_strategies(
            nominal(),
            Volts::new(1.32),
            Hours::new(30.0).into(),
            Hours::new(24.0).into(),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "overdrive must not be slower")]
    fn rejects_underdrive() {
        let _ = compare_strategies(
            nominal(),
            Volts::new(1.0),
            Hours::new(12.0).into(),
            Hours::new(24.0).into(),
            1,
        );
    }
}
