//! Per-transistor trap ensembles.

use rand::Rng;
use selfheal_telemetry as telemetry;
use selfheal_units::{Millivolts, Seconds};

use crate::condition::DeviceCondition;

use super::kernel::{PhaseRates, TrapBank, TrapIter};
use super::trap::Trap;

/// Statistical description of a transistor's trap population.
///
/// The defining choice is the **log-uniform capture time constant**: traps
/// are spread evenly across `log10 τc ∈ [min, max]`. Under constant stress
/// the occupied fraction then grows like `log t`, which is precisely the
/// `log(1 + C·t)` law of the paper's Eq. (1) — the analytic model emerges
/// from the ensemble instead of being postulated.
///
/// Emission constants are tied to capture constants through a log-uniform
/// *ratio* `τe = τc·10^u`; traps with `u < 0` re-emit quickly (these are
/// what makes AC stress so much milder than DC), traps with large `u` hold
/// their charge for days (these are what passive recovery cannot drain in
/// any useful time — the paper's motivation for *accelerated* healing).
#[derive(Debug, Clone, PartialEq)]
pub struct TrapEnsembleParams {
    /// Mean number of BTI-active traps per device (Poisson distributed).
    pub mean_trap_count: f64,
    /// Mean per-trap threshold step (exponentially distributed, as in
    /// TD-model literature).
    pub delta_vth_mean_mv: Millivolts,
    /// Range of `log10 τc0` in seconds at the reference stress condition.
    pub log10_tau_c_range: (f64, f64),
    /// Range of `log10 (τe0/τc0)`.
    pub log10_tau_ratio_range: (f64, f64),
    /// Fraction of traps that are irreversible once filled.
    pub permanent_fraction: f64,
}

impl Default for TrapEnsembleParams {
    /// Calibrated 40 nm defaults (see `crate::constants` for the
    /// calibration targets).
    fn default() -> Self {
        TrapEnsembleParams {
            mean_trap_count: 40.0,
            delta_vth_mean_mv: Millivolts::new(2.3),
            log10_tau_c_range: (2.5, 8.0),
            log10_tau_ratio_range: (-1.5, 1.5),
            permanent_fraction: 0.05,
        }
    }
}

impl TrapEnsembleParams {
    /// Validates the parameter set, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any range is inverted, the trap count or ΔVth mean
    /// is non-positive, or the permanent fraction lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        // Written to reject NaN explicitly: `NaN > 0.0` is false, so the
        // comparison alone would already fail it, but the is_nan() check
        // makes the intent auditable and the error message precise.
        if self.mean_trap_count.is_nan() || self.mean_trap_count <= 0.0 {
            return Err(format!("mean trap count must be positive, got {}", self.mean_trap_count));
        }
        if self.delta_vth_mean_mv.get().is_nan() || self.delta_vth_mean_mv.get() <= 0.0 {
            return Err(format!("ΔVth mean must be positive, got {}", self.delta_vth_mean_mv));
        }
        if self.log10_tau_c_range.0 >= self.log10_tau_c_range.1 {
            return Err("τc range is empty or inverted".to_string());
        }
        if self.log10_tau_ratio_range.0 > self.log10_tau_ratio_range.1 {
            return Err("τe/τc ratio range is inverted".to_string());
        }
        if !(0.0..=1.0).contains(&self.permanent_fraction) {
            return Err(format!(
                "permanent fraction must be in [0,1], got {}",
                self.permanent_fraction
            ));
        }
        Ok(())
    }
}

/// The trap population of one transistor, and therefore its aging state.
///
/// See the crate-level example for typical use. The ensemble is the *only*
/// mutable aging state in the workspace: everything else (delay shifts,
/// frequency degradation, margin metrics) is derived from ΔVth sums over
/// ensembles.
///
/// Internally the traps live in a structure-of-arrays [`TrapBank`] (see
/// [`crate::td::kernel`]); this type is the compatibility facade — the
/// sampling, iteration, and reduction API is unchanged, and every path
/// is bit-for-bit identical to the old per-[`Trap`] storage.
#[derive(Debug, Clone, PartialEq)]
pub struct TrapEnsemble {
    bank: TrapBank,
}

impl TrapEnsemble {
    /// Samples a fresh device's trap population.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`TrapEnsembleParams::validate`] — invalid
    /// physics parameters are a programming error, not a runtime condition.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(params: &TrapEnsembleParams, rng: &mut R) -> Self {
        if let Err(problem) = params.validate() {
            panic!("invalid trap ensemble parameters: {problem}");
        }
        let count = sample_poisson(params.mean_trap_count, rng);
        // Draw into materialized traps first (preserving the historical
        // per-trap RNG draw order), then pack into the bank.
        let traps: Vec<Trap> = (0..count)
            .map(|_| {
                let (lo, hi) = params.log10_tau_c_range;
                let log_tau_c = rng.gen_range(lo..hi);
                let (rlo, rhi) = params.log10_tau_ratio_range;
                let ratio = if rlo < rhi { rng.gen_range(rlo..rhi) } else { rlo };
                let tau_c = 10f64.powf(log_tau_c);
                let tau_e = 10f64.powf(log_tau_c + ratio);
                // Exponential per-trap step via inverse CDF.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let step = -params.delta_vth_mean_mv.get() * u.ln();
                let permanent = rng.gen_bool(params.permanent_fraction);
                Trap::new(
                    Seconds::new(tau_c),
                    Seconds::new(tau_e),
                    Millivolts::new(step),
                    permanent,
                )
            })
            .collect();
        TrapEnsemble::from_traps(traps)
    }

    /// An ensemble with no traps — an ideal, ageless device. Useful as a
    /// control in tests.
    #[must_use]
    pub fn ageless() -> Self {
        TrapEnsemble {
            bank: TrapBank::new(),
        }
    }

    /// Builds an ensemble from explicit traps (the sampler's last step,
    /// and synthetic devices in benches).
    #[must_use]
    pub fn from_traps(traps: Vec<Trap>) -> Self {
        TrapEnsemble {
            bank: TrapBank::from_traps(&traps),
        }
    }

    /// Number of traps in this device.
    #[must_use]
    pub fn trap_count(&self) -> usize {
        self.bank.len()
    }

    /// Iterates over the traps (materialized by value from the bank).
    pub fn iter(&self) -> TrapIter<'_> {
        self.bank.iter()
    }

    /// The underlying structure-of-arrays storage (read-only; benches
    /// and diagnostics want the raw bank).
    #[must_use]
    pub fn bank(&self) -> &TrapBank {
        &self.bank
    }

    /// Advances every trap by `dt` under a constant condition.
    ///
    /// Evaluates the condition's rate multipliers once for the whole
    /// ensemble; phase loops that span many ensembles should evaluate
    /// [`PhaseRates`] themselves and call
    /// [`advance_with_rates`](Self::advance_with_rates).
    pub fn advance(&mut self, cond: DeviceCondition, dt: Seconds) {
        self.advance_with_rates(&PhaseRates::for_condition(cond), dt);
    }

    /// [`advance`](Self::advance) with pre-evaluated rate multipliers —
    /// the hoisted hot path. The occupancy telemetry comes out of the
    /// kernel's fused advance pass, so no extra ensemble scans happen
    /// whether metrics are on or off.
    pub fn advance_with_rates(&mut self, rates: &PhaseRates, dt: Seconds) {
        let stats = self.bank.advance_all(rates, dt);
        if telemetry::metrics::enabled() {
            // Net expected occupancy change over the interval: the filled
            // fraction grew by captures or shrank by emissions. Counters
            // are f64 precisely so these fractional events accumulate.
            let net = stats.occupied_after - stats.occupied_before;
            if net >= 0.0 {
                telemetry::metrics::counter_add("bti.td.trap_captures", net);
            } else {
                telemetry::metrics::counter_add("bti.td.trap_emissions", -net);
            }
            telemetry::metrics::histogram_observe("bti.td.expected_occupied", stats.occupied_after);
            // Throughput counters: the sampler's time-series (and the
            // `selfheal-top` dashboard) derive traps-advanced/s and
            // kernel-calls/s from successive samples of these.
            telemetry::metrics::counter_add(
                "bti.td.kernel.traps_advanced",
                self.bank.len() as f64,
            );
            telemetry::metrics::counter_add("bti.td.kernel.advance_calls", 1.0);
        }
    }

    /// Total expected threshold-voltage shift right now.
    #[must_use]
    pub fn delta_vth(&self) -> Millivolts {
        self.bank.summary().delta_vth
    }

    /// The irreversible part of the current shift — what no amount of
    /// rejuvenation can heal.
    #[must_use]
    pub fn permanent_delta_vth(&self) -> Millivolts {
        self.bank.summary().permanent_delta_vth
    }

    /// The healable part of the current shift.
    #[must_use]
    pub fn recoverable_delta_vth(&self) -> Millivolts {
        let summary = self.bank.summary();
        summary.delta_vth - summary.permanent_delta_vth
    }

    /// Expected number of occupied traps.
    #[must_use]
    pub fn expected_occupied(&self) -> f64 {
        self.bank.summary().expected_occupied
    }

    /// Resets every trap to the fresh state (test/baseline helper).
    pub fn reset(&mut self) {
        self.bank.reset();
    }
}

impl<'a> IntoIterator for &'a TrapEnsemble {
    type Item = Trap;
    type IntoIter = TrapIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.bank.iter()
    }
}

/// Knuth's Poisson sampler. Fine for the λ ≈ 40 used here; the
/// multiplicative underflow limit is λ ≲ 700, far above any physical trap
/// count in this model.
fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 100_000 {
            // Defensive cap; unreachable for sane λ.
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{DeviceCondition, Environment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours, Volts};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn stress_110() -> DeviceCondition {
        DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)))
    }

    fn heal(v: f64, t: f64) -> DeviceCondition {
        DeviceCondition::recovery(Environment::new(Volts::new(v), Celsius::new(t)))
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let p = TrapEnsembleParams::default();
        let a = TrapEnsemble::sample(&p, &mut rng());
        let b = TrapEnsemble::sample(&p, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn trap_count_near_mean() {
        let p = TrapEnsembleParams::default();
        let mut r = rng();
        let total: usize = (0..200)
            .map(|_| TrapEnsemble::sample(&p, &mut r).trap_count())
            .sum();
        let mean = total as f64 / 200.0;
        assert!((mean - p.mean_trap_count).abs() < 2.0, "mean = {mean}");
    }

    #[test]
    fn fresh_device_has_no_shift() {
        let e = TrapEnsemble::sample(&TrapEnsembleParams::default(), &mut rng());
        assert_eq!(e.delta_vth().get(), 0.0);
        assert_eq!(e.expected_occupied(), 0.0);
    }

    #[test]
    fn stress_grows_shift_log_like() {
        let mut e = TrapEnsemble::sample(&TrapEnsembleParams::default(), &mut rng());
        let mut previous = 0.0;
        let mut increments = Vec::new();
        // Measure growth per decade of time: should be roughly constant
        // (log-like), definitely not linear.
        let mut elapsed = 0.0;
        for decade_end in [1e3, 1e4, 1e5] {
            e.advance(stress_110(), Seconds::new(decade_end - elapsed));
            elapsed = decade_end;
            let now = e.delta_vth().get();
            increments.push(now - previous);
            previous = now;
        }
        assert!(previous > 0.0);
        // Log-like: per-decade increments comparable (within 4×), while a
        // linear process would grow 10× per decade.
        let max = increments.iter().cloned().fold(f64::MIN, f64::max);
        let min = increments.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > 0.0, "shift must keep growing: {increments:?}");
        assert!(max / min < 6.0, "per-decade growth should be flat-ish: {increments:?}");
    }

    #[test]
    fn shift_magnitude_in_calibrated_range_after_24h() {
        // Average over several devices: 24 h DC @ 110 °C should land near
        // the ~30–50 mV needed for the paper's ~2.3 % delay shift.
        let p = TrapEnsembleParams::default();
        let mut r = rng();
        let mut total = 0.0;
        let n = 30;
        for _ in 0..n {
            let mut e = TrapEnsemble::sample(&p, &mut r);
            e.advance(stress_110(), Hours::new(24.0).into());
            total += e.delta_vth().get();
        }
        let mean = total / f64::from(n);
        assert!(mean > 20.0 && mean < 60.0, "mean ΔVth = {mean} mV");
    }

    #[test]
    fn accelerated_recovery_beats_passive() {
        let p = TrapEnsembleParams::default();
        let mut r = rng();
        let mut stressed = TrapEnsemble::sample(&p, &mut r);
        stressed.advance(stress_110(), Hours::new(24.0).into());
        let aged = stressed.delta_vth().get();

        let mut passive = stressed.clone();
        passive.advance(heal(0.0, 20.0), Hours::new(6.0).into());
        let mut active = stressed.clone();
        active.advance(heal(-0.3, 110.0), Hours::new(6.0).into());

        let passive_recovered = aged - passive.delta_vth().get();
        let active_recovered = aged - active.delta_vth().get();
        assert!(
            active_recovered > 1.5 * passive_recovered,
            "active {active_recovered} mV vs passive {passive_recovered} mV"
        );
    }

    #[test]
    fn recovery_is_partial_even_when_long() {
        // Raise the permanent fraction so this single sampled device is
        // guaranteed to contain irreversible traps.
        let p = TrapEnsembleParams {
            permanent_fraction: 0.3,
            ..TrapEnsembleParams::default()
        };
        let mut r = rng();
        let mut e = TrapEnsemble::sample(&p, &mut r);
        e.advance(stress_110(), Hours::new(24.0).into());
        let aged = e.delta_vth().get();
        e.advance(heal(-0.3, 110.0), Hours::new(240.0).into());
        let healed = e.delta_vth().get();
        assert!(healed < aged);
        assert!(
            healed >= e.permanent_delta_vth().get() - 1e-9,
            "cannot heal below the permanent floor"
        );
        assert!(e.permanent_delta_vth().get() > 0.0, "some damage is forever");
    }

    #[test]
    fn permanent_plus_recoverable_is_total() {
        let p = TrapEnsembleParams::default();
        let mut r = rng();
        let mut e = TrapEnsemble::sample(&p, &mut r);
        e.advance(stress_110(), Hours::new(24.0).into());
        let total = e.delta_vth().get();
        let parts = e.permanent_delta_vth().get() + e.recoverable_delta_vth().get();
        assert!((total - parts).abs() < 1e-9);
    }

    #[test]
    fn ageless_control_never_ages() {
        let mut e = TrapEnsemble::ageless();
        e.advance(stress_110(), Hours::new(1000.0).into());
        assert_eq!(e.delta_vth().get(), 0.0);
        assert_eq!(e.trap_count(), 0);
    }

    #[test]
    fn reset_returns_to_fresh() {
        let mut e = TrapEnsemble::sample(&TrapEnsembleParams::default(), &mut rng());
        e.advance(stress_110(), Hours::new(24.0).into());
        assert!(e.delta_vth().get() > 0.0);
        e.reset();
        assert_eq!(e.delta_vth().get(), 0.0);
    }

    #[test]
    fn iterator_visits_every_trap() {
        let e = TrapEnsemble::sample(&TrapEnsembleParams::default(), &mut rng());
        assert_eq!(e.iter().count(), e.trap_count());
        assert_eq!((&e).into_iter().count(), e.trap_count());
    }

    #[test]
    fn params_validation_catches_mistakes() {
        let good = TrapEnsembleParams::default();
        assert!(good.validate().is_ok());

        let mut bad = good.clone();
        bad.mean_trap_count = 0.0;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.mean_trap_count = f64::NAN;
        assert!(bad.validate().is_err(), "NaN must be rejected, not pass silently");

        let mut bad = good.clone();
        bad.delta_vth_mean_mv = Millivolts::new(f64::NAN);
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.log10_tau_c_range = (5.0, 2.0);
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.permanent_fraction = 1.5;
        assert!(bad.validate().is_err());

        let mut bad = good;
        bad.delta_vth_mean_mv = Millivolts::new(-1.0);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn poisson_sampler_mean_and_spread() {
        let mut r = rng();
        let samples: Vec<usize> = (0..2000).map(|_| sample_poisson(40.0, &mut r)).collect();
        let mean = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
        assert!((mean - 40.0).abs() < 1.0, "mean = {mean}");
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        // Poisson: variance ≈ mean.
        assert!((var - 40.0).abs() < 8.0, "var = {var}");
    }
}
