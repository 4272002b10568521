//! Per-transistor trap populations: their statistics and the one
//! sampler that draws them.

use rand::Rng;
use selfheal_units::{Millivolts, Seconds};

use super::kernel::TrapBank;
use super::trap::Trap;

/// The largest mean trap count [`TrapEnsembleParams::validate`] accepts.
///
/// Knuth's Poisson sampler multiplies uniforms until the product drops
/// below `exp(-λ)`; past λ ≈ 700 that threshold nears the bottom of the
/// normal `f64` range and the draws silently saturate (a mean of 1000
/// samples about 747 traps). Physical trap counts per device are tens.
const MAX_MEAN_TRAP_COUNT: f64 = 700.0;

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
    /// Returns `Err` if any field is not finite, any range is inverted,
    /// the trap count is not in `(0, 700]` (the Poisson sampler's exact
    /// range), the ΔVth mean is non-positive, or the permanent fraction
    /// lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let (c_lo, c_hi) = self.log10_tau_c_range;
        let (r_lo, r_hi) = self.log10_tau_ratio_range;
        let fields = [
            self.mean_trap_count,
            self.delta_vth_mean_mv.get(),
            c_lo,
            c_hi,
            r_lo,
            r_hi,
            self.permanent_fraction,
        ];
        // Rejects NaN and ±∞ up front: NaN fails every comparison below
        // (so an inverted-range test would let it through) and +∞ passes
        // every `> 0.0` test.
        if !fields.iter().all(|x| x.is_finite()) {
            return Err(format!("trap parameters must be finite, got {self:?}"));
        }
        if self.mean_trap_count <= 0.0 || self.mean_trap_count > MAX_MEAN_TRAP_COUNT {
            return Err(format!(
                "mean trap count must be in (0, {MAX_MEAN_TRAP_COUNT}], got {}",
                self.mean_trap_count
            ));
        }
        if self.delta_vth_mean_mv.get() <= 0.0 {
            return Err(format!(
                "ΔVth mean must be positive, got {}",
                self.delta_vth_mean_mv
            ));
        }
        if c_lo >= c_hi {
            return Err("τc range is empty or inverted".to_string());
        }
        if r_lo > r_hi {
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

    /// Draws one device's traps: a Poisson count, then that many traps
    /// from [`traps`](Self::traps). This is the workspace's one
    /// sampler; [`TrapBank::sample`] and the fleet's shard sampler both
    /// consume it, so every device draws its RNG stream in the same
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`validate`](Self::validate) —
    /// invalid physics parameters are a programming error, not a runtime
    /// condition.
    pub fn sample_traps<'a, R: Rng + ?Sized>(
        &'a self,
        rng: &'a mut R,
    ) -> impl Iterator<Item = Trap> + 'a {
        self.assert_valid();
        let count = sample_poisson(self.mean_trap_count, rng);
        self.traps(count, rng)
    }

    /// Draws exactly `count` traps — a bank of a chosen size for benches,
    /// which a Poisson count cannot reach. Each trap consumes the RNG
    /// exactly as in [`sample_traps`](Self::sample_traps).
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`validate`](Self::validate).
    pub fn traps<'a, R: Rng + ?Sized>(
        &'a self,
        count: usize,
        rng: &'a mut R,
    ) -> impl Iterator<Item = Trap> + 'a {
        self.assert_valid();
        (0..count).map(move |_| self.draw_trap(rng))
    }

    fn assert_valid(&self) {
        if let Err(problem) = self.validate() {
            panic!("invalid trap ensemble parameters: {problem}");
        }
    }

    /// One trap, in the historical per-trap draw order: `log10 τc`, the
    /// `τe/τc` ratio (only when its range is not a point), the step's
    /// uniform, then permanence.
    fn draw_trap<R: Rng + ?Sized>(&self, rng: &mut R) -> Trap {
        let (lo, hi) = self.log10_tau_c_range;
        let log_tau_c = rng.gen_range(lo..hi);
        let (rlo, rhi) = self.log10_tau_ratio_range;
        let ratio = if rlo < rhi {
            rng.gen_range(rlo..rhi)
        } else {
            rlo
        };
        let tau_c = 10f64.powf(log_tau_c);
        let tau_e = 10f64.powf(log_tau_c + ratio);
        // Exponential per-trap step via inverse CDF.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let step = -self.delta_vth_mean_mv.get() * u.ln();
        let permanent = rng.gen_bool(self.permanent_fraction);
        Trap::new(
            Seconds::new(tau_c),
            Seconds::new(tau_e),
            Millivolts::new(step),
            permanent,
        )
    }
}

impl TrapBank {
    /// Samples a fresh device's trap population (see
    /// [`TrapEnsembleParams::sample_traps`]).
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`TrapEnsembleParams::validate`].
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(params: &TrapEnsembleParams, rng: &mut R) -> TrapBank {
        params.sample_traps(rng).collect()
    }
}

/// Knuth's Poisson sampler. Exact while `exp(-λ)` stays a normal `f64`,
/// i.e. for λ up to [`MAX_MEAN_TRAP_COUNT`], which
/// [`TrapEnsembleParams::validate`] enforces; the model uses λ of 8–40.
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
    use crate::td::PhaseRates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours, Volts};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn stress_110() -> PhaseRates {
        PhaseRates::for_condition(DeviceCondition::dc_stress(Environment::new(
            Volts::new(1.2),
            Celsius::new(110.0),
        )))
    }

    fn heal(v: f64, t: f64) -> PhaseRates {
        PhaseRates::for_condition(DeviceCondition::recovery(Environment::new(
            Volts::new(v),
            Celsius::new(t),
        )))
    }

    fn delta_vth(bank: &TrapBank) -> f64 {
        bank.delta_vth().get()
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let p = TrapEnsembleParams::default();
        let a = TrapBank::sample(&p, &mut rng());
        let b = TrapBank::sample(&p, &mut rng());
        assert_eq!(a, b);
        let traps: TrapBank = p.sample_traps(&mut rng()).collect();
        assert_eq!(a, traps, "the bank sampler is the trap sampler");
    }

    #[test]
    fn exact_count_draws_match_the_sampler_per_trap() {
        // Both entry points share one per-trap draw: after the Poisson
        // count, `sample_traps` continues the stream exactly like
        // `traps` does from the same position.
        let p = TrapEnsembleParams::default();
        let mut r = rng();
        let count = sample_poisson(p.mean_trap_count, &mut r);
        let direct: TrapBank = p.traps(count, &mut r).collect();
        assert_eq!(direct, TrapBank::sample(&p, &mut rng()));
        assert_eq!(p.traps(17, &mut rng()).count(), 17);
    }

    #[test]
    fn trap_count_near_mean() {
        let p = TrapEnsembleParams::default();
        let mut r = rng();
        let total: usize = (0..200).map(|_| TrapBank::sample(&p, &mut r).len()).sum();
        let mean = total as f64 / 200.0;
        assert!((mean - p.mean_trap_count).abs() < 2.0, "mean = {mean}");
    }

    #[test]
    fn fresh_device_has_no_shift() {
        let e = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng());
        assert_eq!(delta_vth(&e), 0.0);
        assert!(e.occupancies().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn stress_grows_shift_log_like() {
        let mut e = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng());
        let mut previous = 0.0;
        let mut increments = Vec::new();
        // Measure growth per decade of time: should be roughly constant
        // (log-like), definitely not linear.
        let mut elapsed = 0.0;
        for decade_end in [1e3, 1e4, 1e5] {
            e.advance_all(&stress_110(), Seconds::new(decade_end - elapsed));
            elapsed = decade_end;
            let now = delta_vth(&e);
            increments.push(now - previous);
            previous = now;
        }
        assert!(previous > 0.0);
        // Log-like: per-decade increments comparable (within 4×), while a
        // linear process would grow 10× per decade.
        let max = increments.iter().cloned().fold(f64::MIN, f64::max);
        let min = increments.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > 0.0, "shift must keep growing: {increments:?}");
        assert!(
            max / min < 6.0,
            "per-decade growth should be flat-ish: {increments:?}"
        );
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
            let mut e = TrapBank::sample(&p, &mut r);
            e.advance_all(&stress_110(), Hours::new(24.0).into());
            total += delta_vth(&e);
        }
        let mean = total / f64::from(n);
        assert!(mean > 20.0 && mean < 60.0, "mean ΔVth = {mean} mV");
    }

    #[test]
    fn accelerated_recovery_beats_passive() {
        let p = TrapEnsembleParams::default();
        let mut r = rng();
        let mut stressed = TrapBank::sample(&p, &mut r);
        stressed.advance_all(&stress_110(), Hours::new(24.0).into());
        let aged = delta_vth(&stressed);

        let mut passive = stressed.clone();
        passive.advance_all(&heal(0.0, 20.0), Hours::new(6.0).into());
        let mut active = stressed.clone();
        active.advance_all(&heal(-0.3, 110.0), Hours::new(6.0).into());

        let passive_recovered = aged - delta_vth(&passive);
        let active_recovered = aged - delta_vth(&active);
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
        let mut e = TrapBank::sample(&p, &mut rng());
        // The scalar traps from the same stream carry the permanence
        // flag the bank folds into `tau_e`; they give the floor.
        let mut traps: Vec<Trap> = p.sample_traps(&mut rng()).collect();
        let mut step = |rates: PhaseRates, dt: Seconds| {
            e.advance_all(&rates, dt);
            for trap in &mut traps {
                trap.advance(rates.condition(), dt);
            }
            delta_vth(&e)
        };
        let aged = step(stress_110(), Hours::new(24.0).into());
        let healed = step(heal(-0.3, 110.0), Hours::new(240.0).into());
        let floor: f64 = traps
            .iter()
            .filter(|t| t.is_permanent())
            .map(|t| t.contribution().get())
            .sum();
        assert!(healed < aged);
        assert!(
            healed >= floor - 1e-9,
            "cannot heal below the permanent floor"
        );
        assert!(floor > 0.0, "some damage is forever");
    }

    #[test]
    fn all_permanent_bank_keeps_its_shift_through_recovery() {
        let p = TrapEnsembleParams {
            permanent_fraction: 1.0,
            ..TrapEnsembleParams::default()
        };
        let mut e = TrapBank::sample(&p, &mut rng());
        e.advance_all(&stress_110(), Hours::new(24.0).into());
        let aged = delta_vth(&e);
        assert!(aged > 0.0);
        e.advance_all(&heal(-0.3, 110.0), Hours::new(240.0).into());
        assert_eq!(
            delta_vth(&e).to_bits(),
            aged.to_bits(),
            "permanent damage never heals"
        );
    }

    #[test]
    fn ageless_control_never_ages() {
        let mut e = TrapBank::new();
        e.advance_all(&stress_110(), Hours::new(1000.0).into());
        assert_eq!(delta_vth(&e), 0.0);
        assert!(e.is_empty());
    }

    #[test]
    fn reset_returns_to_fresh() {
        let fresh = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng());
        let mut e = fresh.clone();
        e.advance_all(&stress_110(), Hours::new(24.0).into());
        assert!(delta_vth(&e) > 0.0);
        e.occupancies_mut().fill(0.0);
        assert_eq!(delta_vth(&e), 0.0);
        assert_eq!(e, fresh);
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
        assert!(
            bad.validate().is_err(),
            "NaN must be rejected, not pass silently"
        );

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
    fn params_validation_rejects_out_of_range_counts_and_non_finite_fields() {
        let good = TrapEnsembleParams::default();
        // The sampler's exact range ends at λ = 700; past it the draws
        // saturate (λ = 1000 samples about 747 traps), so such a mean is
        // refused rather than silently honoured.
        let at_limit = TrapEnsembleParams {
            mean_trap_count: MAX_MEAN_TRAP_COUNT,
            ..good.clone()
        };
        assert!(at_limit.validate().is_ok());
        for count in [700.5, 1000.0, f64::INFINITY] {
            let bad = TrapEnsembleParams {
                mean_trap_count: count,
                ..good.clone()
            };
            assert!(bad.validate().is_err(), "mean trap count {count} accepted");
        }
        let non_finite = [
            TrapEnsembleParams {
                delta_vth_mean_mv: Millivolts::new(f64::INFINITY),
                ..good.clone()
            },
            TrapEnsembleParams {
                log10_tau_c_range: (f64::NAN, 8.0),
                ..good.clone()
            },
            TrapEnsembleParams {
                log10_tau_c_range: (2.5, f64::INFINITY),
                ..good.clone()
            },
            TrapEnsembleParams {
                log10_tau_ratio_range: (-1.5, f64::NAN),
                ..good.clone()
            },
            TrapEnsembleParams {
                log10_tau_ratio_range: (f64::NEG_INFINITY, 1.5),
                ..good.clone()
            },
            TrapEnsembleParams {
                permanent_fraction: f64::NAN,
                ..good
            },
        ];
        for bad in non_finite {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
        }
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
