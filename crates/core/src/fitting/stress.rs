//! Fitting the Eq. (10) wearout law `ΔTd(t) = β·log(1 + C·t)`.

use selfheal_units::{Nanoseconds, Seconds};

use super::rmse;

/// A fitted wearout curve.
///
/// # Examples
///
/// ```
/// use selfheal::fitting::FittedStressCurve;
/// use selfheal_units::{Nanoseconds, Seconds};
///
/// // Synthetic data following β = 0.4, C = 1e-3 exactly.
/// let samples: Vec<(Seconds, Nanoseconds)> = (0..=10)
///     .map(|i| {
///         let t = 8640.0 * f64::from(i);
///         (Seconds::new(t), Nanoseconds::new(0.4 * (1.0 + 1e-3 * t).ln()))
///     })
///     .collect();
/// let fit = FittedStressCurve::fit(&samples).expect("enough samples");
/// assert!((fit.beta_ns - 0.4).abs() < 0.02);
/// assert!(fit.rmse_ns < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedStressCurve {
    /// The amplitude `β` in nanoseconds (folds the paper's `β·A`).
    pub beta_ns: f64,
    /// The log-onset rate `C` in 1/s.
    pub c_per_s: f64,
    /// Fit quality against the provided samples.
    pub rmse_ns: f64,
}

impl FittedStressCurve {
    /// Grid resolution over `log10 C`.
    const GRID: usize = 121;
    /// `log10 C` search window (1/s).
    const LOG_C_RANGE: (f64, f64) = (-7.0, 0.0);

    /// Fits the curve to `(elapsed, delay shift)` samples.
    ///
    /// Returns `None` when fewer than three samples carry information
    /// (non-zero time), or when every shift is zero (a fresh chip has no
    /// wearout curve to fit).
    #[must_use]
    pub fn fit(samples: &[(Seconds, Nanoseconds)]) -> Option<Self> {
        let pts: Vec<(f64, f64)> = samples
            .iter()
            .map(|(t, y)| (t.get(), y.get()))
            .filter(|(t, _)| *t >= 0.0)
            .collect();
        let informative = pts.iter().filter(|(t, _)| *t > 0.0).count();
        if informative < 3 || pts.iter().all(|(_, y)| y.abs() < 1e-12) {
            return None;
        }

        let sse_for = |c: f64| -> (f64, f64) {
            // Closed-form β for fixed C (least squares through origin).
            let mut num = 0.0;
            let mut den = 0.0;
            for &(t, y) in &pts {
                let x = (1.0 + c * t).ln();
                num += x * y;
                den += x * x;
            }
            if den <= 0.0 {
                return (0.0, f64::INFINITY);
            }
            let beta = num / den;
            let sse: f64 = pts
                .iter()
                .map(|&(t, y)| {
                    let e = y - beta * (1.0 + c * t).ln();
                    e * e
                })
                .sum();
            (beta, sse)
        };

        // Coarse grid over log10 C.
        let (lo, hi) = Self::LOG_C_RANGE;
        let mut best = (f64::INFINITY, 0.0, 0.0); // (sse, beta, c)
        for i in 0..Self::GRID {
            let log_c = lo + (hi - lo) * i as f64 / (Self::GRID - 1) as f64;
            let c = 10f64.powf(log_c);
            let (beta, sse) = sse_for(c);
            if sse < best.0 {
                best = (sse, beta, c);
            }
        }

        // Local refinement: golden-section on log10 C around the best cell.
        let step = (hi - lo) / (Self::GRID - 1) as f64;
        let mut a = best.2.log10() - step;
        let mut b = best.2.log10() + step;
        for _ in 0..40 {
            let m1 = a + (b - a) * 0.382;
            let m2 = a + (b - a) * 0.618;
            let s1 = sse_for(10f64.powf(m1)).1;
            let s2 = sse_for(10f64.powf(m2)).1;
            if s1 < s2 {
                b = m2;
            } else {
                a = m1;
            }
        }
        let c = 10f64.powf((a + b) / 2.0);
        let (beta, _) = sse_for(c);

        let fit = FittedStressCurve {
            beta_ns: beta,
            c_per_s: c,
            rmse_ns: rmse(pts.iter().map(|&(t, y)| y - beta * (1.0 + c * t).ln())),
        };
        Some(fit)
    }

    /// The model's predicted delay shift after `t` of stress.
    #[must_use]
    pub fn predict(&self, t: Seconds) -> Nanoseconds {
        Nanoseconds::new(self.beta_ns * (1.0 + self.c_per_s * t.get().max(0.0)).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(beta: f64, c: f64, noise: f64) -> Vec<(Seconds, Nanoseconds)> {
        (0..=12)
            .map(|i| {
                let t = 7200.0 * f64::from(i);
                let wobble = if noise == 0.0 {
                    0.0
                } else {
                    noise * ((i * 37 % 7) as f64 - 3.0) / 3.0
                };
                (
                    Seconds::new(t),
                    Nanoseconds::new(beta * (1.0 + c * t).ln() + wobble),
                )
            })
            .collect()
    }

    #[test]
    fn exact_data_round_trips() {
        let fit = FittedStressCurve::fit(&synth(0.35, 5e-3, 0.0)).unwrap();
        assert!((fit.beta_ns - 0.35).abs() < 0.01, "beta = {}", fit.beta_ns);
        assert!(
            (fit.c_per_s.log10() - (5e-3f64).log10()).abs() < 0.1,
            "C = {}",
            fit.c_per_s
        );
        assert!(fit.rmse_ns < 1e-6);
    }

    #[test]
    fn noisy_data_still_recovers_amplitude() {
        let fit = FittedStressCurve::fit(&synth(0.35, 5e-3, 0.05)).unwrap();
        assert!((fit.beta_ns - 0.35).abs() < 0.05, "beta = {}", fit.beta_ns);
        assert!(fit.rmse_ns < 0.08);
    }

    #[test]
    fn predict_matches_fit_at_samples() {
        let data = synth(0.5, 1e-3, 0.0);
        let fit = FittedStressCurve::fit(&data).unwrap();
        for (t, y) in data {
            assert!((fit.predict(t).get() - y.get()).abs() < 1e-3);
        }
    }

    #[test]
    fn too_few_samples_is_none() {
        let data = synth(0.5, 1e-3, 0.0);
        assert!(FittedStressCurve::fit(&data[..2]).is_none());
        assert!(FittedStressCurve::fit(&[]).is_none());
    }

    #[test]
    fn all_zero_shift_is_none() {
        let flat: Vec<(Seconds, Nanoseconds)> = (0..10)
            .map(|i| (Seconds::new(1000.0 * f64::from(i)), Nanoseconds::ZERO))
            .collect();
        assert!(FittedStressCurve::fit(&flat).is_none());
    }

    #[test]
    fn predict_clamps_negative_time() {
        let fit = FittedStressCurve::fit(&synth(0.35, 5e-3, 0.0)).unwrap();
        assert_eq!(fit.predict(Seconds::new(-100.0)), Nanoseconds::ZERO);
    }
}
