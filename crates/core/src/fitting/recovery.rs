//! Fitting the Eq. (11) recovery kernel.
//!
//! The recovered delay during sleep is modelled as
//!
//! ```text
//! RD(t₂) = a · log(1 + c·t₂) / (1 + b·log(1 + c·(t₁ + t₂)))
//! ```
//!
//! — the paper's recovery form with the amplitude `a` (absorbing
//! `ΔTd(t₁)·φ₂·k`), the saturation weight `b` and the onset rate `c` as
//! the extracted parameters. `t₁` (the stress time that inflicted the
//! shift) is known from the schedule, not fitted.

use selfheal_units::{Nanoseconds, Seconds};

use super::rmse;

/// A fitted recovery curve.
///
/// # Examples
///
/// ```
/// use selfheal::fitting::FittedRecoveryCurve;
/// use selfheal_units::{Nanoseconds, Seconds};
///
/// let t1 = Seconds::new(86_400.0);
/// let truth = |t2: f64| 2.0 * (1.0 + 2e-2 * t2).ln() / (1.0 + 0.5 * (1.0 + 2e-2 * (86_400.0 + t2)).ln());
/// let samples: Vec<(Seconds, Nanoseconds)> = (0..=12)
///     .map(|i| {
///         let t2 = 1800.0 * f64::from(i);
///         (Seconds::new(t2), Nanoseconds::new(truth(t2)))
///     })
///     .collect();
/// let fit = FittedRecoveryCurve::fit(&samples, t1).expect("enough samples");
/// assert!(fit.rmse_ns < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedRecoveryCurve {
    /// Amplitude `a` in nanoseconds.
    pub a_ns: f64,
    /// Saturation weight `b` (the paper's `k`-like parameter).
    pub b: f64,
    /// Onset rate `c` in 1/s.
    pub c_per_s: f64,
    /// The stress time `t₁` this curve conditions on.
    pub t1: Seconds,
    /// Fit quality against the provided samples.
    pub rmse_ns: f64,
}

impl FittedRecoveryCurve {
    /// Grid resolution per nonlinear parameter.
    const GRID: usize = 25;
    /// `log10 c` search window (1/s).
    const LOG_C_RANGE: (f64, f64) = (-6.0, 0.0);
    /// `log10 b` search window.
    const LOG_B_RANGE: (f64, f64) = (-2.0, 1.5);

    /// Fits the kernel to `(sleep elapsed, recovered delay)` samples.
    ///
    /// Returns `None` with fewer than three informative samples or when
    /// nothing recovered at all.
    #[must_use]
    pub fn fit(samples: &[(Seconds, Nanoseconds)], t1: Seconds) -> Option<Self> {
        let pts: Vec<(f64, f64)> = samples
            .iter()
            .map(|(t, y)| (t.get(), y.get()))
            .filter(|(t, _)| *t >= 0.0)
            .collect();
        let informative = pts.iter().filter(|(t, _)| *t > 0.0).count();
        if informative < 3 || pts.iter().all(|(_, y)| y.abs() < 1e-12) {
            return None;
        }
        let t1s = t1.get().max(0.0);

        let kernel = |b: f64, c: f64, t2: f64| -> f64 {
            (1.0 + c * t2).ln() / (1.0 + b * (1.0 + c * (t1s + t2)).ln())
        };
        let solve = |b: f64, c: f64| -> (f64, f64) {
            let mut num = 0.0;
            let mut den = 0.0;
            for &(t, y) in &pts {
                let g = kernel(b, c, t);
                num += g * y;
                den += g * g;
            }
            if den <= 0.0 {
                return (0.0, f64::INFINITY);
            }
            let a = num / den;
            let sse = pts
                .iter()
                .map(|&(t, y)| {
                    let e = y - a * kernel(b, c, t);
                    e * e
                })
                .sum();
            (a, sse)
        };

        let (c_lo, c_hi) = Self::LOG_C_RANGE;
        let (b_lo, b_hi) = Self::LOG_B_RANGE;
        let mut best = (f64::INFINITY, 0.0, 0.0, 0.0); // (sse, a, b, c)
        for i in 0..Self::GRID {
            let b = 10f64.powf(b_lo + (b_hi - b_lo) * i as f64 / (Self::GRID - 1) as f64);
            for j in 0..Self::GRID {
                let c = 10f64.powf(c_lo + (c_hi - c_lo) * j as f64 / (Self::GRID - 1) as f64);
                let (a, sse) = solve(b, c);
                if sse < best.0 {
                    best = (sse, a, b, c);
                }
            }
        }

        // One round of local grid refinement around the winner.
        let b_step = (b_hi - b_lo) / (Self::GRID - 1) as f64;
        let c_step = (c_hi - c_lo) / (Self::GRID - 1) as f64;
        for i in 0..Self::GRID {
            let lb = best.2.log10() - b_step + 2.0 * b_step * i as f64 / (Self::GRID - 1) as f64;
            for j in 0..Self::GRID {
                let lc =
                    best.3.log10() - c_step + 2.0 * c_step * j as f64 / (Self::GRID - 1) as f64;
                let (b, c) = (10f64.powf(lb), 10f64.powf(lc));
                let (a, sse) = solve(b, c);
                if sse < best.0 {
                    best = (sse, a, b, c);
                }
            }
        }

        let (_, a, b, c) = best;
        Some(FittedRecoveryCurve {
            a_ns: a,
            b,
            c_per_s: c,
            t1,
            rmse_ns: rmse(pts.iter().map(|&(t, y)| y - a * kernel(b, c, t))),
        })
    }

    /// The model's predicted recovered delay after `t2` of sleep.
    #[must_use]
    pub fn predict(&self, t2: Seconds) -> Nanoseconds {
        let t2 = t2.get().max(0.0);
        let t1 = self.t1.get().max(0.0);
        let g =
            (1.0 + self.c_per_s * t2).ln() / (1.0 + self.b * (1.0 + self.c_per_s * (t1 + t2)).ln());
        Nanoseconds::new(self.a_ns * g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(a: f64, b: f64, c: f64, t1: f64, noise: f64) -> Vec<(Seconds, Nanoseconds)> {
        (0..=12)
            .map(|i| {
                let t2 = 1800.0 * f64::from(i);
                let g = (1.0 + c * t2).ln() / (1.0 + b * (1.0 + c * (t1 + t2)).ln());
                let wobble = if noise == 0.0 {
                    0.0
                } else {
                    noise * ((i * 23 % 5) as f64 - 2.0) / 2.0
                };
                (Seconds::new(t2), Nanoseconds::new(a * g + wobble))
            })
            .collect()
    }

    #[test]
    fn exact_data_round_trips() {
        let t1 = Seconds::new(86_400.0);
        let fit = FittedRecoveryCurve::fit(&synth(2.0, 0.5, 2e-2, 86_400.0, 0.0), t1).unwrap();
        assert!(fit.rmse_ns < 5e-3, "rmse = {}", fit.rmse_ns);
        // Near-range extrapolation (double the sampled window) must match
        // even if (a, b, c) individually trade off along the fit's ridge.
        let t2 = 43_200.0;
        let deep = fit.predict(Seconds::new(t2)).get();
        let truth =
            2.0 * (1.0f64 + 2e-2 * t2).ln() / (1.0 + 0.5 * (1.0f64 + 2e-2 * (86_400.0 + t2)).ln());
        assert!((deep - truth).abs() / truth < 0.05, "{deep} vs {truth}");
    }

    #[test]
    fn noisy_data_fits_reasonably() {
        let t1 = Seconds::new(86_400.0);
        let fit = FittedRecoveryCurve::fit(&synth(2.0, 0.5, 2e-2, 86_400.0, 0.05), t1).unwrap();
        assert!(fit.rmse_ns < 0.08);
        let mid = fit.predict(Seconds::new(10_800.0)).get();
        assert!(mid > 0.5 && mid < 2.5, "mid-curve prediction {mid}");
    }

    #[test]
    fn prediction_is_monotone_in_sleep_time() {
        let t1 = Seconds::new(86_400.0);
        let fit = FittedRecoveryCurve::fit(&synth(2.0, 0.5, 2e-2, 86_400.0, 0.0), t1).unwrap();
        let mut prev = -1.0;
        for i in 0..20 {
            let v = fit.predict(Seconds::new(2000.0 * f64::from(i))).get();
            assert!(v >= prev - 1e-9, "recovery curve must not regress");
            prev = v;
        }
    }

    #[test]
    fn degenerate_inputs_are_none() {
        let t1 = Seconds::new(86_400.0);
        assert!(FittedRecoveryCurve::fit(&[], t1).is_none());
        let flat: Vec<(Seconds, Nanoseconds)> = (0..10)
            .map(|i| (Seconds::new(600.0 * f64::from(i)), Nanoseconds::ZERO))
            .collect();
        assert!(FittedRecoveryCurve::fit(&flat, t1).is_none());
    }
}
