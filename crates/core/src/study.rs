//! Monte-Carlo variation study — quantifying the gap the paper
//! acknowledges in §7: "the effects of chip to chip variations on aging
//! are also ignored for now".
//!
//! The paper ran five physical chips once; the simulator can run as many
//! chip populations as patience allows and report the spread of every
//! headline metric across process corners, trap-population draws, chamber
//! wobble and counter noise.

use selfheal_runtime::{self as runtime, CacheOutcome, ResultCache};
use selfheal_telemetry as telemetry;
use selfheal_units::float;

use crate::experiment::PaperExperiment;

/// The Table 1 recovery cases a study cell reports, in table order.
const RECOVERY_NAMES: [&str; 5] = ["R20Z6", "AR20N6", "AR110Z6", "AR110N6", "AR110N12"];

/// Bump whenever [`PaperExperiment`] or the cell extraction changes
/// meaning — cached study cells from older code are then never read.
const STUDY_CELL_CACHE_VERSION: u32 = 1;

/// Summary statistics of one metric across campaign repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl MetricStats {
    /// Computes stats from samples.
    ///
    /// Returns `None` for an empty sample set.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        // NaN-aware reductions: a NaN sample surfaces as NaN min/max
        // instead of silently vanishing from the spread.
        Some(MetricStats {
            mean,
            std_dev: var.sqrt(),
            min: float::min_of(samples.iter().copied())?,
            max: float::max_of(samples.iter().copied())?,
        })
    }

    /// Whether `value` lies within `k` standard deviations of the mean.
    #[must_use]
    pub fn contains_within_sigma(&self, value: f64, k: f64) -> bool {
        (value - self.mean).abs() <= k * self.std_dev.max(1e-12)
    }
}

/// Results of repeating the Table 1 campaign across chip populations.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationStudyOutcome {
    /// Number of campaign repetitions.
    pub runs: usize,
    /// Margin-relaxed (%) stats for each recovery case, in Table 1 order.
    pub margin_relaxed: Vec<(String, MetricStats)>,
    /// 24 h DC @110 °C frequency degradation (%) stats.
    pub dc110_degradation: MetricStats,
    /// AC/DC final degradation ratio stats.
    pub ac_over_dc: MetricStats,
}

/// The study runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationStudy {
    /// Number of independent chip populations to simulate.
    pub runs: usize,
    /// Seed of the first population (subsequent runs increment it).
    pub base_seed: u64,
}

impl VariationStudy {
    /// Runs the study at the quick sampling cadence (the spread of the
    /// end-point metrics does not need dense curves).
    ///
    /// Populations are independent, so they run concurrently on the
    /// `selfheal-runtime` global pool; each population's metrics are a
    /// pure function of its derived seed, so the outcome is identical to
    /// the serial loop this replaced, at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    #[must_use]
    pub fn run(&self) -> VariationStudyOutcome {
        self.run_cached(&ResultCache::disabled())
    }

    /// [`Self::run`] with study cells memoized through `cache`: a
    /// population whose campaign configuration (cadence + derived seed)
    /// was already evaluated is loaded instead of re-simulated. Bench
    /// binaries pass their run's cache, which `--no-cache` disables.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    #[must_use]
    pub fn run_cached(&self, cache: &ResultCache) -> VariationStudyOutcome {
        assert!(self.runs > 0, "need at least one run");
        let _study_span = telemetry::span!("study.run", runs = self.runs);
        let base_seed = self.base_seed;
        let cache = cache.clone();
        let cells = runtime::par_map_indexed(vec![(); self.runs], move |i, ()| {
            let experiment = PaperExperiment::quick(base_seed.wrapping_add(i as u64 * 7919));
            let key = format!("{experiment:?}");
            let (cell, outcome) =
                cache.get_or_compute("study-cell", STUDY_CELL_CACHE_VERSION, &key, || {
                    study_cell(&experiment)
                });
            telemetry::event!(
                "study.population",
                run = i,
                cached = outcome == CacheOutcome::Hit,
            );
            cell
        });

        let mut relaxed: Vec<Vec<f64>> = vec![Vec::new(); RECOVERY_NAMES.len()];
        let mut dc110 = Vec::new();
        let mut ratio = Vec::new();
        for cell in &cells {
            for (slot, value) in relaxed.iter_mut().zip(cell) {
                slot.push(*value);
            }
            dc110.push(cell[RECOVERY_NAMES.len()]);
            ratio.push(cell[RECOVERY_NAMES.len() + 1]);
        }

        VariationStudyOutcome {
            runs: self.runs,
            margin_relaxed: RECOVERY_NAMES
                .iter()
                .zip(relaxed)
                .map(|(name, samples)| ((*name).to_string(), stats_nonempty(&samples)))
                .collect(),
            dc110_degradation: stats_nonempty(&dc110),
            ac_over_dc: stats_nonempty(&ratio),
        }
    }
}

/// One population's contribution to the study, as a flat cacheable
/// vector: `[margin_relaxed × 5 (Table 1 order), dc110_mean, ac/dc]`.
fn study_cell(experiment: &PaperExperiment) -> Vec<f64> {
    let outputs = experiment.run();
    let mut cell = Vec::with_capacity(RECOVERY_NAMES.len() + 2);
    for name in RECOVERY_NAMES {
        let Some(case) = outputs.recovery(name) else {
            unreachable!("campaign always runs recovery case {name}");
        };
        cell.push(case.margin_relaxed().get());
    }
    let dcs: Vec<f64> = outputs
        .stresses
        .iter()
        .filter(|s| s.case.name == "AS110DC24")
        .map(|s| s.total_degradation().get())
        .collect();
    let dc_mean = dcs.iter().sum::<f64>() / dcs.len() as f64;
    cell.push(dc_mean);
    let Some(ac_case) = outputs.stress("AS110AC24") else {
        unreachable!("campaign always runs stress case AS110AC24");
    };
    cell.push(ac_case.total_degradation().get() / dc_mean);
    cell
}

/// Stats over a sample vector the study filled with one entry per run;
/// `runs > 0` is asserted up front, so emptiness is unreachable.
fn stats_nonempty(samples: &[f64]) -> MetricStats {
    match MetricStats::from_samples(samples) {
        Some(stats) => stats,
        None => unreachable!("one sample per run and runs > 0 was asserted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_stats_basics() {
        let s = MetricStats::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.contains_within_sigma(2.5, 1.0));
        assert!(!s.contains_within_sigma(5.0, 1.0));
    }

    #[test]
    fn metric_stats_degenerate_inputs() {
        assert!(MetricStats::from_samples(&[]).is_none());
        let single = MetricStats::from_samples(&[4.2]).unwrap();
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.min, single.max);
    }

    #[test]
    fn small_study_brackets_the_paper_headline() {
        // Three populations are enough to check the 72.4 % headline sits
        // inside the simulated chip-to-chip spread.
        let outcome = VariationStudy {
            runs: 3,
            base_seed: 2014,
        }
        .run();
        assert_eq!(outcome.runs, 3);
        let (name, headline) = outcome
            .margin_relaxed
            .iter()
            .find(|(n, _)| n == "AR110N6")
            .unwrap();
        assert_eq!(name, "AR110N6");
        assert!(
            headline.min < 85.0 && headline.max > 60.0,
            "spread {headline:?} should straddle the plausible range"
        );
        assert!(outcome.dc110_degradation.mean > 1.0 && outcome.dc110_degradation.mean < 4.0);
        assert!(outcome.ac_over_dc.mean > 0.3 && outcome.ac_over_dc.mean < 0.8);
    }

    #[test]
    fn cached_study_matches_uncached() {
        let root =
            std::env::temp_dir().join(format!("selfheal-study-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let study = VariationStudy {
            runs: 2,
            base_seed: 31,
        };
        let uncached = study.run();
        let cache = ResultCache::at(root);
        let first = study.run_cached(&cache);
        let second = study.run_cached(&cache); // all cells hit
        assert_eq!(uncached, first);
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn rejects_zero_runs() {
        let _ = VariationStudy {
            runs: 0,
            base_seed: 1,
        }
        .run();
    }
}
