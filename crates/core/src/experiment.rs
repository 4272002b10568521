//! The full paper campaign: five simulated chips through the Table 1
//! matrix, chronologically, producing every series the evaluation section
//! plots.
//!
//! Chronology (the table groups rows by phase; the physical order per
//! chip, reconstructed from §4.4, is):
//!
//! * Chip 1: burn-in → AS110AC24
//! * Chip 2: burn-in → AS110DC24 → R20Z6
//! * Chip 3: burn-in → AS110DC24 → AR20N6
//! * Chip 4: burn-in → AS100DC24 → AR110Z6
//! * Chip 5: burn-in → AS110DC24 → AR110N6 → AS110DC48 → AR110N12
//!
//! Every chip starts with the paper's 2 h / 20 °C / 1.2 V burn-in
//! baseline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_fpga::{Chip, ChipId};
use selfheal_runtime::{self as runtime, CacheOutcome, CacheRecord, ResultCache};
use selfheal_telemetry::{self as telemetry, json::Json};
use selfheal_testbench::cases::{self, PhaseKind, TestCase};
use selfheal_testbench::{PhaseSpec, TestHarness};
use selfheal_units::{Hours, Minutes, Nanoseconds, Percent, Seconds};

use crate::fitting::{FittedRecoveryCurve, FittedStressCurve};
use crate::metrics::{
    degradation_series, recovery_series, DegradationPoint, RecoveryAssessment, RecoveryPoint,
};

/// Result of one stress case.
#[derive(Debug, Clone, PartialEq)]
pub struct StressOutcome {
    /// The Table 1 row that was run.
    pub case: TestCase,
    /// The Fig. 4/5 degradation series.
    pub series: Vec<DegradationPoint>,
    /// The Eq. (10) fit extracted from the series (Table 3), when the
    /// series carries enough information.
    pub fit: Option<FittedStressCurve>,
    /// Measured CUT delay at the start of the phase.
    pub start_delay: Nanoseconds,
    /// Measured CUT delay at the end of the phase.
    pub end_delay: Nanoseconds,
}

impl StressOutcome {
    /// Total frequency degradation over the phase (the Table 2 number).
    #[must_use]
    pub fn total_degradation(&self) -> Percent {
        self.series
            .last()
            .map(|p| p.frequency_degradation)
            .unwrap_or_default()
    }

    /// Total delay shift over the phase, `ΔTd(t₁)`.
    #[must_use]
    pub fn total_shift(&self) -> Nanoseconds {
        self.end_delay - self.start_delay
    }
}

/// Result of one recovery case.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The Table 1 row that was run.
    pub case: TestCase,
    /// The Fig. 6–8 recovery series.
    pub series: Vec<RecoveryPoint>,
    /// The Eq. (11) fit extracted from the series.
    pub fit: Option<FittedRecoveryCurve>,
    /// The Table 4 assessment (inflicted vs recovered shift).
    pub assessment: RecoveryAssessment,
    /// The chip's cumulative stress exposure when this recovery began,
    /// `t₁` (24 h for the first-cycle cases, 72 h for AR110N12).
    pub stress_duration: Seconds,
}

impl RecoveryOutcome {
    /// The design-margin-relaxed parameter of Table 4.
    #[must_use]
    pub fn margin_relaxed(&self) -> Percent {
        self.assessment.margin_relaxed()
    }
}

/// Everything the campaign produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentOutputs {
    /// Stress cases in chronological order of execution.
    pub stresses: Vec<StressOutcome>,
    /// Recovery cases in chronological order of execution.
    pub recoveries: Vec<RecoveryOutcome>,
}

impl ExperimentOutputs {
    /// Finds a stress case by Table 1 name (first match: `AS110DC24` runs
    /// on three chips; [`Self::stress_on`] disambiguates).
    #[must_use]
    pub fn stress(&self, name: &str) -> Option<&StressOutcome> {
        self.stresses.iter().find(|s| s.case.name == name)
    }

    /// Finds a stress case by name and chip.
    #[must_use]
    pub fn stress_on(&self, name: &str, chip: ChipId) -> Option<&StressOutcome> {
        self.stresses
            .iter()
            .find(|s| s.case.name == name && s.case.chip == chip)
    }

    /// Finds a recovery case by Table 1 name.
    #[must_use]
    pub fn recovery(&self, name: &str) -> Option<&RecoveryOutcome> {
        self.recoveries.iter().find(|r| r.case.name == name)
    }
}

/// The campaign runner. See the crate-level quickstart.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperExperiment {
    seed: u64,
    stress_sampling: Seconds,
    recovery_sampling: Seconds,
}

impl PaperExperiment {
    /// The paper's cadence: stress sampled every 20 minutes, recovery
    /// every 30 minutes. This is the configuration behind the published
    /// figures; prefer it for benchmarks and figure regeneration.
    #[must_use]
    pub fn paper_cadence(seed: u64) -> Self {
        PaperExperiment {
            seed,
            stress_sampling: Minutes::new(20.0).into(),
            recovery_sampling: Minutes::new(30.0).into(),
        }
    }

    /// A coarser cadence (4 h / 1 h sampling) for tests and doc examples:
    /// same physics, same durations, ~20× fewer sampling steps.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        PaperExperiment {
            seed,
            stress_sampling: Hours::new(4.0).into(),
            recovery_sampling: Hours::new(1.0).into(),
        }
    }

    /// Runs the whole campaign.
    ///
    /// Deterministic for a given seed: chips, trap populations, chamber
    /// fluctuations and counter jitter all derive from it. The five chips
    /// are independent (each seeds its own RNG from the campaign seed and
    /// its chip number), so they run concurrently on the
    /// `selfheal-runtime` global pool; outputs are assembled in chip
    /// order, making the result bit-for-bit identical to the serial loop
    /// this replaced, at any worker count.
    #[must_use]
    pub fn run(&self) -> ExperimentOutputs {
        self.run_cached(&ResultCache::disabled()).0
    }

    /// Runs the whole campaign through a per-chip result cache.
    ///
    /// Each chip's outcome bundle is memoized independently under the
    /// `experiment-chip` namespace, keyed by the full experiment
    /// configuration (seed and both sampling cadences) plus the chip
    /// number, and versioned by [`selfheal_bti::td::KERNEL_VERSION`] so a
    /// trap-kinetics rewrite invalidates every stored run. Rehydration is
    /// bit-exact (the codec stores shortest-round-trip doubles), so a hit
    /// returns the same outputs the chip simulation would recompute — but
    /// skips the simulation, and with it the chip's telemetry (spans,
    /// counters, phase-list entries). Use [`Self::run`] when the
    /// manifest must reflect a full simulation.
    ///
    /// Returns the assembled outputs plus one [`CacheOutcome`] per chip,
    /// in chip order.
    #[must_use]
    pub fn run_cached(&self, cache: &ResultCache) -> (ExperimentOutputs, Vec<CacheOutcome>) {
        // Root span on the submitting thread: per-chip spans then nest
        // under it (or are drained by pool workers), keeping the phase
        // ledger a manifest drains deterministic under parallelism.
        let _campaign_span = telemetry::span!("experiment.campaign", chips = 5u32);
        let this = self.clone();
        let cache = cache.clone();
        let per_chip = runtime::par_map((1..=5u32).collect(), move |chip_no| {
            let key = format!("{this:?};chip={chip_no}");
            let runner = this.clone();
            cache.get_or_compute(
                "experiment-chip",
                selfheal_bti::td::KERNEL_VERSION,
                &key,
                move || {
                    let (stresses, recoveries) = runner.run_chip(chip_no);
                    ChipRecord {
                        stresses,
                        recoveries,
                    }
                },
            )
        });
        let mut outputs = ExperimentOutputs::default();
        let mut outcomes = Vec::with_capacity(5);
        for (record, outcome) in per_chip {
            outputs.stresses.extend(record.stresses);
            outputs.recoveries.extend(record.recoveries);
            outcomes.push(outcome);
        }
        (outputs, outcomes)
    }

    /// Runs one chip's chronological case sequence (burn-in, then its
    /// Table 1 rows) and returns its outcomes in execution order.
    fn run_chip(&self, chip_no: u32) -> (Vec<StressOutcome>, Vec<RecoveryOutcome>) {
        let mut outputs = ExperimentOutputs::default();
        let table = cases::table1();
        {
            let _chip_span = telemetry::span!("experiment.chip", chip = chip_no);
            let chip_id = ChipId::new(chip_no);
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(u64::from(chip_no)));
            let chip = Chip::commercial_40nm(chip_id, &mut rng);
            let mut harness = TestHarness::new(chip);

            // Burn-in baseline (§4.4).
            let burn_in = PhaseSpec::burn_in();
            if let Err(err) = harness.run_phase(&burn_in, &mut rng) {
                unreachable!("burn-in spec is statically valid: {err}");
            }

            // This chip's Table 1 rows, in chronological order. The
            // table groups rows by phase, so chip 5 needs interleaving:
            // each recovery row runs right after its paired stress row
            // (AS110DC24 → AR110N6 → AS110DC48 → AR110N12, §4.4).
            let chip_cases: Vec<TestCase> = table
                .iter()
                .filter(|c| c.chip == chip_id && !c.is_recovery())
                .flat_map(|stress| {
                    std::iter::once(*stress).chain(
                        table
                            .iter()
                            .filter(|r| {
                                r.chip == chip_id
                                    && r.is_recovery()
                                    && cases::stress_case_for(r)
                                        .is_some_and(|s| s.name == stress.name)
                            })
                            .copied(),
                    )
                })
                .collect();

            // `chip_fresh` is the chip's original pre-stress baseline: the
            // "original margin" every recovery is assessed against. For a
            // re-stressed chip (AR110N12) the paper's margin-relaxed
            // parameter still refers to the original margin, and `t1` is
            // the chip's cumulative stress exposure.
            let mut chip_fresh: Option<Nanoseconds> = None;
            let mut cumulative_stress = Seconds::ZERO;
            for case in chip_cases {
                telemetry::event!(
                    "experiment.case",
                    name = case.name,
                    chip = chip_no,
                    recovery = case.is_recovery(),
                );
                let mut spec = case.to_phase_spec();
                spec.sampling_interval = match case.kind {
                    PhaseKind::Stress { .. } => self.stress_sampling,
                    PhaseKind::Recovery { .. } => self.recovery_sampling,
                };
                let records = match harness.run_phase(&spec, &mut rng) {
                    Ok(records) => records,
                    Err(err) => unreachable!("table-1 specs are statically valid: {err}"),
                };
                let (Some(first), Some(last)) = (records.first(), records.last()) else {
                    unreachable!("run_phase emits at least one record per phase");
                };
                let start = first.measurement.cut_delay;
                let end = last.measurement.cut_delay;

                match case.kind {
                    PhaseKind::Stress { .. } => {
                        let series = degradation_series(&records);
                        let fit = FittedStressCurve::fit(
                            &series
                                .iter()
                                .map(|p| (p.elapsed, p.delay_shift))
                                .collect::<Vec<_>>(),
                        );
                        outputs.stresses.push(StressOutcome {
                            case,
                            series,
                            fit,
                            start_delay: start,
                            end_delay: end,
                        });
                        chip_fresh.get_or_insert(start);
                        cumulative_stress += case.duration.to_seconds();
                    }
                    PhaseKind::Recovery { .. } => {
                        let t1 = cumulative_stress;
                        let Some(fresh) = chip_fresh else {
                            unreachable!("every recovery case follows a stress case on its chip");
                        };
                        let series = recovery_series(&records, fresh);
                        let fit = FittedRecoveryCurve::fit(
                            &series
                                .iter()
                                .map(|p| (p.elapsed, p.recovered_delay))
                                .collect::<Vec<_>>(),
                            t1,
                        );
                        outputs.recoveries.push(RecoveryOutcome {
                            case,
                            series,
                            fit,
                            assessment: RecoveryAssessment::new(fresh, start, end),
                            stress_duration: t1,
                        });
                    }
                }
            }
        }
        (outputs.stresses, outputs.recoveries)
    }
}

/// One chip's cached outcome bundle (the unit of memoization in
/// [`PaperExperiment::run_cached`]).
struct ChipRecord {
    stresses: Vec<StressOutcome>,
    recoveries: Vec<RecoveryOutcome>,
}

impl CacheRecord for ChipRecord {
    fn to_cache_json(&self) -> Json {
        Json::Array(vec![
            Json::Array(self.stresses.iter().map(stress_to_json).collect()),
            Json::Array(self.recoveries.iter().map(recovery_to_json).collect()),
        ])
    }

    fn from_cache_json(json: &Json) -> Option<Self> {
        let [stresses, recoveries] = json.as_array()? else {
            return None;
        };
        Some(ChipRecord {
            stresses: stresses
                .as_array()?
                .iter()
                .map(stress_from_json)
                .collect::<Option<Vec<_>>>()?,
            recoveries: recoveries
                .as_array()?
                .iter()
                .map(recovery_from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// A [`TestCase`] is table data, not simulation output: persist only its
/// identity (name, chip) and rehydrate the full row from
/// [`cases::table1`]. A cached run therefore can never resurrect a stale
/// copy of an edited table row — the row's parameters come back from the
/// current table, and the experiment key's version bump covers the
/// physics that consumed them.
fn case_to_json(case: &TestCase) -> Json {
    Json::Array(vec![
        Json::String(case.name.to_string()),
        Json::Number(f64::from(case.chip.get())),
    ])
}

fn case_from_json(json: &Json) -> Option<TestCase> {
    let [name, chip] = json.as_array()? else {
        return None;
    };
    let name = name.as_str()?;
    let chip = ChipId::new(u32::try_from(chip.as_f64()? as u64).ok()?);
    cases::table1()
        .iter()
        .find(|c| c.name == name && c.chip == chip)
        .copied()
}

fn stress_to_json(s: &StressOutcome) -> Json {
    Json::Array(vec![
        case_to_json(&s.case),
        Json::Array(
            s.series
                .iter()
                .map(|p| {
                    Json::Array(vec![
                        Json::Number(p.elapsed.get()),
                        Json::Number(p.frequency_degradation.get()),
                        Json::Number(p.delay_shift.get()),
                    ])
                })
                .collect(),
        ),
        s.fit.map_or(Json::Null, |f| {
            Json::Array(vec![
                Json::Number(f.beta_ns),
                Json::Number(f.c_per_s),
                Json::Number(f.rmse_ns),
            ])
        }),
        Json::Number(s.start_delay.get()),
        Json::Number(s.end_delay.get()),
    ])
}

fn stress_from_json(json: &Json) -> Option<StressOutcome> {
    let [case, series, fit, start, end] = json.as_array()? else {
        return None;
    };
    let series = series
        .as_array()?
        .iter()
        .map(|p| {
            let [elapsed, deg, shift] = p.as_array()? else {
                return None;
            };
            Some(DegradationPoint {
                elapsed: Seconds::new(elapsed.as_f64()?),
                frequency_degradation: Percent::new(deg.as_f64()?),
                delay_shift: Nanoseconds::new(shift.as_f64()?),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let fit = match fit {
        Json::Null => None,
        other => {
            let [beta, c, rmse] = other.as_array()? else {
                return None;
            };
            Some(FittedStressCurve {
                beta_ns: beta.as_f64()?,
                c_per_s: c.as_f64()?,
                rmse_ns: rmse.as_f64()?,
            })
        }
    };
    Some(StressOutcome {
        case: case_from_json(case)?,
        series,
        fit,
        start_delay: Nanoseconds::new(start.as_f64()?),
        end_delay: Nanoseconds::new(end.as_f64()?),
    })
}

fn recovery_to_json(r: &RecoveryOutcome) -> Json {
    Json::Array(vec![
        case_to_json(&r.case),
        Json::Array(
            r.series
                .iter()
                .map(|p| {
                    Json::Array(vec![
                        Json::Number(p.elapsed.get()),
                        Json::Number(p.recovered_delay.get()),
                        Json::Number(p.remaining_shift.get()),
                    ])
                })
                .collect(),
        ),
        r.fit.map_or(Json::Null, |f| {
            Json::Array(vec![
                Json::Number(f.a_ns),
                Json::Number(f.b),
                Json::Number(f.c_per_s),
                Json::Number(f.t1.get()),
                Json::Number(f.rmse_ns),
            ])
        }),
        Json::Number(r.assessment.inflicted.get()),
        Json::Number(r.assessment.recovered.get()),
        Json::Number(r.stress_duration.get()),
    ])
}

fn recovery_from_json(json: &Json) -> Option<RecoveryOutcome> {
    let [case, series, fit, inflicted, recovered, stress_duration] = json.as_array()? else {
        return None;
    };
    let series = series
        .as_array()?
        .iter()
        .map(|p| {
            let [elapsed, delay, remaining] = p.as_array()? else {
                return None;
            };
            Some(RecoveryPoint {
                elapsed: Seconds::new(elapsed.as_f64()?),
                recovered_delay: Nanoseconds::new(delay.as_f64()?),
                remaining_shift: Nanoseconds::new(remaining.as_f64()?),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let fit = match fit {
        Json::Null => None,
        other => {
            let [a, b, c, t1, rmse] = other.as_array()? else {
                return None;
            };
            Some(FittedRecoveryCurve {
                a_ns: a.as_f64()?,
                b: b.as_f64()?,
                c_per_s: c.as_f64()?,
                t1: Seconds::new(t1.as_f64()?),
                rmse_ns: rmse.as_f64()?,
            })
        }
    };
    Some(RecoveryOutcome {
        case: case_from_json(case)?,
        series,
        fit,
        assessment: RecoveryAssessment {
            inflicted: Nanoseconds::new(inflicted.as_f64()?),
            recovered: Nanoseconds::new(recovered.as_f64()?),
        },
        stress_duration: Seconds::new(stress_duration.as_f64()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // One shared quick campaign for all assertions: the run itself is the
    // expensive part.
    fn outputs() -> &'static ExperimentOutputs {
        use std::sync::OnceLock;
        static OUTPUTS: OnceLock<ExperimentOutputs> = OnceLock::new();
        OUTPUTS.get_or_init(|| PaperExperiment::quick(2014).run())
    }

    #[test]
    fn campaign_runs_all_cases() {
        let o = outputs();
        assert_eq!(o.stresses.len(), 6);
        assert_eq!(o.recoveries.len(), 5);
    }

    #[test]
    fn dc_stress_reaches_paper_magnitude() {
        let o = outputs();
        let dc = o.stress_on("AS110DC24", ChipId::new(2)).unwrap();
        let deg = dc.total_degradation().get();
        assert!(deg > 1.2 && deg < 4.0, "AS110DC24 degradation = {deg} %");
    }

    #[test]
    fn ac_is_roughly_half_of_dc_at_path_level() {
        let o = outputs();
        let ac = o.stress("AS110AC24").unwrap().total_degradation().get();
        // Average the three 110 °C DC chips to tame chip-to-chip spread.
        let dcs: Vec<f64> = o
            .stresses
            .iter()
            .filter(|s| s.case.name == "AS110DC24")
            .map(|s| s.total_degradation().get())
            .collect();
        let dc = dcs.iter().sum::<f64>() / dcs.len() as f64;
        let ratio = ac / dc;
        assert!(ratio > 0.3 && ratio < 0.75, "AC/DC = {ratio}");
    }

    #[test]
    fn hundred_degrees_is_milder_than_110() {
        let o = outputs();
        let c100 = o.stress("AS100DC24").unwrap().total_degradation().get();
        let dcs: Vec<f64> = o
            .stresses
            .iter()
            .filter(|s| s.case.name == "AS110DC24")
            .map(|s| s.total_degradation().get())
            .collect();
        let c110 = dcs.iter().sum::<f64>() / dcs.len() as f64;
        assert!(c100 < c110, "{c100} vs {c110}");
        assert!(
            c100 / c110 > 0.7,
            "the gap is modest (Fig. 5): {}",
            c100 / c110
        );
    }

    #[test]
    fn recovery_ordering_matches_paper() {
        let o = outputs();
        let relaxed = |name: &str| o.recovery(name).unwrap().margin_relaxed().get();
        let passive = relaxed("R20Z6");
        let neg = relaxed("AR20N6");
        let hot = relaxed("AR110Z6");
        let both = relaxed("AR110N6");
        assert!(passive < neg, "R20Z6 {passive} < AR20N6 {neg}");
        assert!(passive < hot, "R20Z6 {passive} < AR110Z6 {hot}");
        assert!(both > neg && both > hot, "combined wins: {both}");
    }

    #[test]
    fn headline_margin_relaxed_near_724() {
        let o = outputs();
        let both = o.recovery("AR110N6").unwrap().margin_relaxed().get();
        assert!(
            both > 60.0 && both < 85.0,
            "AR110N6 margin relaxed = {both} %"
        );
    }

    #[test]
    fn alpha_four_generalises_to_longer_stress() {
        // Table 5: AR110N6 (24 h / 6 h) and AR110N12 (48 h / 12 h) achieve
        // a comparable margin-relaxed parameter.
        let o = outputs();
        let short = o.recovery("AR110N6").unwrap().margin_relaxed().get();
        let long = o.recovery("AR110N12").unwrap().margin_relaxed().get();
        assert!(
            (short - long).abs() < 12.0,
            "AR110N6 {short} vs AR110N12 {long}"
        );
    }

    #[test]
    fn recovery_series_rise_monotonically_modulo_noise() {
        let o = outputs();
        for rec in &o.recoveries {
            let first = rec.series.first().unwrap().recovered_delay.get();
            let last = rec.series.last().unwrap().recovered_delay.get();
            assert!(last > first, "{} recovers over time", rec.case.name);
        }
    }

    #[test]
    fn fits_are_extracted_for_every_case() {
        let o = outputs();
        for s in &o.stresses {
            let fit = s
                .fit
                .as_ref()
                .unwrap_or_else(|| panic!("{} has a fit", s.case.name));
            assert!(fit.beta_ns > 0.0);
            // The model curve should track the data decently.
            assert!(
                fit.rmse_ns < 0.3 * s.total_shift().get().max(0.3),
                "{}: rmse {}",
                s.case.name,
                fit.rmse_ns
            );
        }
        for r in &o.recoveries {
            assert!(r.fit.is_some(), "{} has a fit", r.case.name);
        }
    }

    #[test]
    fn lookup_helpers() {
        let o = outputs();
        assert!(o.stress("AS110AC24").is_some());
        assert!(o.stress("NOPE").is_none());
        assert!(o.recovery("AR110N12").is_some());
        assert!(o.recovery("AS110DC24").is_none());
        assert!(o.stress_on("AS110DC24", ChipId::new(5)).is_some());
        assert!(o.stress_on("AS110DC24", ChipId::new(1)).is_none());
    }

    #[test]
    fn cached_campaign_round_trips_bit_for_bit() {
        let root =
            std::env::temp_dir().join(format!("selfheal-core-chipcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = ResultCache::at(root);
        let exp = PaperExperiment::quick(2014);
        let (first, outcomes) = exp.run_cached(&cache);
        assert_eq!(outcomes, vec![CacheOutcome::Miss; 5]);
        let (second, outcomes) = exp.run_cached(&cache);
        assert_eq!(outcomes, vec![CacheOutcome::Hit; 5]);
        assert_eq!(first, second, "rehydration reproduces the computed run");
        assert_eq!(
            &first,
            outputs(),
            "cached path matches PaperExperiment::run"
        );
        // A different configuration cannot replay these entries.
        let (_, outcomes) = PaperExperiment::quick(2015).run_cached(&cache);
        assert_eq!(outcomes, vec![CacheOutcome::Miss; 5]);
    }

    #[test]
    fn determinism_given_seed() {
        let a = PaperExperiment::quick(7).run();
        let b = PaperExperiment::quick(7).run();
        assert_eq!(a, b);
    }
}
