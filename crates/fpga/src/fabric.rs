//! Multi-location CUT placement across the die.
//!
//! §4.2: "CUT is placed at different locations on the FPGA, and a
//! diagnostic program is run" — the authors survey the die before picking
//! a location. This module provides that survey: an array of ring
//! oscillators placed on a grid, sharing the chip's process corner but
//! carrying a systematic within-die gradient plus local variation, all
//! read through one counter.

use std::sync::Arc;

use rand::Rng;
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::Environment;
use selfheal_runtime::{self as runtime, CacheOutcome, CacheRecord, ResultCache, SeedSequence};
use selfheal_telemetry::{self as telemetry, json::Json, manifest::fnv1a};
use selfheal_units::{float, Millivolts, Nanoseconds, Seconds};

use crate::counter::FrequencyCounter;
use crate::family::Family;
use crate::ring_oscillator::{RingOscillator, RoMode};

/// A CUT site on the die grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DieLocation {
    /// Column index.
    pub column: u8,
    /// Row index.
    pub row: u8,
}

impl std::fmt::Display for DieLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.column, self.row)
    }
}

/// Within-die systematic variation: a linear threshold gradient across
/// the die, on top of the chip corner and local mismatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieGradient {
    /// Systematic Vth slope per column, mV.
    pub mv_per_column: f64,
    /// Systematic Vth slope per row, mV.
    pub mv_per_row: f64,
}

impl Default for DieGradient {
    /// A mild 1.5 mV/site gradient, typical of lithographic/strain
    /// systematics at 40 nm.
    fn default() -> Self {
        DieGradient {
            mv_per_column: 1.5,
            mv_per_row: 1.0,
        }
    }
}

impl DieGradient {
    /// The systematic offset at a location.
    #[must_use]
    pub fn offset_at(&self, location: DieLocation) -> Millivolts {
        Millivolts::new(
            self.mv_per_column * f64::from(location.column)
                + self.mv_per_row * f64::from(location.row),
        )
    }
}

/// An array of CUT ring oscillators across the die.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use selfheal_fpga::fabric::CutArray;
/// use selfheal_fpga::Family;
/// use selfheal_units::Millivolts;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let array = CutArray::sample(
///     &Family::commercial_40nm(),
///     Millivolts::new(0.0),
///     3, 2,
///     &mut rng,
/// );
/// assert_eq!(array.len(), 6);
/// let spread = array.fresh_delay_spread();
/// assert!(spread.get() > 0.0, "locations differ: {spread}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CutArray {
    cuts: Vec<(DieLocation, RingOscillator)>,
    gradient: DieGradient,
    counter: FrequencyCounter,
    vdd: selfheal_units::Volts,
}

impl CutArray {
    /// Samples a `columns × rows` survey array on the given chip corner.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        family: &Family,
        corner_offset: Millivolts,
        columns: u8,
        rows: u8,
        rng: &mut R,
    ) -> Self {
        assert!(columns > 0 && rows > 0, "survey grid must be non-empty");
        let gradient = DieGradient::default();
        let mut cuts = Vec::with_capacity(usize::from(columns) * usize::from(rows));
        for row in 0..rows {
            for column in 0..columns {
                let location = DieLocation { column, row };
                let systematic = gradient.offset_at(location);
                let offset = Millivolts::new(corner_offset.get() + systematic.get());
                cuts.push((location, RingOscillator::sample(family, offset, rng)));
            }
        }
        CutArray {
            cuts,
            gradient,
            counter: FrequencyCounter::new(family.counter_bits, family.reference_clock),
            vdd: family.vdd_nominal,
        }
    }

    /// Samples a survey array with per-site RNG streams derived from
    /// `seed` on the `selfheal-runtime` global pool.
    ///
    /// Unlike [`CutArray::sample`] (which advances one shared RNG
    /// site-by-site and is therefore inherently serial), each site here
    /// draws from `SeedSequence::new(seed).rng(site_index)` — a pure
    /// function of `(family, corner_offset, grid, seed)`, bit-for-bit
    /// identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn sample_seeded(
        family: &Family,
        corner_offset: Millivolts,
        columns: u8,
        rows: u8,
        seed: u64,
    ) -> Self {
        assert!(columns > 0 && rows > 0, "survey grid must be non-empty");
        // Caller-side root span: keeps the pool's internal spans nested,
        // so manifests list the same phases at any worker count.
        let _span = telemetry::span!("fpga.fabric_sample", sites = columns as u64 * rows as u64);
        let gradient = DieGradient::default();
        let locations: Vec<DieLocation> = (0..rows)
            .flat_map(|row| (0..columns).map(move |column| DieLocation { column, row }))
            .collect();
        let seeds = SeedSequence::new(seed);
        let family_owned = family.clone();
        let cuts = runtime::par_map_indexed(locations, move |i, location| {
            let systematic = gradient.offset_at(location);
            let offset = Millivolts::new(corner_offset.get() + systematic.get());
            let mut rng = seeds.rng(i as u64);
            (
                location,
                RingOscillator::sample(&family_owned, offset, &mut rng),
            )
        });
        CutArray {
            cuts,
            gradient,
            counter: FrequencyCounter::new(family.counter_bits, family.reference_clock),
            vdd: family.vdd_nominal,
        }
    }

    /// Surveys every site in parallel: measured CUT delay per location in
    /// row-major order, with counter noise drawn from per-site streams
    /// derived from `seed` — deterministic at any worker count.
    #[must_use]
    pub fn survey(&self, seed: u64) -> Vec<(DieLocation, Nanoseconds)> {
        let _span = telemetry::span!("fpga.survey", sites = self.cuts.len());
        let array = Arc::new(self.clone());
        let locations: Vec<DieLocation> = self.locations().collect();
        let seeds = SeedSequence::new(seed);
        runtime::par_map_indexed(locations, move |i, location| {
            let mut rng = seeds.rng(i as u64);
            let Some(delay) = array.measure_at(location, &mut rng) else {
                unreachable!("survey only visits locations the array contains");
            };
            (location, delay)
        })
    }

    /// [`survey`](Self::survey) memoized through a [`ResultCache`].
    ///
    /// The key fingerprints the array's full state (every site's trap
    /// population, the gradient, the counter) plus the survey seed, so
    /// any aging between surveys produces a different entry. The
    /// namespace is versioned by the trap-kinetics
    /// [`KERNEL_VERSION`](selfheal_bti::td::KERNEL_VERSION): a kernel
    /// rewrite orphans old survey entries instead of replaying them.
    ///
    /// The fingerprint is a 64-bit FNV-1a hash of the array's `Debug`
    /// form (the full form would make multi-megabyte keys); a hash
    /// collision between two distinct fabric states could therefore
    /// replay the wrong survey, at odds of ~2⁻⁶⁴ — acceptable for a
    /// measurement cache, and `--no-cache` bypasses it entirely.
    ///
    /// Cache hits skip the per-site measurement telemetry (histogram and
    /// events) the computing run emitted.
    #[must_use]
    pub fn survey_cached(
        &self,
        seed: u64,
        cache: &ResultCache,
    ) -> (Vec<(DieLocation, Nanoseconds)>, CacheOutcome) {
        let fingerprint = fnv1a(format!("{self:?}").as_bytes());
        let key = format!(
            "fabric={fingerprint:016x};sites={};seed={seed}",
            self.cuts.len()
        );
        let (record, outcome) = cache.get_or_compute(
            "fpga-survey",
            selfheal_bti::td::KERNEL_VERSION,
            &key,
            || SurveyRecord(self.survey(seed)),
        );
        (record.0, outcome)
    }

    /// Number of survey sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Whether the array is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// The survey locations in row-major order.
    pub fn locations(&self) -> impl Iterator<Item = DieLocation> + '_ {
        self.cuts.iter().map(|(l, _)| *l)
    }

    /// Measured CUT delay at a site (through the shared counter, with its
    /// jitter), averaging 8 reads like [`crate::Chip::measure`].
    pub fn measure_at<R: Rng + ?Sized>(
        &self,
        location: DieLocation,
        rng: &mut R,
    ) -> Option<Nanoseconds> {
        let (_, ro) = self.cuts.iter().find(|(l, _)| *l == location)?;
        let mean = self.counter.read_averaged(ro.frequency(self.vdd), 8, rng);
        let delay = self.counter.delay_of_count(mean);
        // Survey delays across the die land in one histogram, so a single
        // snapshot shows the spatial POI spread §4.2 measures.
        telemetry::histogram!("fpga.survey.poi_delay_ns", delay.get());
        telemetry::event!(
            "fpga.survey.measure",
            row = u32::from(location.row),
            column = u32::from(location.column),
            delay_ns = delay.get(),
        );
        Some(delay)
    }

    /// Ages every site together (they share the fabric's schedule).
    ///
    /// One rate cache spans the whole array: the phase's rate
    /// multipliers are evaluated once and fanned out to every site.
    pub fn advance(&mut self, mode: RoMode, env: Environment, dt: Seconds) {
        let mut rates = PhaseRateCache::new();
        for (_, ro) in &mut self.cuts {
            ro.advance_cached(mode, env, dt, &mut rates);
        }
    }

    /// Spread of fresh delays across the survey — what §4.2's location
    /// survey quantifies before an experiment picks its site.
    #[must_use]
    pub fn fresh_delay_spread(&self) -> Nanoseconds {
        let delays = || self.cuts.iter().map(|(_, ro)| ro.fresh_cut_delay().get());
        let max = float::max_of(delays()).unwrap_or(0.0);
        let min = float::min_of(delays()).unwrap_or(0.0);
        Nanoseconds::new(max - min)
    }

    /// The slowest site right now — the die's critical survey point.
    ///
    /// Equal delays are broken deterministically toward the earlier site
    /// in row-major order, so repeated surveys of an unchanged array
    /// always name the same critical point.
    #[must_use]
    pub fn slowest_site(&self) -> (DieLocation, Nanoseconds) {
        let Some((location, ro)) = self.cuts.iter().max_by(|a, b| {
            a.1.cut_delay(self.vdd)
                .get()
                .total_cmp(&b.1.cut_delay(self.vdd).get())
                .then_with(|| (b.0.row, b.0.column).cmp(&(a.0.row, a.0.column)))
        }) else {
            unreachable!("survey grid is non-empty by construction (asserted in sample)");
        };
        (*location, ro.cut_delay(self.vdd))
    }
}

/// Newtype giving a survey result a cache-file representation:
/// `[[column, row, delay_ns], …]` in row-major order. The JSON layer
/// writes shortest-round-trip floats, so a hit is bit-identical to the
/// miss that stored it.
struct SurveyRecord(Vec<(DieLocation, Nanoseconds)>);

impl CacheRecord for SurveyRecord {
    fn to_cache_json(&self) -> Json {
        Json::Array(
            self.0
                .iter()
                .map(|(location, delay)| {
                    Json::Array(vec![
                        Json::Number(f64::from(location.column)),
                        Json::Number(f64::from(location.row)),
                        Json::Number(delay.get()),
                    ])
                })
                .collect(),
        )
    }

    fn from_cache_json(json: &Json) -> Option<Self> {
        let sites = json
            .as_array()?
            .iter()
            .map(|entry| {
                let [column, row, delay] = entry.as_array()? else {
                    return None;
                };
                let column = u8::try_from(column.as_f64()? as u64).ok()?;
                let row = u8::try_from(row.as_f64()? as u64).ok()?;
                Some((
                    DieLocation { column, row },
                    Nanoseconds::new(delay.as_f64()?),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SurveyRecord(sites))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_units::{Celsius, Hours, Volts};

    /// True (noise-free) CUT delay at a site.
    fn true_delay_at(array: &CutArray, location: DieLocation) -> Option<Nanoseconds> {
        array
            .cuts
            .iter()
            .find(|(l, _)| *l == location)
            .map(|(_, ro)| ro.cut_delay(array.vdd))
    }

    fn array() -> CutArray {
        let mut rng = StdRng::seed_from_u64(12);
        CutArray::sample(
            &Family::commercial_40nm(),
            Millivolts::new(0.0),
            4,
            3,
            &mut rng,
        )
    }

    #[test]
    fn cached_survey_round_trips_bit_for_bit() {
        let root =
            std::env::temp_dir().join(format!("selfheal-fpga-surveycache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = ResultCache::at(root);
        let a = array();
        let (missed, o1) = a.survey_cached(7, &cache);
        assert_eq!(o1, CacheOutcome::Miss);
        let (hit, o2) = a.survey_cached(7, &cache);
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(missed.len(), hit.len());
        for ((l1, d1), (l2, d2)) in missed.iter().zip(&hit) {
            assert_eq!(l1, l2);
            assert_eq!(
                d1.get().to_bits(),
                d2.get().to_bits(),
                "rehydration is bit-exact"
            );
        }
        let (_, o3) = a.survey_cached(8, &cache);
        assert_eq!(o3, CacheOutcome::Miss, "seed is part of the key");
        // Aging the fabric changes the fingerprint, so stale surveys of
        // the fresh state cannot replay.
        let mut aged = a.clone();
        aged.advance(
            RoMode::Static,
            Environment::new(Volts::new(1.2), Celsius::new(110.0)),
            Hours::new(24.0).into(),
        );
        let (_, o4) = aged.survey_cached(7, &cache);
        assert_eq!(o4, CacheOutcome::Miss, "fabric state is part of the key");
    }

    #[test]
    fn grid_dimensions_and_locations() {
        let a = array();
        assert_eq!(a.len(), 12);
        assert!(!a.is_empty());
        let locations: Vec<DieLocation> = a.locations().collect();
        assert_eq!(locations[0], DieLocation { column: 0, row: 0 });
        assert_eq!(locations[11], DieLocation { column: 3, row: 2 });
        assert_eq!(locations[11].to_string(), "(3, 2)");
    }

    #[test]
    fn gradient_makes_far_corner_slower_on_average() {
        // Systematic gradient: the (3, 2) corner carries +7.5 mV of Vth
        // over (0, 0), so averaged over local mismatch it is slower.
        let total: (f64, f64) = (0..20)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = CutArray::sample(
                    &Family::commercial_40nm(),
                    Millivolts::new(0.0),
                    4,
                    3,
                    &mut rng,
                );
                (
                    true_delay_at(&a, DieLocation { column: 0, row: 0 })
                        .unwrap()
                        .get(),
                    true_delay_at(&a, DieLocation { column: 3, row: 2 })
                        .unwrap()
                        .get(),
                )
            })
            .fold((0.0, 0.0), |acc, (o, f)| (acc.0 + o, acc.1 + f));
        assert!(total.1 > total.0, "far corner slower: {total:?}");
    }

    #[test]
    fn survey_spread_is_resolvable() {
        let a = array();
        let spread = a.fresh_delay_spread();
        assert!(spread.get() > 0.1, "{spread}");
        assert!(spread.get() < 5.0, "but not absurd: {spread}");
    }

    #[test]
    fn measure_matches_truth_within_counter_noise() {
        let a = array();
        let mut rng = StdRng::seed_from_u64(77);
        for location in a.locations() {
            let truth = true_delay_at(&a, location).unwrap();
            let measured = a.measure_at(location, &mut rng).unwrap();
            assert!(
                (measured.get() - truth.get()).abs() / truth.get() < 1.5e-3,
                "{location}: {measured} vs {truth}"
            );
        }
    }

    #[test]
    fn unknown_location_is_none() {
        let a = array();
        let off_die = DieLocation { column: 9, row: 9 };
        assert!(true_delay_at(&a, off_die).is_none());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(a.measure_at(off_die, &mut rng).is_none());
    }

    #[test]
    fn whole_array_ages_together() {
        let mut a = array();
        let before: Vec<f64> = a
            .locations()
            .map(|l| true_delay_at(&a, l).unwrap().get())
            .collect();
        a.advance(
            RoMode::Static,
            Environment::new(Volts::new(1.2), Celsius::new(110.0)),
            Hours::new(24.0).into(),
        );
        for (location, b) in a.locations().zip(before) {
            assert!(
                true_delay_at(&a, location).unwrap().get() > b,
                "{location} aged"
            );
        }
    }

    #[test]
    fn slowest_site_tracks_aging() {
        let mut a = array();
        let (_, d0) = a.slowest_site();
        a.advance(
            RoMode::Static,
            Environment::new(Volts::new(1.2), Celsius::new(110.0)),
            Hours::new(24.0).into(),
        );
        let (_, d1) = a.slowest_site();
        assert!(d1 > d0);
    }

    #[test]
    fn seeded_sampling_is_a_pure_function_of_inputs() {
        let family = Family::commercial_40nm();
        let a = CutArray::sample_seeded(&family, Millivolts::new(0.0), 4, 3, 9);
        let b = CutArray::sample_seeded(&family, Millivolts::new(0.0), 4, 3, 9);
        assert_eq!(a, b);
        let c = CutArray::sample_seeded(&family, Millivolts::new(0.0), 4, 3, 10);
        assert_ne!(a, c);
        assert_eq!(a.len(), 12);
        let locations: Vec<DieLocation> = a.locations().collect();
        assert_eq!(locations[0], DieLocation { column: 0, row: 0 });
        assert_eq!(locations[11], DieLocation { column: 3, row: 2 });
    }

    #[test]
    fn parallel_survey_is_deterministic_and_accurate() {
        let a = array();
        let first = a.survey(55);
        let second = a.survey(55);
        assert_eq!(first, second);
        assert_eq!(first.len(), a.len());
        for (location, measured) in &first {
            let truth = true_delay_at(&a, *location).unwrap();
            assert!(
                (measured.get() - truth.get()).abs() / truth.get() < 1.5e-3,
                "{location}: {measured} vs {truth}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_grid() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = CutArray::sample(
            &Family::commercial_40nm(),
            Millivolts::new(0.0),
            0,
            2,
            &mut rng,
        );
    }
}
