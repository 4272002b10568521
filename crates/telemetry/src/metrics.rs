//! The metrics registry: counters, gauges and mergeable log-bucketed
//! histograms.
//!
//! Metrics are the "virtual odometers" of the simulation stack — cheap
//! running aggregates (trap occupancy, RO frequency samples, per-core
//! `ΔVth`, scheduler activations) that a run manifest snapshots at the end.
//! Recording is globally gated by [`set_enabled`]: with metrics off every
//! call is a single relaxed atomic load, so instrumentation can sit on hot
//! paths without taxing the tier-1 test suite.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::Json;

/// Whether metric recording is active (off by default).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The registry. A single mutex-protected map is deliberate: the
/// simulation stack is effectively single-threaded per run, and the
/// uncontended lock costs nanoseconds against micro-to-milliseconds of
/// physics per instrumented call.
static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns metric recording on or off.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether metric recording is active.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotone accumulator of whole counts. Float-valued so every
    /// metric shares one number type; while totals stay below 2^53 each
    /// sum is exact, so it does not depend on the order pool jobs add.
    Counter(f64),
    /// Last-value-wins.
    Gauge(f64),
    /// A log-bucketed histogram.
    Histogram(Histogram),
}

impl Metric {
    /// JSON representation used by manifests and sinks.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Metric::Counter(v) | Metric::Gauge(v) => Json::Number(*v),
            Metric::Histogram(h) => h.to_json(),
        }
    }
}

/// Sub-buckets per power of two: bucket boundaries sit at
/// `2^(idx / SUBBUCKETS)`, so each bucket spans a relative width of
/// `2^(1/16) − 1 ≈ 4.4 %` — the quantile error bound.
const SUBBUCKETS: f64 = 16.0;

/// A mergeable log-bucketed (HDR-style) histogram.
///
/// Observations land in geometrically-spaced buckets: positive values in
/// bucket `⌊log2(v) · 16⌋`, negatives mirrored by magnitude, with
/// dedicated exact-zero and NaN buckets. The state is pure integer
/// counts (plus total-order min/max), so [`Histogram::merge`] is **exact,
/// associative and order-independent**: merging shard A into shard B
/// produces bit-identical state to observing the interleaved stream —
/// the property that lets fleet shards combine latency distributions
/// without loss.
///
/// Quantiles ([`Histogram::quantile`]) are derived from the buckets
/// (geometric-midpoint representative, clamped to the exact observed
/// min/max), so every estimate is within one bucket width (≈ 4.4 %
/// relative) of the exact sample quantile. The mean is bucket-derived
/// too — mergeability is bought by giving up the exact running sum,
/// whose floating-point accumulation order would have made merges
/// order-dependent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Bucket index → count, for positive observations.
    positive: BTreeMap<i32, u64>,
    /// Bucket index (of the magnitude) → count, for negative observations.
    negative: BTreeMap<i32, u64>,
    /// Exact zeros (either sign).
    zero: u64,
    /// NaN observations — counted, ordered after every number (matching
    /// `f64::total_cmp`), and poisoning the mean visibly.
    nan: u64,
    /// Total observations, including zeros and NaNs.
    count: u64,
    /// Exact smallest non-NaN observation (`None` until one arrives).
    min: Option<f64>,
    /// Exact largest non-NaN observation.
    max: Option<f64>,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index covering a positive magnitude:
    /// `[2^(idx/16), 2^((idx+1)/16))`.
    fn bucket_index(magnitude: f64) -> i32 {
        // Finite positive magnitudes give log2 in ±1075; the clamp only
        // guards the infinite-input edge so the cast stays defined.
        let raw = (magnitude.log2() * SUBBUCKETS).floor();
        raw.clamp(-65536.0, 65536.0) as i32
    }

    /// The inclusive lower boundary of a (positive-side) bucket.
    #[must_use]
    pub fn bucket_lower(idx: i32) -> f64 {
        (f64::from(idx) / SUBBUCKETS).exp2()
    }

    /// The exclusive upper boundary of a (positive-side) bucket.
    #[must_use]
    pub fn bucket_upper(idx: i32) -> f64 {
        (f64::from(idx + 1) / SUBBUCKETS).exp2()
    }

    /// The representative value quantiles report for a bucket: its
    /// geometric midpoint, within half a bucket width of every member.
    fn representative(idx: i32) -> f64 {
        ((f64::from(idx) + 0.5) / SUBBUCKETS).exp2()
    }

    /// Records one observation. Zero lands in the exact-zero bucket; NaN
    /// lands in a dedicated NaN bucket (ordered last, as `total_cmp`
    /// orders it) and poisons [`Histogram::mean`] — visible, not silently
    /// dropped.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        if value.is_nan() {
            self.nan += 1;
            return;
        }
        match self.min {
            Some(current) if value.total_cmp(&current).is_lt() => self.min = Some(value),
            None => self.min = Some(value),
            Some(_) => {}
        }
        match self.max {
            Some(current) if value.total_cmp(&current).is_gt() => self.max = Some(value),
            None => self.max = Some(value),
            Some(_) => {}
        }
        if value == 0.0 {
            self.zero += 1;
        } else if value > 0.0 {
            *self.positive.entry(Self::bucket_index(value)).or_insert(0) += 1;
        } else {
            *self.negative.entry(Self::bucket_index(-value)).or_insert(0) += 1;
        }
    }

    /// Folds `other` into `self`, bucket-wise. Pure integer additions
    /// plus total-order min/max, so the operation is exact, associative
    /// and commutative: any merge tree over any partition of an
    /// observation stream yields bit-identical state.
    pub fn merge(&mut self, other: &Histogram) {
        for (idx, n) in &other.positive {
            *self.positive.entry(*idx).or_insert(0) += n;
        }
        for (idx, n) in &other.negative {
            *self.negative.entry(*idx).or_insert(0) += n;
        }
        self.zero += other.zero;
        self.nan += other.nan;
        self.count += other.count;
        if let Some(theirs) = other.min {
            match self.min {
                Some(mine) if theirs.total_cmp(&mine).is_lt() => self.min = Some(theirs),
                None => self.min = Some(theirs),
                Some(_) => {}
            }
        }
        if let Some(theirs) = other.max {
            match self.max {
                Some(mine) if theirs.total_cmp(&mine).is_gt() => self.max = Some(theirs),
                None => self.max = Some(theirs),
                Some(_) => {}
            }
        }
    }

    /// Total number of observations (including zeros and NaNs).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest non-NaN observation.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Exact largest non-NaN observation.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Number of occupied (non-empty) log buckets, both signs.
    #[must_use]
    pub fn occupied_buckets(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    /// Bucket-derived sum: each bucket contributes its representative
    /// times its count. NaN observations poison the result to NaN.
    #[must_use]
    pub fn approx_sum(&self) -> f64 {
        if self.nan > 0 {
            return f64::NAN;
        }
        let mut sum = 0.0;
        for (idx, n) in &self.positive {
            sum += Self::representative(*idx) * *n as f64;
        }
        for (idx, n) in &self.negative {
            sum -= Self::representative(*idx) * *n as f64;
        }
        sum
    }

    /// Bucket-derived mean (`None` when empty; NaN when any observation
    /// was NaN). Within one bucket width (≈ 4.4 % relative) of the exact
    /// mean, because every representative is.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.approx_sum() / self.count as f64)
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), derived from the log
    /// buckets: the covering bucket's geometric midpoint, clamped to the
    /// exact observed `[min, max]`, so the estimate sits within one
    /// bucket width of the exact sample quantile. A rank landing in the
    /// NaN bucket (ordered last) reports NaN. `None` when the histogram
    /// is empty or `q` is NaN.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are tracked exactly; report them rather than a
        // bucket midpoint (min/max are None only for all-NaN streams).
        if q == 0.0 {
            if let Some(min) = self.min {
                return Some(min);
            }
        }
        // Exactly the top quantile: the exact maximum, not a bucket bound.
        #[allow(clippy::float_cmp)]
        if q == 1.0 && self.nan == 0 {
            return self.max;
        }
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        let hit = |n: u64, cumulative: &mut u64| -> bool {
            let next = *cumulative + n;
            let covered = n > 0 && target <= next as f64;
            *cumulative = next;
            covered
        };
        // Ascending value order: most-negative first (largest magnitude),
        // then zero, positives, and NaN last (total_cmp order).
        for (idx, n) in self.negative.iter().rev() {
            if hit(*n, &mut cumulative) {
                return Some(self.clamp_to_range(-Self::representative(*idx)));
            }
        }
        if hit(self.zero, &mut cumulative) {
            return Some(0.0);
        }
        for (idx, n) in &self.positive {
            if hit(*n, &mut cumulative) {
                return Some(self.clamp_to_range(Self::representative(*idx)));
            }
        }
        if self.nan > 0 {
            return Some(f64::NAN);
        }
        // All counts consumed without covering the target (q == 1.0 with
        // rounding); report the exact maximum.
        self.max
    }

    /// Clamps a bucket representative to the exact observed range, so
    /// extreme quantiles report real observations.
    fn clamp_to_range(&self, value: f64) -> f64 {
        match (self.min, self.max) {
            (Some(min), Some(max)) => value.clamp(min, max),
            _ => value,
        }
    }

    /// Cumulative `(upper_bound, count)` pairs in ascending value order —
    /// the Prometheus `_bucket{le=...}` series (without the trailing
    /// `+Inf`, which is [`Histogram::count`]).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.occupied_buckets() + 1);
        let mut cumulative = 0u64;
        for (idx, n) in self.negative.iter().rev() {
            cumulative += n;
            // v in (−upper, −lower]: the algebraic upper edge is −lower.
            out.push((-Self::bucket_lower(*idx), cumulative));
        }
        if self.zero > 0 {
            cumulative += self.zero;
            out.push((0.0, cumulative));
        }
        for (idx, n) in &self.positive {
            cumulative += n;
            out.push((Self::bucket_upper(*idx), cumulative));
        }
        out
    }

    /// JSON representation: sparse buckets plus bucket-derived
    /// p50/p90/p99/p999 summaries (the quantiles flow into manifest
    /// metric snapshots automatically).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let sparse = |map: &BTreeMap<i32, u64>| {
            Json::Array(
                map.iter()
                    .map(|(idx, n)| {
                        Json::Array(vec![Json::Number(f64::from(*idx)), Json::Number(*n as f64)])
                    })
                    .collect(),
            )
        };
        let mut fields = vec![
            ("count".to_string(), Json::Number(self.count as f64)),
            ("zero".to_string(), Json::Number(self.zero as f64)),
            ("nan".to_string(), Json::Number(self.nan as f64)),
            ("buckets".to_string(), sparse(&self.positive)),
            ("neg_buckets".to_string(), sparse(&self.negative)),
        ];
        if let Some(min) = self.min {
            fields.push(("min".to_string(), Json::Number(min)));
        }
        if let Some(max) = self.max {
            fields.push(("max".to_string(), Json::Number(max)));
        }
        if let Some(mean) = self.mean() {
            fields.push(("mean".to_string(), Json::Number(mean)));
        }
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
            if let Some(value) = self.quantile(q) {
                fields.push((label.to_string(), Json::Number(value)));
            }
        }
        Json::object(fields)
    }
}

/// Adds `delta` to the named counter (creating it at zero). Negative
/// deltas are clamped to zero: counters are monotone by contract.
pub fn counter_add(name: &str, delta: f64) {
    if !enabled() {
        return;
    }
    let mut map = registry();
    match map.entry(name.to_string()).or_insert(Metric::Counter(0.0)) {
        Metric::Counter(total) => *total += delta.max(0.0),
        _ => debug_assert!(false, "metric {name} is not a counter"),
    }
}

/// Sets the named gauge.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut map = registry();
    match map.entry(name.to_string()).or_insert(Metric::Gauge(0.0)) {
        Metric::Gauge(current) => *current = value,
        _ => debug_assert!(false, "metric {name} is not a gauge"),
    }
}

/// Raises the named gauge to `value` if it is below it (creating it at
/// `value`) — a high-water mark. Useful for quantities observed many
/// times per run where only the peak matters (queue depths, fan-out
/// widths).
pub fn gauge_max(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut map = registry();
    match map.entry(name.to_string()).or_insert(Metric::Gauge(value)) {
        Metric::Gauge(current) => *current = current.max(value),
        _ => debug_assert!(false, "metric {name} is not a gauge"),
    }
}

/// Records an observation into the named histogram, registering an empty
/// log-bucketed histogram on first use.
pub fn histogram_observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut map = registry();
    match map
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Histogram::new()))
    {
        Metric::Histogram(h) => h.observe(value),
        _ => debug_assert!(false, "metric {name} is not a histogram"),
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Metric name → value, deterministically ordered.
    pub metrics: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// Number of named metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The named metric, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// JSON object keyed by metric name.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(
            self.metrics
                .iter()
                .map(|(name, metric)| (name.clone(), metric.to_json()))
                .collect(),
        )
    }
}

/// Copies the current registry contents.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        metrics: registry().clone(),
    }
}

/// Clears the registry (manifest capture resets between runs; tests use
/// unique metric names instead, since the registry is process-global).
pub fn reset() {
    registry().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enables metrics for the duration of a test body. Tests use unique
    /// metric names, so parallel tests sharing the global registry and
    /// the enabled flag (sticky-on during the suite) do not interfere.
    fn with_metrics<T>(body: impl FnOnce() -> T) -> T {
        set_enabled(true);
        body()
    }

    #[test]
    fn counters_accumulate_and_clamp() {
        with_metrics(|| {
            counter_add("test.m.counter_a", 2.0);
            counter_add("test.m.counter_a", 0.5);
            counter_add("test.m.counter_a", -10.0); // clamped: monotone
            let snap = snapshot();
            assert_eq!(snap.get("test.m.counter_a"), Some(&Metric::Counter(2.5)));
        });
    }

    #[test]
    fn gauges_take_the_last_value() {
        with_metrics(|| {
            gauge_set("test.m.gauge_a", 1.0);
            gauge_set("test.m.gauge_a", -3.5);
            assert_eq!(snapshot().get("test.m.gauge_a"), Some(&Metric::Gauge(-3.5)));
        });
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        with_metrics(|| {
            gauge_max("test.m.gauge_hwm", 2.0);
            gauge_max("test.m.gauge_hwm", 7.5);
            gauge_max("test.m.gauge_hwm", 3.0);
            assert_eq!(
                snapshot().get("test.m.gauge_hwm"),
                Some(&Metric::Gauge(7.5))
            );
        });
    }

    #[test]
    fn buckets_have_relative_width() {
        let mut h = Histogram::new();
        // Values within one sub-bucket (4.4 % relative) share a bucket;
        // values an octave apart never do.
        h.observe(100.0);
        h.observe(101.0);
        h.observe(200.0);
        assert_eq!(h.occupied_buckets(), 2);
        assert_eq!(h.count(), 3);
        // Bucket boundaries bracket their members.
        let idx = 100.0_f64.log2() * 16.0;
        let idx = idx.floor() as i32;
        assert!(Histogram::bucket_lower(idx) <= 100.0);
        assert!(Histogram::bucket_upper(idx) > 101.0);
    }

    #[test]
    fn zero_negative_and_sign_buckets() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-0.0);
        h.observe(-5.0);
        h.observe(5.0);
        assert_eq!(h.zero, 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(-5.0));
        assert_eq!(h.max(), Some(5.0));
        // Symmetric observations cancel in the bucket-derived mean.
        assert!(h.mean().expect("non-empty").abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_within_one_bucket_width() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(f64::from(i));
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((p50 - 500.0).abs() / 500.0 < 0.045, "p50 = {p50}");
        let p99 = h.quantile(0.99).expect("non-empty");
        assert!((p99 - 990.0).abs() / 990.0 < 0.045, "p99 = {p99}");
        // Extremes clamp to the exact observed range.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn quantile_degenerate_cases() {
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.mean(), None);
        let mut h = Histogram::new();
        h.observe(42.0);
        assert_eq!(h.quantile(0.5), Some(42.0), "single value clamps exact");
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let values = [0.5, -3.0, 0.0, 120.0, 120.5, 1e-9, -3.0, 7.7];
        let mut interleaved = Histogram::new();
        for v in values {
            interleaved.observe(v);
        }
        let mut shard_a = Histogram::new();
        let mut shard_b = Histogram::new();
        for (i, v) in values.iter().enumerate() {
            if i % 2 == 0 {
                shard_a.observe(*v);
            } else {
                shard_b.observe(*v);
            }
        }
        let mut ab = shard_a.clone();
        ab.merge(&shard_b);
        let mut ba = shard_b.clone();
        ba.merge(&shard_a);
        assert_eq!(ab, interleaved);
        assert_eq!(ba, interleaved);
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let mut h = Histogram::new();
        h.observe(1.5);
        h.observe(f64::NAN);
        let mut empty = Histogram::new();
        empty.merge(&h);
        assert_eq!(empty, h);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
    }

    #[test]
    fn histogram_json_carries_quantiles() {
        let mut h = Histogram::new();
        h.observe(0.5);
        h.observe(1.5);
        let json = h.to_json();
        for label in ["p50", "p90", "p99", "p999"] {
            assert!(json.get(label).and_then(Json::as_f64).is_some(), "{label}");
        }
        assert_eq!(json.get("count").and_then(Json::as_f64), Some(2.0));
        assert_eq!(json.get("min").and_then(Json::as_f64), Some(0.5));
        assert_eq!(json.get("max").and_then(Json::as_f64), Some(1.5));
        // Empty histograms omit the summaries rather than inventing them.
        let empty = Histogram::new();
        assert!(empty.to_json().get("p50").is_none());
        assert!(empty.to_json().get("min").is_none());
    }

    #[test]
    fn histogram_nan_is_counted_and_poisons_mean() {
        let mut h = Histogram::new();
        h.observe(1.0);
        h.observe(f64::NAN);
        assert_eq!(h.nan, 1);
        assert_eq!(h.count(), 2);
        assert!(h.mean().expect("non-empty").is_nan(), "NaN poisons visibly");
        // NaN sorts last: the top quantile reports it.
        assert!(h.quantile(1.0).expect("non-empty").is_nan());
        assert_eq!(h.quantile(0.25), Some(1.0));
    }

    #[test]
    fn cumulative_buckets_ascend_and_cover_the_count() {
        let mut h = Histogram::new();
        for v in [-2.0, 0.0, 0.0, 3.0, 300.0] {
            h.observe(v);
        }
        let buckets = h.cumulative_buckets();
        let bounds: Vec<f64> = buckets.iter().map(|(le, _)| *le).collect();
        let mut sorted = bounds.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(bounds, sorted, "le bounds ascend");
        let counts: Vec<u64> = buckets.iter().map(|(_, n)| *n).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "cumulative");
        assert_eq!(*counts.last().expect("non-empty"), h.count());
    }

    #[test]
    fn registry_histograms_accumulate() {
        with_metrics(|| {
            histogram_observe("test.m.hist_a", 5.0);
            histogram_observe("test.m.hist_a", 15.0);
            let snap = snapshot();
            let Some(Metric::Histogram(h)) = snap.get("test.m.hist_a") else {
                panic!("histogram registered");
            };
            assert_eq!(h.count(), 2);
        });
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        // Run in a dedicated thread-agnostic way: flip off, record, flip
        // back on. Unique name keeps this observable regardless of other
        // tests' ordering.
        set_enabled(false);
        counter_add("test.m.disabled", 1.0);
        set_enabled(true);
        assert_eq!(snapshot().get("test.m.disabled"), None);
    }

    #[test]
    fn snapshot_renders_to_json() {
        with_metrics(|| {
            counter_add("test.m.json_counter", 3.0);
            let json = snapshot().to_json();
            assert_eq!(
                json.get("test.m.json_counter").and_then(Json::as_f64),
                Some(3.0)
            );
        });
    }
}
