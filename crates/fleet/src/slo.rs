//! Declarative latency objectives evaluated from the live histograms.
//!
//! An objective like `plan:p99<500us` says "the 99th percentile of
//! `plan` request latency stays under 500 µs". The daemon evaluates its
//! objectives after every epoch against the same mergeable log-bucketed
//! histograms the latency path already feeds (`fleet.request.<kind>.us`)
//! — no second measurement pipeline — and publishes the verdicts as
//! `slo.*` gauges, which the Prometheus status file renders as
//! `selfheal_slo_*` rows for `selfheal-top` and CI to read.
//!
//! Alongside the pass/fail bit each objective reports an *error-budget
//! burn rate*: the fraction of requests over target divided by the
//! budget the quantile allows (`1 - q`). Burn 1.0 means the budget is
//! being consumed exactly as fast as it accrues; 2.0 means a p99
//! objective is seeing 2 % of requests over target — the standard
//! early-warning signal, visible before the quantile itself crosses.
//!
//! Objectives are *observability* configuration: they never touch the
//! simulation and deliberately stay out of
//! [`FleetConfig::cache_key`](crate::FleetConfig::cache_key), so adding
//! an SLO cannot invalidate checkpoints.

use selfheal_telemetry::metrics::MetricsSnapshot;
use selfheal_telemetry::{gauge, Histogram, Metric};

/// One per-request-kind latency objective, e.g. `plan:p99<500us`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    /// Request kind the objective covers (`plan`, `predict`, `report`,
    /// `stats`).
    pub kind: String,
    /// The quantile in `(0, 1)`, e.g. `0.99`.
    pub quantile: f64,
    /// The quantile's spelling for metric names, e.g. `p99`.
    pub label: String,
    /// Latency target in microseconds at that quantile.
    pub target_us: f64,
}

/// Request kinds with latency histograms an objective may target.
pub const SLO_KINDS: [&str; 4] = ["plan", "predict", "report", "stats"];

impl SloObjective {
    /// Parses the `kind:pNN<targetUNIT` spelling: `plan:p99<500us`,
    /// `report:p999<2ms`, `stats:p50<1s`. The digits after `p` are the
    /// quantile's decimals (`p99` → 0.99, `p999` → 0.999).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn parse(text: &str) -> Result<SloObjective, String> {
        let (kind, rest) = text
            .split_once(':')
            .ok_or_else(|| format!("SLO {text:?} is missing the kind: prefix"))?;
        if !SLO_KINDS.contains(&kind) {
            return Err(format!("SLO kind {kind:?} is not one of {SLO_KINDS:?}"));
        }
        let (quantile_text, target_text) = rest
            .split_once('<')
            .ok_or_else(|| format!("SLO {text:?} is missing the < target"))?;
        let digits = quantile_text
            .strip_prefix('p')
            .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| {
                format!("SLO quantile {quantile_text:?} must be pNN (p50, p99, p999)")
            })?;
        let quantile = digits
            .parse::<f64>()
            .map_err(|e| format!("SLO quantile {quantile_text:?}: {e}"))?
            / 10f64.powi(i32::try_from(digits.len()).unwrap_or(i32::MAX));
        if !(quantile > 0.0 && quantile < 1.0) {
            return Err(format!(
                "SLO quantile {quantile_text:?} must land strictly inside (0, 1)"
            ));
        }
        let (value_text, scale) = if let Some(v) = target_text.strip_suffix("us") {
            (v, 1.0)
        } else if let Some(v) = target_text.strip_suffix("ms") {
            (v, 1_000.0)
        } else if let Some(v) = target_text.strip_suffix('s') {
            (v, 1_000_000.0)
        } else {
            return Err(format!(
                "SLO target {target_text:?} needs a us/ms/s unit suffix"
            ));
        };
        let value = value_text
            .parse::<f64>()
            .map_err(|e| format!("SLO target {target_text:?}: {e}"))?;
        if !(value > 0.0 && value.is_finite()) {
            return Err(format!("SLO target {target_text:?} must be positive"));
        }
        Ok(SloObjective {
            kind: kind.to_string(),
            quantile,
            label: quantile_text.to_string(),
            target_us: value * scale,
        })
    }

    /// The canonical spelling (`parse` round-trips it for integer-µs
    /// targets).
    #[must_use]
    pub fn render(&self) -> String {
        format!("{}:{}<{}us", self.kind, self.label, self.target_us)
    }

    /// The histogram this objective reads.
    #[must_use]
    pub fn histogram_name(&self) -> String {
        format!("fleet.request.{}.us", self.kind)
    }

    /// Evaluates the objective against a latency histogram (values in
    /// microseconds). `None` histogram or zero observations mean "no
    /// traffic yet": the objective holds vacuously with zero burn.
    #[must_use]
    pub fn evaluate(&self, histogram: Option<&Histogram>) -> SloStatus {
        let (count, observed_us, over_target) = match histogram {
            None => (0, None, 0),
            Some(h) => (
                h.count(),
                h.quantile(self.quantile),
                count_over(h, self.target_us),
            ),
        };
        #[allow(clippy::cast_precision_loss)]
        let over_fraction = if count == 0 {
            0.0
        } else {
            over_target as f64 / count as f64
        };
        SloStatus {
            objective: self.clone(),
            count,
            observed_us,
            over_target,
            burn: over_fraction / (1.0 - self.quantile),
            ok: observed_us.is_none_or(|q| q <= self.target_us),
        }
    }
}

/// Observations at or above the first bucket bound past `target_us` —
/// i.e. samples that *may* exceed the target, to log-bucket resolution
/// (≈ 4.4 % relative width). Burn rates inherit that resolution.
fn count_over(histogram: &Histogram, target_us: f64) -> u64 {
    let total = histogram.count();
    let mut under = 0u64;
    for (bound, cumulative) in histogram.cumulative_buckets() {
        if bound <= target_us {
            under = under.max(cumulative);
        }
    }
    total.saturating_sub(under)
}

/// One objective's verdict at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The objective evaluated.
    pub objective: SloObjective,
    /// Observations in the histogram so far.
    pub count: u64,
    /// The observed quantile in microseconds (`None` before traffic).
    pub observed_us: Option<f64>,
    /// Observations over target (to bucket resolution).
    pub over_target: u64,
    /// Error-budget burn rate (1.0 = consuming budget exactly as it
    /// accrues; above 1.0 the objective will eventually fail).
    pub burn: f64,
    /// Whether the observed quantile currently meets the target.
    pub ok: bool,
}

impl SloStatus {
    /// Publishes the verdict as `slo.<kind>.<label>.*` gauges, which the
    /// exposition renders as `selfheal_slo_<kind>_<label>_*` rows.
    pub fn publish(&self) {
        let prefix = format!("slo.{}.{}", self.objective.kind, self.objective.label);
        gauge!(&format!("{prefix}.target_us"), self.objective.target_us);
        gauge!(&format!("{prefix}.us"), self.observed_us.unwrap_or(0.0));
        gauge!(&format!("{prefix}.ok"), if self.ok { 1.0 } else { 0.0 });
        gauge!(&format!("{prefix}.burn"), self.burn);
    }
}

/// Evaluates every objective against a metrics snapshot and publishes
/// the verdicts, returning them for callers that render directly.
#[allow(clippy::must_use_candidate)] // called for its side effect; the result is optional
pub fn evaluate_and_publish(
    objectives: &[SloObjective],
    snapshot: &MetricsSnapshot,
) -> Vec<SloStatus> {
    objectives
        .iter()
        .map(|objective| {
            let histogram = match snapshot.get(&objective.histogram_name()) {
                Some(Metric::Histogram(h)) => Some(h),
                _ => None,
            };
            let status = objective.evaluate(histogram);
            status.publish();
            status
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objectives_parse_the_documented_spellings() {
        let slo = SloObjective::parse("plan:p99<500us").expect("parses");
        assert_eq!(slo.kind, "plan");
        assert!((slo.quantile - 0.99).abs() < 1e-12);
        assert_eq!(slo.label, "p99");
        assert!((slo.target_us - 500.0).abs() < 1e-9);
        assert_eq!(slo.render(), "plan:p99<500us");
        assert_eq!(slo.histogram_name(), "fleet.request.plan.us");

        let slo = SloObjective::parse("report:p999<2ms").expect("parses");
        assert!((slo.quantile - 0.999).abs() < 1e-12);
        assert!((slo.target_us - 2_000.0).abs() < 1e-9);

        let slo = SloObjective::parse("stats:p50<1s").expect("parses");
        assert!((slo.quantile - 0.5).abs() < 1e-12);
        assert!((slo.target_us - 1_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_objectives_are_rejected_with_reasons() {
        for bad in [
            "p99<500us",            // no kind
            "frobnicate:p99<500us", // unknown kind
            "plan:99<500us",        // missing the p
            "plan:p<500us",         // no digits
            "plan:p99",             // no target
            "plan:p99<500",         // no unit
            "plan:p99<-3us",        // negative target
            "plan:p99<0us",         // zero target
        ] {
            assert!(SloObjective::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn evaluation_matches_a_hand_built_histogram() {
        // 98 fast requests at 100 µs, 2 slow ones at 10 000 µs: the p99
        // lands in the slow cluster, so `plan:p99<500us` fails with a
        // burn of (2/100)/(1-0.99) = 2.0, while `plan:p50<500us` holds.
        let mut histogram = Histogram::new();
        for _ in 0..98 {
            histogram.observe(100.0);
        }
        histogram.observe(10_000.0);
        histogram.observe(10_000.0);

        let tight = SloObjective::parse("plan:p99<500us").expect("parses");
        let status = tight.evaluate(Some(&histogram));
        assert_eq!(status.count, 100);
        assert!(!status.ok, "p99 sits in the 10 ms cluster");
        assert!(status.observed_us.expect("traffic") > 500.0);
        assert_eq!(status.over_target, 2, "exactly the two slow requests");
        assert!(
            (status.burn - 2.0).abs() < 1e-9,
            "burning budget at twice accrual, got {}",
            status.burn
        );

        let loose = SloObjective::parse("plan:p50<500us").expect("parses");
        let status = loose.evaluate(Some(&histogram));
        assert!(status.ok, "the median is the 100 µs cluster");
        assert!(status.observed_us.expect("traffic") <= 500.0);
        // Same 2 slow requests, but a p50 budget is 50× larger.
        assert!((status.burn - 0.04).abs() < 1e-9);
    }

    #[test]
    fn no_traffic_holds_vacuously() {
        let slo = SloObjective::parse("predict:p99<250us").expect("parses");
        for histogram in [None, Some(&Histogram::new())] {
            let status = slo.evaluate(histogram);
            assert!(status.ok);
            assert_eq!(status.count, 0);
            assert_eq!(status.observed_us, None);
            assert_eq!(status.burn, 0.0);
        }
    }

    #[test]
    fn publishing_lands_slo_gauges_in_the_registry() {
        use selfheal_telemetry::metrics;
        metrics::set_enabled(true);
        let mut histogram = Histogram::new();
        histogram.observe(50.0);
        let slo = SloObjective::parse("stats:p90<100us").expect("parses");
        slo.evaluate(Some(&histogram)).publish();
        let snap = metrics::snapshot();
        assert_eq!(
            snap.get("slo.stats.p90.target_us"),
            Some(&Metric::Gauge(100.0))
        );
        assert_eq!(snap.get("slo.stats.p90.ok"), Some(&Metric::Gauge(1.0)));
        assert!(matches!(
            snap.get("slo.stats.p90.burn"),
            Some(&Metric::Gauge(b)) if b == 0.0
        ));
        assert!(snap.get("slo.stats.p90.us").is_some());
    }
}
