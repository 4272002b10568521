//! Streaming time-series telemetry: the periodic sampler and the
//! Prometheus text-exposition status file it rewrites.
//!
//! Everything else in this crate produces *end-of-run* artifacts; this
//! module is the live half. A background sampler thread snapshots the
//! metrics registry at a configurable cadence and atomically rewrites a
//! status file (`--status <path>` on bench binaries and `fleetd`;
//! `selfheal-top` tails it). The registry is the only input: anything a
//! dashboard shows is a registry metric.
//!
//! # Determinism
//!
//! The sampler is strictly *read-only* with respect to the metrics
//! registry and the span ledgers: snapshots flow into the status file,
//! never back into metrics. Simulation results and manifest metric
//! snapshots are therefore bit-identical with sampling on or off —
//! pinned by `tests/runtime_determinism.rs`. Wall-clock access goes
//! through the crate's single trusted chokepoint
//! ([`crate::trace_epoch_ns`]); the only other nondeterminism is the
//! sampling cadence itself, which only decides when the status file is
//! rewritten.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::event::trace_epoch_ns;
use crate::metrics::{self, Metric};

/// The environment variable holding the sampling cadence (`250ms`, `2s`).
/// It only sets the cadence; a sampler runs only when a status path is
/// given.
pub const SAMPLE_ENV_VAR: &str = "SELFHEAL_TELEMETRY_SAMPLE";

/// Sampling cadence when `SELFHEAL_TELEMETRY_SAMPLE` is unset or invalid.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(250);

/// Parses a human cadence: `250ms`, `2s`, `1500us`. `None` for anything
/// else (including `off`, zero and negatives).
#[must_use]
pub fn parse_interval(spec: &str) -> Option<Duration> {
    let spec = spec.trim();
    let (digits, unit): (&str, fn(u64) -> Duration) = if let Some(n) = spec.strip_suffix("ms") {
        (n, Duration::from_millis)
    } else if let Some(n) = spec.strip_suffix("us") {
        (n, Duration::from_micros)
    } else if let Some(n) = spec.strip_suffix('s') {
        (n, Duration::from_secs)
    } else {
        return None;
    };
    let count: u64 = digits.trim().parse().ok()?;
    (count > 0).then(|| unit(count))
}

/// The sampling cadence from `SELFHEAL_TELEMETRY_SAMPLE`, or
/// [`DEFAULT_INTERVAL`] when it is unset or unparseable.
#[must_use]
pub fn interval_from_env() -> Duration {
    sample_env()
        .as_deref()
        .and_then(parse_interval)
        .unwrap_or(DEFAULT_INTERVAL)
}

/// Reads `SELFHEAL_TELEMETRY_SAMPLE` — the sampler's one environment
/// chokepoint. The cadence only modulates *when* read-only samples are
/// taken, never what the simulation computes, so it cannot perturb
/// deterministic results.
fn sample_env() -> Option<String> {
    // analyzer: trust(env): sampling cadence only affects observation timing, not simulation state
    std::env::var(SAMPLE_ENV_VAR).ok()
}

/// Shared state between the sampler handle and its thread.
struct SamplerShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Handle to the background sampler thread. Sampling runs from
/// [`Sampler::start`] until [`Sampler::stop`] (or drop), which takes one
/// final sample before joining so even sub-cadence runs leave a
/// complete last tick.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler").finish_non_exhaustive()
    }
}

impl Sampler {
    /// Spawns the sampler thread, rewriting the `status` file every
    /// `interval`. Returns `None` when the thread cannot be spawned (one
    /// warning on stderr — telemetry must never kill the run).
    #[must_use]
    pub fn start(status: PathBuf, interval: Duration) -> Option<Sampler> {
        let shared = Arc::new(SamplerShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("selfheal-sampler".to_string())
            .spawn(move || {
                crate::event::register_thread_name("selfheal-sampler");
                loop {
                    sample_tick(&status);
                    let guard = thread_shared
                        .stop
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    let (guard, _) = thread_shared
                        .wake
                        .wait_timeout(guard, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    if *guard {
                        drop(guard);
                        // Final tick: the status file reflects end-of-run
                        // state even when the run is shorter than one period.
                        sample_tick(&status);
                        break;
                    }
                }
            });
        match thread {
            Ok(thread) => Some(Sampler {
                shared,
                thread: Some(thread),
            }),
            Err(err) => {
                eprintln!("[telemetry] cannot spawn sampler thread: {err}; sampling disabled");
                None
            }
        }
    }

    /// Stops the sampler: takes a final sample and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        *self
            .shared
            .stop
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.shared.wake.notify_all();
        let _ = thread.join();
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sanitizes a dotted metric name into a Prometheus metric name:
/// `runtime.pool.queue_depth` → `selfheal_runtime_pool_queue_depth`.
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("selfheal_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Formats a sample value the way Prometheus expects (`+Inf`, `-Inf`,
/// `NaN`, plain decimal otherwise).
fn format_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

/// Renders the full Prometheus text exposition for one sample tick:
/// every registry metric (histograms as cumulative `_bucket`/`_sum`/
/// `_count` families), the sample timestamp (`selfheal_sample_ts_ns`,
/// the clock `selfheal-top` derives rates against) and the top self-time
/// spans as labelled gauges.
#[must_use]
pub fn render_exposition(ts_ns: u64, snapshot: &metrics::MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut emit = |name: &str, kind: &str, lines: &[String]| {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
    };
    emit(
        "selfheal_sample_ts_ns",
        "gauge",
        &[format!(
            "selfheal_sample_ts_ns {}",
            format_value(ts_ns as f64)
        )],
    );
    for (name, metric) in &snapshot.metrics {
        let prom = prometheus_name(name);
        match metric {
            Metric::Counter(v) => {
                emit(&prom, "counter", &[format!("{prom} {}", format_value(*v))]);
            }
            Metric::Gauge(v) => {
                emit(&prom, "gauge", &[format!("{prom} {}", format_value(*v))]);
            }
            Metric::Histogram(h) => {
                let mut lines = Vec::new();
                for (le, cumulative) in h.cumulative_buckets() {
                    lines.push(format!(
                        "{prom}_bucket{{le=\"{}\"}} {cumulative}",
                        format_value(le),
                    ));
                }
                lines.push(format!("{prom}_bucket{{le=\"+Inf\"}} {}", h.count()));
                lines.push(format!("{prom}_sum {}", format_value(h.approx_sum())));
                lines.push(format!("{prom}_count {}", h.count()));
                emit(&prom, "histogram", &lines);
            }
        }
    }
    let self_time = crate::span::self_time_snapshot();
    if !self_time.is_empty() {
        out.push_str("# TYPE selfheal_span_self_seconds gauge\n");
        for entry in self_time.iter().take(5) {
            out.push_str(&format!(
                "selfheal_span_self_seconds{{stack=\"{}\"}} {}\n",
                escape_label(&entry.stack),
                format_value(entry.self_ns as f64 / 1e9),
            ));
        }
    }
    out
}

/// One sampling tick: snapshots the registry (strictly read-only),
/// renders the exposition and atomically replaces the status file
/// (sibling tmp + rename), so a concurrent `selfheal-top` never reads a
/// torn write.
fn sample_tick(path: &Path) {
    let text = render_exposition(trace_epoch_ns(), &metrics::snapshot());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    // Same-directory rename is atomic; errors lose one status update,
    // never the run.
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// One parsed exposition sample: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric (or family member) name, e.g. `selfheal_foo_bucket`.
    pub name: String,
    /// Label key/value pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A parsed Prometheus text exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// `# TYPE` declarations: family name → type string.
    pub types: BTreeMap<String, String>,
    /// Every sample line, in order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// The value of the first label-free sample with this exact name.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// Every sample whose name matches exactly.
    #[must_use]
    pub fn samples_named<'a>(&'a self, name: &str) -> Vec<&'a Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_metric_name(&key) {
            return Err(format!("line {line_no}: bad label name {key:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        let mut chars = rest.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (at, c) in chars {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(at);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: expected ',' between labels"));
        }
    }
    Ok(labels)
}

/// Parses (and thereby validates) a Prometheus text exposition — the
/// tiny in-tree parser backing `selfheal-top` and the CI smoke check.
///
/// Accepts the subset this crate emits: `# TYPE`/`# HELP`/comment lines
/// and `name{labels} value` samples. Rejects malformed metric names,
/// label syntax and unparseable values.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exposition = Exposition::default();
    for (at, line) in text.lines().enumerate() {
        let line_no = at + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            if words.next() == Some("TYPE") {
                let name = words
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without a name"))?;
                let kind = words
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without a type"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: bad metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {line_no}: unknown type {kind:?}"));
                }
                exposition.types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, labels, value_part) = if let Some(open) = line.find('{') {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
            if close < open {
                return Err(format!("line {line_no}: mismatched braces"));
            }
            (
                &line[..open],
                parse_labels(&line[open + 1..close], line_no)?,
                line[close + 1..].trim(),
            )
        } else {
            let mut parts = line.splitn(2, char::is_whitespace);
            let name = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: empty sample"))?;
            (name, Vec::new(), parts.next().unwrap_or("").trim())
        };
        let name = name_part.trim();
        if !valid_metric_name(name) {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        // An optional trailing timestamp is permitted by the format; we
        // take the first token as the value.
        let value_token = value_part
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("line {line_no}: sample without a value"))?;
        let value: f64 = value_token
            .parse()
            .map_err(|_| format!("line {line_no}: bad value {value_token:?}"))?;
        exposition.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    if exposition.samples.is_empty() {
        return Err("exposition contains no samples".to_string());
    }
    Ok(exposition)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_parsing() {
        assert_eq!(parse_interval("250ms"), Some(Duration::from_millis(250)));
        assert_eq!(parse_interval(" 2s "), Some(Duration::from_secs(2)));
        assert_eq!(parse_interval("1500us"), Some(Duration::from_micros(1500)));
        assert_eq!(parse_interval("0ms"), None);
        assert_eq!(parse_interval("off"), None);
        assert_eq!(parse_interval("250"), None);
        assert_eq!(parse_interval("-1s"), None);
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let mut h = crate::metrics::Histogram::new();
        for v in [0.5, 1.0, 2.5, -1.0] {
            h.observe(v);
        }
        let mut snapshot = crate::metrics::MetricsSnapshot::default();
        snapshot
            .metrics
            .insert("test.ts.counter".to_string(), Metric::Counter(3.0));
        snapshot
            .metrics
            .insert("test.ts.hist".to_string(), Metric::Histogram(h.clone()));
        let text = render_exposition(123, &snapshot);
        let parsed = parse_exposition(&text).expect("valid exposition");
        assert_eq!(parsed.value("selfheal_sample_ts_ns"), Some(123.0));
        assert_eq!(parsed.value("selfheal_test_ts_counter"), Some(3.0));
        assert_eq!(
            parsed
                .types
                .get("selfheal_test_ts_hist")
                .map(String::as_str),
            Some("histogram")
        );
        assert_eq!(parsed.value("selfheal_test_ts_hist_count"), Some(4.0));
        let buckets = parsed.samples_named("selfheal_test_ts_hist_bucket");
        let inf = buckets
            .iter()
            .find(|s| s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf.value, 4.0);
        // Cumulative counts ascend in le order (as rendered).
        let counts: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn exposition_rejects_malformed_input() {
        assert!(parse_exposition("").is_err(), "no samples");
        assert!(parse_exposition("9bad_name 1.0").is_err(), "bad name");
        assert!(parse_exposition("x{le=unquoted} 1").is_err(), "bad label");
        assert!(parse_exposition("x 1.0.0").is_err(), "bad value");
        assert!(parse_exposition("x{le=\"a\"").is_err(), "unterminated");
        assert!(parse_exposition("# TYPE x wavelet\nx 1").is_err(), "type");
    }

    #[test]
    fn label_escapes_round_trip() {
        let text = "m{stack=\"a;\\\"q\\\";b\\\\c\\nd\"} 2\n";
        let parsed = parse_exposition(text).expect("valid");
        assert_eq!(
            parsed.samples[0].labels,
            vec![("stack".to_string(), "a;\"q\";b\\c\nd".to_string())]
        );
        // And the escaper produces what the parser consumes.
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(
            prometheus_name("runtime.pool.queue_depth"),
            "selfheal_runtime_pool_queue_depth"
        );
        assert!(valid_metric_name(&prometheus_name("x-y.z/w 1")));
    }

    #[test]
    fn sampler_lifecycle_ticks_and_stops() {
        let unique = crate::event::current_thread_hash();
        let status = std::env::temp_dir().join(format!("selfheal-ts-{unique}.prom"));
        crate::metrics::set_enabled(true);
        crate::metrics::counter_add("test.ts.lifecycle", 5.0);
        let sampler =
            Sampler::start(status.clone(), Duration::from_millis(10)).expect("sampler starts");
        std::thread::sleep(Duration::from_millis(40));
        sampler.stop();
        let status_text = std::fs::read_to_string(&status).expect("status written");
        let parsed = parse_exposition(&status_text).expect("valid exposition");
        assert!(parsed.value("selfheal_sample_ts_ns").is_some());
        assert!(parsed.value("selfheal_test_ts_lifecycle").is_some());
        std::fs::remove_file(&status).ok();
    }
}
