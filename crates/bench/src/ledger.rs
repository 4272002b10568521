//! The perf ledger: noise-aware benchmark history and the regression gate.
//!
//! One run of `perf_ledger` appends one JSONL line to
//! `bench_history/<name>.jsonl` — a [`LedgerEntry`] holding, per headline
//! key, the **median** and **IQR** of N repeated measurements, plus the
//! run's `git describe` and config hash. `perf_gate` then compares a
//! current entry against the recent window of same-config history with an
//! IQR-based tolerance ([`gate`]): medians absorb outlier repeats, the
//! pooled IQR scales the tolerance to the key's observed noise, and a
//! relative floor keeps near-zero-noise histories from tripping on
//! scheduler jitter.
//!
//! The gate is one-sided and assumes **lower is better** (the ledger is
//! meant for time-like keys: ns-per-item, wall milliseconds). Improvements
//! never fail; only `current > baseline + tolerance` does.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use selfheal_telemetry::Json;

/// Robust summary of one key's repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyStats {
    /// Median of the repeats.
    pub median: f64,
    /// Interquartile range (Q3 − Q1) of the repeats.
    pub iqr: f64,
}

/// One appended ledger record: a keyed, noise-aware summary of one
/// benchmark invocation (N repeats collapsed to median/IQR per key).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The benchmark name (`bench_history/<name>.jsonl`).
    pub name: String,
    /// Unix timestamp (seconds) at append.
    pub created_unix_s: u64,
    /// `git describe --always --dirty` at append, when available.
    pub git_describe: Option<String>,
    /// The benchmark's manifest config hash — entries only gate against
    /// history with the *same* hash (a config change resets the baseline).
    pub config_hash: String,
    /// How many repeats the summaries collapse.
    pub n: u64,
    /// Per-key robust summaries.
    pub keys: BTreeMap<String, KeyStats>,
}

/// Linear-interpolation quantile of an ascending-sorted slice
/// (R type-7, the numpy default). Empty input yields `None`.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Collapses repeated measurements to their median and IQR. `None` when
/// `samples` is empty or contains a non-finite value.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<KeyStats> {
    if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = quantile(&sorted, 0.5)?;
    let iqr = quantile(&sorted, 0.75)? - quantile(&sorted, 0.25)?;
    Some(KeyStats { median, iqr })
}

impl LedgerEntry {
    /// Builds an entry from per-key repeated samples (every key must have
    /// the same number of repeats; keys with no finite samples are
    /// dropped).
    #[must_use]
    pub fn from_samples(
        name: &str,
        config_hash: &str,
        git_describe: Option<String>,
        created_unix_s: u64,
        samples: &BTreeMap<String, Vec<f64>>,
    ) -> LedgerEntry {
        let n = samples.values().map(Vec::len).max().unwrap_or(0) as u64;
        LedgerEntry {
            name: name.to_string(),
            created_unix_s,
            git_describe,
            config_hash: config_hash.to_string(),
            n,
            keys: samples
                .iter()
                .filter_map(|(key, values)| Some((key.clone(), summarize(values)?)))
                .collect(),
        }
    }

    /// The JSONL representation (one compact line).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("name".to_string(), Json::String(self.name.clone())),
            (
                "created_unix_s".to_string(),
                Json::Number(self.created_unix_s as f64),
            ),
            (
                "git_describe".to_string(),
                self.git_describe
                    .as_ref()
                    .map_or(Json::Null, |d| Json::String(d.clone())),
            ),
            (
                "config_hash".to_string(),
                Json::String(self.config_hash.clone()),
            ),
            ("n".to_string(), Json::Number(self.n as f64)),
            (
                "keys".to_string(),
                Json::object(
                    self.keys
                        .iter()
                        .map(|(key, stats)| {
                            (
                                key.clone(),
                                Json::object(vec![
                                    ("median".to_string(), Json::Number(stats.median)),
                                    ("iqr".to_string(), Json::Number(stats.iqr)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses one ledger line. `None` on any missing required field.
    #[must_use]
    pub fn from_json(json: &Json) -> Option<LedgerEntry> {
        let keys_json = json.get("keys")?;
        let Json::Object(pairs) = keys_json else {
            return None;
        };
        let mut keys = BTreeMap::new();
        for (key, stats) in pairs {
            keys.insert(
                key.clone(),
                KeyStats {
                    median: stats.get("median").and_then(Json::as_f64)?,
                    iqr: stats.get("iqr").and_then(Json::as_f64)?,
                },
            );
        }
        Some(LedgerEntry {
            name: json.get("name").and_then(Json::as_str)?.to_string(),
            created_unix_s: json.get("created_unix_s").and_then(Json::as_f64)? as u64,
            git_describe: json
                .get("git_describe")
                .and_then(Json::as_str)
                .map(ToString::to_string),
            config_hash: json.get("config_hash").and_then(Json::as_str)?.to_string(),
            n: json.get("n").and_then(Json::as_f64)? as u64,
            keys,
        })
    }
}

/// `<dir>/<name>.jsonl` — where a benchmark's history lives.
#[must_use]
pub fn history_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.jsonl"))
}

/// Appends one entry to the benchmark's history file, creating the
/// directory on first use.
///
/// # Errors
///
/// Propagates directory-creation and file-append errors.
pub fn append(dir: &Path, entry: &LedgerEntry) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history_path(dir, &entry.name))?;
    writeln!(file, "{}", entry.to_json().render())
}

/// Loads a benchmark's history, oldest first. A missing file is an empty
/// history; an unparseable line is an error (a corrupt ledger should be
/// noticed, not silently skipped).
///
/// # Errors
///
/// Propagates file-read errors and reports unparseable lines.
pub fn load(dir: &Path, name: &str) -> io::Result<Vec<LedgerEntry>> {
    let path = history_path(dir, name);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = selfheal_telemetry::json::parse(line).map_err(|err| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {err}", path.display(), lineno + 1),
            )
        })?;
        let entry = LedgerEntry::from_json(&json).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: not a ledger entry", path.display(), lineno + 1),
            )
        })?;
        entries.push(entry);
    }
    Ok(entries)
}

/// Caps a benchmark's history at the `keep` most-recent entries *per
/// config hash*, preserving file order. Bounded history keeps clone
/// sizes sane without losing any config's baseline window (pruning the
/// file globally would let one chatty config evict another's history).
/// The rewrite goes through a sibling temp file + rename so a crash
/// cannot leave a half-written ledger. Returns how many entries were
/// dropped; a missing file prunes zero.
///
/// # Errors
///
/// Propagates read/parse errors from [`load`] and write/rename errors.
pub fn prune(dir: &Path, name: &str, keep: usize) -> io::Result<usize> {
    let entries = load(dir, name)?;
    if entries.is_empty() {
        return Ok(0);
    }
    // Count entries per config hash, then keep only each entry whose
    // position is within the last `keep` of its config.
    let mut remaining: BTreeMap<&str, usize> = BTreeMap::new();
    for entry in &entries {
        *remaining.entry(entry.config_hash.as_str()).or_insert(0) += 1;
    }
    let mut kept = Vec::with_capacity(entries.len());
    for entry in &entries {
        let left = remaining
            .get_mut(entry.config_hash.as_str())
            .expect("counted above");
        if *left <= keep {
            kept.push(entry);
        }
        *left -= 1;
    }
    let dropped = entries.len() - kept.len();
    if dropped == 0 {
        return Ok(0);
    }
    let path = history_path(dir, name);
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        for entry in &kept {
            writeln!(file, "{}", entry.to_json().render())?;
        }
    }
    std::fs::rename(&tmp, &path)?;
    Ok(dropped)
}

/// How many recent same-config entries form the gate's baseline window.
pub const GATE_WINDOW: usize = 5;
/// The gate's tolerance in pooled-IQR multiples.
pub const GATE_IQR_MULT: f64 = 3.0;
/// The gate's relative tolerance floor (fraction of the baseline
/// median) — the backstop when a quiet machine recorded near-zero IQRs.
pub const GATE_REL_FLOOR: f64 = 0.10;

/// One key's gate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyVerdict {
    /// The gated key.
    pub key: String,
    /// The current run's median.
    pub current: f64,
    /// Baseline median over the window (`None` when no same-config
    /// history mentions this key — the key passes by default).
    pub baseline: Option<f64>,
    /// The allowed excursion above the baseline.
    pub tolerance: f64,
    /// True when `current > baseline + tolerance`.
    pub regressed: bool,
}

/// Compares a current entry against the recent window of *same-config*
/// history. One verdict per current key; keys with no usable baseline
/// pass (first run after a config change seeds the new baseline instead
/// of failing it).
#[must_use]
pub fn gate(history: &[LedgerEntry], current: &LedgerEntry) -> Vec<KeyVerdict> {
    let comparable: Vec<&LedgerEntry> = history
        .iter()
        .filter(|entry| entry.name == current.name && entry.config_hash == current.config_hash)
        .collect();
    current
        .keys
        .iter()
        .map(|(key, stats)| {
            let window: Vec<&KeyStats> = comparable
                .iter()
                .rev()
                .filter_map(|entry| entry.keys.get(key))
                .take(GATE_WINDOW)
                .collect();
            if window.is_empty() {
                return KeyVerdict {
                    key: key.clone(),
                    current: stats.median,
                    baseline: None,
                    tolerance: 0.0,
                    regressed: false,
                };
            }
            let mut medians: Vec<f64> = window.iter().map(|s| s.median).collect();
            medians.sort_by(f64::total_cmp);
            let mut iqrs: Vec<f64> = window.iter().map(|s| s.iqr).collect();
            iqrs.sort_by(f64::total_cmp);
            // `window` is non-empty, so both quantiles exist.
            let baseline = quantile(&medians, 0.5).unwrap_or(f64::NAN);
            let pooled_iqr = quantile(&iqrs, 0.5).unwrap_or(0.0);
            let tolerance = (GATE_IQR_MULT * pooled_iqr).max(GATE_REL_FLOOR * baseline.abs());
            KeyVerdict {
                key: key.clone(),
                current: stats.median,
                baseline: Some(baseline),
                tolerance,
                regressed: stats.median > baseline + tolerance,
            }
        })
        .collect()
}

/// Extracts the numeric `values` map from a bench manifest's JSON
/// rendering, with its name and config hash — what the repeat-runner
/// collects per repetition.
#[must_use]
pub fn manifest_samples(json: &Json) -> Option<(String, String, BTreeMap<String, f64>)> {
    let name = json.get("name").and_then(Json::as_str)?.to_string();
    let config_hash = json.get("config_hash").and_then(Json::as_str)?.to_string();
    let values = json.get("values")?;
    let Json::Object(pairs) = values else {
        return None;
    };
    let numbers = pairs
        .iter()
        .filter_map(|(key, value)| Some((key.clone(), value.as_f64()?)))
        .collect();
    Some((name, config_hash, numbers))
}

/// The repeat-runner: invokes `command` `repeats` times, parsing each
/// run's stdout as one manifest JSON document (bench binaries print
/// exactly that under `--json`). Returns one parsed manifest per repeat.
///
/// # Errors
///
/// Fails on spawn errors, non-zero exit status, or unparseable stdout —
/// a broken benchmark must not append garbage to the ledger.
pub fn run_repeats(command: &[String], repeats: usize) -> io::Result<Vec<Json>> {
    let (program, args) = command.split_first().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "empty benchmark command")
    })?;
    let mut manifests = Vec::with_capacity(repeats);
    for repeat in 0..repeats {
        let output = std::process::Command::new(program).args(args).output()?;
        if !output.status.success() {
            return Err(io::Error::other(format!(
                "repeat {}/{repeats}: {program} exited with {}",
                repeat + 1,
                output.status,
            )));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let json = selfheal_telemetry::json::parse(stdout.trim()).map_err(|err| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "repeat {}/{repeats}: {program} did not print manifest JSON \
                     (pass --json in the command): {err}",
                    repeat + 1,
                ),
            )
        })?;
        manifests.push(json);
    }
    Ok(manifests)
}

/// Collapses a set of parsed manifests (repeats of one benchmark) into
/// `(name, config_hash, per-key samples)`. `None` when the set is empty,
/// a manifest is malformed, or names disagree; a config hash that varies
/// across repeats is also rejected (repeats must measure one config).
#[must_use]
pub fn collect_samples(
    manifests: &[Json],
) -> Option<(String, String, BTreeMap<String, Vec<f64>>)> {
    let mut name: Option<String> = None;
    let mut config_hash: Option<String> = None;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for manifest in manifests {
        let (this_name, this_hash, values) = manifest_samples(manifest)?;
        if *name.get_or_insert_with(|| this_name.clone()) != this_name {
            return None;
        }
        if *config_hash.get_or_insert_with(|| this_hash.clone()) != this_hash {
            return None;
        }
        for (key, value) in values {
            samples.entry(key).or_default().push(value);
        }
    }
    Some((name?, config_hash?, samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(config: &str, medians: &[(&str, f64, f64)]) -> LedgerEntry {
        LedgerEntry {
            name: "bench".to_string(),
            created_unix_s: 0,
            git_describe: None,
            config_hash: config.to_string(),
            n: 5,
            keys: medians
                .iter()
                .map(|(key, median, iqr)| {
                    (
                        (*key).to_string(),
                        KeyStats {
                            median: *median,
                            iqr: *iqr,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile(&sorted, 1.0), Some(4.0));
        assert_eq!(quantile(&sorted, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn summarize_is_robust_to_one_outlier() {
        let stats = summarize(&[100.0, 101.0, 99.0, 100.5, 1000.0]).expect("test value");
        assert!((stats.median - 100.5).abs() < 1e-9);
        assert!(stats.iqr < 10.0, "IQR ignores the outlier: {}", stats.iqr);
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn entry_round_trips_through_jsonl() {
        let original = entry("cafe", &[("ns_per_item", 42.5, 1.25)]);
        let line = original.to_json().render();
        let parsed =
            LedgerEntry::from_json(&selfheal_telemetry::json::parse(&line).expect("test value"))
                .expect("test value");
        assert_eq!(parsed, original);
    }

    #[test]
    fn gate_passes_noise_and_fails_doubling() {
        let history: Vec<LedgerEntry> = (0..5)
            .map(|i| entry("c1", &[("ms", 100.0 + i as f64, 3.0)]))
            .collect();
        // IQR-level wiggle passes.
        let ok = gate(&history, &entry("c1", &[("ms", 106.0, 3.0)]));
        assert_eq!(ok.len(), 1);
        assert!(!ok[0].regressed, "{ok:?}");
        // A 2× slowdown fails.
        let bad = gate(&history, &entry("c1", &[("ms", 204.0, 3.0)]));
        assert!(bad[0].regressed, "{bad:?}");
        // An improvement never fails (one-sided gate).
        let fast = gate(&history, &entry("c1", &[("ms", 50.0, 3.0)]));
        assert!(!fast[0].regressed);
    }

    #[test]
    fn gate_ignores_other_configs_and_unknown_keys() {
        let history = vec![entry("old", &[("ms", 10.0, 0.1)])];
        // Same key, different config hash: no baseline, passes.
        let verdicts = gate(&history, &entry("new", &[("ms", 1000.0, 0.1)]));
        assert_eq!(verdicts[0].baseline, None);
        assert!(!verdicts[0].regressed);
        // Key absent from history: passes too.
        let verdicts = gate(&history, &entry("old", &[("other", 5.0, 0.1)]));
        assert!(!verdicts[0].regressed);
    }

    #[test]
    fn rel_floor_guards_zero_iqr_histories() {
        let history: Vec<LedgerEntry> =
            (0..5).map(|_| entry("c1", &[("ms", 100.0, 0.0)])).collect();
        // Zero recorded IQR: 10 % floor still admits small jitter…
        let ok = gate(&history, &entry("c1", &[("ms", 109.0, 0.0)]));
        assert!(!ok[0].regressed);
        // …but not a real regression.
        let bad = gate(&history, &entry("c1", &[("ms", 120.0, 0.0)]));
        assert!(bad[0].regressed);
    }

    #[test]
    fn prune_keeps_the_last_n_per_config_hash() {
        let dir = std::env::temp_dir().join(format!(
            "selfheal-ledger-prune-test-{}",
            selfheal_telemetry::current_thread_hash()
        ));
        std::fs::remove_dir_all(&dir).ok();
        // Interleave two configs: 4 entries of c1, 2 of c2.
        for (i, config) in [(1, "c1"), (2, "c1"), (3, "c2"), (4, "c1"), (5, "c2"), (6, "c1")] {
            append(&dir, &entry(config, &[("ms", f64::from(i), 0.0)])).expect("test value");
        }
        let dropped = prune(&dir, "bench", 2).expect("test value");
        assert_eq!(dropped, 2);
        let left = load(&dir, "bench").expect("test value");
        // Last 2 of c1 (4, 6) and both of c2 (3, 5), file order intact.
        let medians: Vec<(String, f64)> = left
            .iter()
            .map(|e| (e.config_hash.clone(), e.keys["ms"].median))
            .collect();
        assert_eq!(
            medians,
            vec![
                ("c2".to_string(), 3.0),
                ("c1".to_string(), 4.0),
                ("c2".to_string(), 5.0),
                ("c1".to_string(), 6.0),
            ]
        );
        // Already within budget: nothing dropped, file untouched.
        assert_eq!(prune(&dir, "bench", 2).expect("test value"), 0);
        assert_eq!(prune(&dir, "missing", 2).expect("test value"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "selfheal-ledger-test-{}",
            selfheal_telemetry::current_thread_hash()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let first = entry("c1", &[("ms", 1.0, 0.1)]);
        let second = entry("c1", &[("ms", 2.0, 0.2)]);
        append(&dir, &first).expect("test value");
        append(&dir, &second).expect("test value");
        let loaded = load(&dir, "bench").expect("test value");
        assert_eq!(loaded, vec![first, second]);
        assert_eq!(load(&dir, "missing").expect("test value"), Vec::new());
        std::fs::remove_dir_all(&dir).ok();
    }
}
