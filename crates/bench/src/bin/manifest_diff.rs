//! Compares two run manifests (`target/manifests/*.json`) and reports
//! every difference that exceeds a tolerance — the regression gate for
//! benchmark trajectories.
//!
//! ```text
//! cargo run -p selfheal-bench --bin manifest_diff -- A.json B.json \
//!     [--tolerance 1e-9] [--ignore <path-prefix>]...
//! ```
//!
//! Numeric leaves (the `values` map, every metric, histogram buckets and
//! quantiles) compare within a combined absolute/relative tolerance:
//! `|a - b| <= tol * max(1, |a|, |b|)`. Strings and booleans compare
//! exactly. Volatile fields are skipped by default: `created_unix_s`,
//! `git_describe`, every phase's `wall_s`/`self_s`, the `self_time`
//! profile and the pool's steal statistics (phase *names and order*
//! still compare — a run that gained or lost a phase is a real change).
//! `--ignore <prefix>` skips additional dotted paths, e.g.
//! `--ignore metrics.runtime.pool` to drop the remaining
//! worker-count-dependent pool gauges when comparing across `--threads`
//! settings.
//!
//! Exit status: `0` when the manifests agree, `1` on any difference,
//! `2` on usage or I/O errors.

use std::collections::BTreeMap;
use std::process::ExitCode;

use selfheal_telemetry::json::{self, Json};

/// Fields that never compare: timestamps and working-tree revisions vary
/// between runs of identical configurations.
const DEFAULT_IGNORES: [&str; 2] = ["created_unix_s", "git_describe"];

#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Number(f64),
    Text(String),
    Flag(bool),
    Null,
}

impl std::fmt::Display for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Leaf::Number(n) => write!(f, "{n}"),
            Leaf::Text(s) => write!(f, "{s:?}"),
            Leaf::Flag(b) => write!(f, "{b}"),
            Leaf::Null => write!(f, "null"),
        }
    }
}

/// Flattens a JSON tree into dotted-path leaves (`metrics.bti.traps.p50`,
/// `phases.0.name`, …) so two manifests diff as flat key/value maps.
fn flatten(value: &Json, path: &str, out: &mut BTreeMap<String, Leaf>) {
    let join = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match value {
        Json::Null => {
            out.insert(path.to_string(), Leaf::Null);
        }
        Json::Bool(b) => {
            out.insert(path.to_string(), Leaf::Flag(*b));
        }
        Json::Number(n) => {
            out.insert(path.to_string(), Leaf::Number(*n));
        }
        Json::String(s) => {
            out.insert(path.to_string(), Leaf::Text(s.clone()));
        }
        Json::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &join(&i.to_string()), out);
            }
        }
        Json::Object(map) => {
            for (key, item) in map {
                flatten(item, &join(key), out);
            }
        }
    }
}

/// Whether a dotted path is excluded from comparison.
fn ignored(path: &str, extra: &[String]) -> bool {
    if DEFAULT_IGNORES.iter().any(|d| path == *d) {
        return true;
    }
    // Phase wall-clock is timing noise; names and order still compare.
    if path.starts_with("phases.") && (path.ends_with(".wall_s") || path.ends_with(".self_s")) {
        return true;
    }
    // The self-time profile is wall-clock through and through.
    if path == "self_time" || path.starts_with("self_time.") {
        return true;
    }
    // Steal counts are scheduling noise: how often a worker steals
    // depends on OS timing, not on what was computed.
    if path.starts_with("metrics.runtime.pool.steal") {
        return true;
    }
    extra
        .iter()
        .any(|prefix| path == prefix || path.starts_with(&format!("{prefix}.")))
}

/// Combined absolute/relative closeness test.
fn close(a: f64, b: f64, tol: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    (a - b).abs() <= tol * 1.0_f64.max(a.abs()).max(b.abs())
}

struct Options {
    path_a: String,
    path_b: String,
    tolerance: f64,
    ignores: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut paths = Vec::new();
    let mut tolerance = 1e-9;
    let mut ignores = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => {
                let raw = args.next().ok_or("--tolerance expects a value")?;
                tolerance = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| format!("bad tolerance {raw:?}"))?;
            }
            "--ignore" => {
                ignores.push(args.next().ok_or("--ignore expects a path prefix")?);
            }
            "--help" | "-h" => {
                return Err("usage: manifest_diff <a.json> <b.json> \
                            [--tolerance <rel>] [--ignore <path-prefix>]..."
                    .to_string())
            }
            other => paths.push(other.to_string()),
        }
    }
    let [path_a, path_b] = <[String; 2]>::try_from(paths)
        .map_err(|got| format!("expected exactly two manifest paths, got {}", got.len()))?;
    Ok(Options {
        path_a,
        path_b,
        tolerance,
        ignores,
    })
}

fn load(path: &str) -> Result<BTreeMap<String, Leaf>, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let parsed = json::parse(&text).map_err(|err| format!("cannot parse {path}: {err}"))?;
    let mut leaves = BTreeMap::new();
    flatten(&parsed, "", &mut leaves);
    Ok(leaves)
}

fn run() -> Result<Vec<String>, String> {
    let options = parse_args()?;
    let a = load(&options.path_a)?;
    let b = load(&options.path_b)?;

    let mut differences = Vec::new();
    for (path, left) in &a {
        if ignored(path, &options.ignores) {
            continue;
        }
        match b.get(path) {
            None => differences.push(format!("- {path}: {left} (only in {})", options.path_a)),
            Some(right) => {
                let agree = match (left, right) {
                    (Leaf::Number(x), Leaf::Number(y)) => close(*x, *y, options.tolerance),
                    _ => left == right,
                };
                if !agree {
                    differences.push(format!("! {path}: {left} vs {right}"));
                }
            }
        }
    }
    for (path, right) in &b {
        if !ignored(path, &options.ignores) && !a.contains_key(path) {
            differences.push(format!("+ {path}: {right} (only in {})", options.path_b));
        }
    }
    Ok(differences)
}

fn main() -> ExitCode {
    match run() {
        Err(message) => {
            eprintln!("manifest_diff: {message}");
            ExitCode::from(2)
        }
        Ok(differences) if differences.is_empty() => {
            println!("manifests agree");
            ExitCode::SUCCESS
        }
        Ok(differences) => {
            println!("{} difference(s):", differences.len());
            for line in &differences {
                println!("  {line}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(text: &str) -> BTreeMap<String, Leaf> {
        let mut out = BTreeMap::new();
        flatten(&json::parse(text).expect("test value"), "", &mut out);
        out
    }

    #[test]
    fn flatten_produces_dotted_paths() {
        let map = leaves(r#"{"values": {"x": 1.5}, "phases": [{"name": "a"}]}"#);
        assert_eq!(map.get("values.x"), Some(&Leaf::Number(1.5)));
        assert_eq!(map.get("phases.0.name"), Some(&Leaf::Text("a".to_string())));
    }

    #[test]
    fn tolerance_is_relative_above_one() {
        assert!(close(100.0, 100.0 + 5e-8, 1e-9));
        assert!(!close(100.0, 100.5, 1e-9));
        assert!(close(0.0, 5e-10, 1e-9), "absolute floor near zero");
    }

    #[test]
    fn volatile_fields_are_ignored() {
        assert!(ignored("created_unix_s", &[]));
        assert!(ignored("git_describe", &[]));
        assert!(ignored("phases.3.wall_s", &[]));
        assert!(ignored("phases.3.self_s", &[]));
        assert!(ignored("self_time.0.self_ns", &[]));
        assert!(ignored("metrics.runtime.pool.steals_total", &[]));
        assert!(ignored("metrics.runtime.pool.steal_ratio.p50", &[]));
        assert!(!ignored("metrics.runtime.pool.jobs", &[]));
        assert!(!ignored("phases.3.name", &[]));
        assert!(!ignored("values.sites", &[]));
        let extra = vec!["metrics.runtime.pool".to_string()];
        assert!(ignored("metrics.runtime.pool.jobs", &extra));
        assert!(!ignored("metrics.runtime.cache.hits", &extra));
    }
}
