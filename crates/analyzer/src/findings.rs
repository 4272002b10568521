//! Finding types, lint identities, and the `--json` report, rendered
//! through the workspace's one JSON codec (`selfheal_telemetry::Json`).

use std::fmt;
use std::path::PathBuf;

use selfheal_telemetry::Json;

/// The domain lints the analyzer implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// `pub fn` signatures passing physical quantities as bare `f64`.
    BarePhysicalF64,
    /// Float orderings that misbehave or panic on NaN.
    NanUnsafeOrdering,
    /// `.unwrap()` / `.expect()` in non-test library code.
    UnwrapInLib,
    /// Physical literals outside plausible silicon operating ranges.
    SuspiciousPhysicalLiteral,
    /// Pure unit-returning accessors missing `#[must_use]`.
    MissingMustUse,
    /// `std::thread::spawn` outside the execution-runtime crates.
    RawThreadSpawn,
    /// Iterating `HashMap`/`HashSet` (or `BTreeSet::retain`) where the
    /// visit order can leak into results.
    NondeterministicIteration,
    /// RNG construction not derived from a `SeedSequence` stream.
    UnseededRng,
    /// A cycle in the cross-function `Mutex`/`RwLock` acquisition graph.
    LockOrder,
    /// A deterministic root whose transitive callees reach a tainted
    /// sink (clock, env, IO, unseeded RNG, hash-order iteration).
    TaintedRoot,
    /// A library `pub fn` that no non-test code names.
    TestOnlyPub,
}

/// All lints, in reporting order.
pub const ALL_LINTS: [Lint; 11] = [
    Lint::BarePhysicalF64,
    Lint::NanUnsafeOrdering,
    Lint::UnwrapInLib,
    Lint::SuspiciousPhysicalLiteral,
    Lint::MissingMustUse,
    Lint::RawThreadSpawn,
    Lint::NondeterministicIteration,
    Lint::UnseededRng,
    Lint::LockOrder,
    Lint::TaintedRoot,
    Lint::TestOnlyPub,
];

/// How serious a finding is. Every finding gates the build regardless
/// of severity; the split is informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style/robustness debt.
    Warning,
    /// Latent panic or wrong-result hazard.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

impl Lint {
    /// Stable kebab-case id used on the CLI, in reports and in allows.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Lint::BarePhysicalF64 => "bare-physical-f64",
            Lint::NanUnsafeOrdering => "nan-unsafe-ordering",
            Lint::UnwrapInLib => "unwrap-in-lib",
            Lint::SuspiciousPhysicalLiteral => "suspicious-physical-literal",
            Lint::MissingMustUse => "missing-must-use",
            Lint::RawThreadSpawn => "raw-thread-spawn",
            Lint::NondeterministicIteration => "nondeterministic-iteration",
            Lint::UnseededRng => "unseeded-rng",
            Lint::LockOrder => "lock-order",
            Lint::TaintedRoot => "tainted-root",
            Lint::TestOnlyPub => "test-only-pub",
        }
    }

    /// Default severity for findings of this lint.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Lint::NanUnsafeOrdering
            | Lint::UnwrapInLib
            | Lint::RawThreadSpawn
            | Lint::NondeterministicIteration
            | Lint::UnseededRng
            | Lint::LockOrder
            | Lint::TaintedRoot => Severity::Error,
            Lint::BarePhysicalF64
            | Lint::SuspiciousPhysicalLiteral
            | Lint::MissingMustUse
            | Lint::TestOnlyPub => Severity::Warning,
        }
    }

    /// One-line description shown in `--help` style output.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Lint::BarePhysicalF64 => {
                "public APIs must pass physical quantities as selfheal-units newtypes, not bare f64"
            }
            Lint::NanUnsafeOrdering => {
                "float orderings must use total_cmp or NaN-aware helpers, never partial_cmp().unwrap() or f64::max folds"
            }
            Lint::UnwrapInLib => {
                ".unwrap()/.expect() are forbidden in non-test library code of the model crates"
            }
            Lint::SuspiciousPhysicalLiteral => {
                "voltage literals must lie in [-0.5, 1.5] V and temperatures in [-55, 150] C"
            }
            Lint::MissingMustUse => {
                "pure unit-returning accessors must carry #[must_use]"
            }
            Lint::RawThreadSpawn => {
                "thread parallelism must go through selfheal-runtime's deterministic pool, not std::thread::spawn"
            }
            Lint::NondeterministicIteration => {
                "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet or sort before use"
            }
            Lint::UnseededRng => {
                "randomness must come from a SeedSequence-derived stream, never thread_rng/from_entropy/OsRng"
            }
            Lint::LockOrder => {
                "Mutex/RwLock acquisition order must be acyclic across the call graph (deadlock hazard)"
            }
            Lint::TaintedRoot => {
                "deterministic roots (kernel, par_map closures, cache-feeding fns) must not transitively reach clock/env/IO/unseeded-RNG sinks"
            }
            Lint::TestOnlyPub => {
                "a library pub fn must be named by non-test code (sources, bins, examples, fleetbench), not only by tests"
            }
        }
    }

    /// Parses a kebab-case id back to a lint.
    #[must_use]
    // analyzer: allow(test-only-pub) -- the lint fixtures read expected findings by id
    pub fn from_id(id: &str) -> Option<Lint> {
        ALL_LINTS.into_iter().find(|l| l.id() == id)
    }
}

/// One lint hit at a source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human explanation of what is wrong and what to use instead.
    pub message: String,
    /// A short source-derived snippet identifying the construct.
    pub snippet: String,
    /// For graph findings (`tainted-root`, `lock-order`): the offending
    /// call path, one `name (file:line)` entry per hop, root first.
    /// Empty for per-file token lints.
    pub call_path: Vec<String>,
}

impl Finding {
    /// A finding with no call path (the per-file token-lint case).
    #[must_use]
    pub fn new(lint: Lint, file: PathBuf, line: u32, message: String, snippet: String) -> Finding {
        Finding {
            lint,
            file,
            line,
            message,
            snippet,
            call_path: Vec::new(),
        }
    }

    /// Severity inherited from the lint.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.lint.severity()
    }

    /// `file:line: severity [lint-id] message` single-line rendering,
    /// with the call path (when present) appended hop by hop.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{}:{}: {} [{}] {} ({})",
            self.file.display(),
            self.line,
            self.severity(),
            self.lint.id(),
            self.message,
            self.snippet,
        );
        for hop in &self.call_path {
            out.push_str("\n    -> ");
            out.push_str(hop);
        }
        out
    }
}

/// The `check --json` report: `{"findings": [..], "total": n}`.
///
/// Each finding carries `lint`, `severity`, `file`, `line`, `message`,
/// `snippet` and `call_path`: `[]` for the per-file token lints, one
/// `name (file:line)` hop per entry, root first, for graph findings.
#[must_use]
pub fn report_json(findings: &[Finding]) -> Json {
    let text = |s: &str| Json::String(s.to_string());
    let entries = findings
        .iter()
        .map(|f| {
            Json::object(vec![
                ("lint".into(), text(f.lint.id())),
                ("severity".into(), Json::String(f.severity().to_string())),
                ("file".into(), Json::String(f.file.display().to_string())),
                ("line".into(), Json::Number(f64::from(f.line))),
                ("message".into(), text(&f.message)),
                ("snippet".into(), text(&f.snippet)),
                (
                    "call_path".into(),
                    Json::Array(f.call_path.iter().map(|hop| text(hop)).collect()),
                ),
            ])
        })
        .collect();
    Json::object(vec![
        ("findings".into(), Json::Array(entries)),
        ("total".into(), Json::Number(findings.len() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_telemetry::json::parse;

    #[test]
    fn ids_round_trip() {
        for lint in ALL_LINTS {
            assert_eq!(Lint::from_id(lint.id()), Some(lint));
        }
        assert_eq!(Lint::from_id("nonsense"), None);
    }

    #[test]
    fn json_report_round_trips_through_the_codec() {
        let f = Finding::new(
            Lint::UnwrapInLib,
            PathBuf::from("crates/core/src/lib.rs"),
            7,
            "say \"no\" to unwrap".into(),
            ".unwrap()".into(),
        );
        let doc = parse(&report_json(&[f]).render_pretty()).expect("report parses");
        assert_eq!(doc.get("total").and_then(Json::as_f64), Some(1.0));
        let entry = &doc
            .get("findings")
            .and_then(Json::as_array)
            .expect("findings")[0];
        assert_eq!(
            entry.get("lint").and_then(Json::as_str),
            Some("unwrap-in-lib")
        );
        assert_eq!(entry.get("severity").and_then(Json::as_str), Some("error"));
        assert_eq!(entry.get("line").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            entry.get("message").and_then(Json::as_str),
            Some("say \"no\" to unwrap")
        );
        assert_eq!(
            entry.get("call_path").and_then(Json::as_array),
            Some(&[][..])
        );
    }

    #[test]
    fn call_paths_render_in_json_and_text() {
        let mut f = Finding::new(
            Lint::TaintedRoot,
            PathBuf::from("crates/core/src/experiment.rs"),
            12,
            "root reaches a clock sink".into(),
            "fn run_chip".into(),
        );
        f.call_path = vec![
            "run_chip (crates/core/src/experiment.rs:12)".into(),
            "now_ns (crates/telemetry/src/event.rs:170)".into(),
        ];
        let doc = report_json(&[f.clone()]);
        let entry = &doc
            .get("findings")
            .and_then(Json::as_array)
            .expect("findings")[0];
        let hops: Vec<&str> = entry
            .get("call_path")
            .and_then(Json::as_array)
            .expect("call_path")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(hops, f.call_path);
        let text = f.render_text();
        assert!(text.contains("-> run_chip"));
        assert!(text.contains("-> now_ns"));
    }

    #[test]
    fn empty_report_renders() {
        let doc = report_json(&[]);
        assert_eq!(doc.get("findings").and_then(Json::as_array), Some(&[][..]));
        assert_eq!(doc.get("total").and_then(Json::as_f64), Some(0.0));
    }
}
