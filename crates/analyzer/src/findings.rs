//! Finding types, lint identities, and report rendering.
//!
//! The analyzer depends on no other crate, so the `--json` output is
//! rendered by hand; the escaping helper covers everything a source
//! snippet can contain.

use std::fmt;
use std::path::PathBuf;

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
}

/// All lints, in reporting order.
pub const ALL_LINTS: [Lint; 10] = [
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
];

/// How serious a finding is. Every non-baselined finding gates the
/// build regardless of severity; the split is informational.
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
    /// Stable kebab-case id used on the CLI, in baselines and in allows.
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
            | Lint::MissingMustUse => Severity::Warning,
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
        }
    }

    /// Parses a kebab-case id back to a lint.
    #[must_use]
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

/// Escapes a string for inclusion in a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full machine-readable report.
///
/// Shape:
/// ```json
/// {
///   "findings": [{"lint": "...", "severity": "...", "file": "...",
///                 "line": 1, "message": "...", "snippet": "...",
///                 "call_path": ["root (f.rs:1)", "sink (g.rs:9)"]}],
///   "total": 3,
///   "baselined": 2,
///   "new": 1
/// }
/// ```
///
/// `call_path` is `[]` for per-file token lints and lists each hop from
/// a deterministic root down to the tainted sink for graph findings.
#[must_use]
pub fn render_json(findings: &[Finding], baselined: usize) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let call_path = f
            .call_path
            .iter()
            .map(|hop| format!("\"{}\"", json_escape(hop)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\", \"call_path\": [{call_path}]}}",
            f.lint.id(),
            f.severity(),
            json_escape(&f.file.display().to_string()),
            f.line,
            json_escape(&f.message),
            json_escape(&f.snippet),
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"total\": {},\n  \"baselined\": {},\n  \"new\": {}\n}}\n",
        findings.len(),
        baselined,
        findings.len().saturating_sub(baselined),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for lint in ALL_LINTS {
            assert_eq!(Lint::from_id(lint.id()), Some(lint));
        }
        assert_eq!(Lint::from_id("nonsense"), None);
    }

    #[test]
    fn json_escaping_covers_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_report_is_well_formed_enough_to_eyeball() {
        let f = Finding::new(
            Lint::UnwrapInLib,
            PathBuf::from("crates/core/src/lib.rs"),
            7,
            "say \"no\" to unwrap".into(),
            ".unwrap()".into(),
        );
        let json = render_json(&[f], 0);
        assert!(json.contains("\"lint\": \"unwrap-in-lib\""));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("\\\"no\\\""));
        assert!(json.contains("\"call_path\": []"));
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\"new\": 1"));
        // Braces and brackets balance.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
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
        let json = render_json(&[f.clone()], 0);
        assert!(json.contains(
            "\"call_path\": [\"run_chip (crates/core/src/experiment.rs:12)\", \"now_ns (crates/telemetry/src/event.rs:170)\"]"
        ));
        let text = f.render_text();
        assert!(text.contains("-> run_chip"));
        assert!(text.contains("-> now_ns"));
    }

    #[test]
    fn empty_report_renders() {
        let json = render_json(&[], 0);
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"total\": 0"));
    }
}
