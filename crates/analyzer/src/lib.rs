//! `selfheal-analyzer` — domain-aware static analysis for the
//! self-healing workspace.
//!
//! The physics crates encode their domain rules in the type system
//! (`selfheal-units`), but nothing stops a new API from taking a bare
//! `f64` volt count, sorting floats through `partial_cmp().unwrap()`,
//! or hard-coding a 12 V supply. This crate is the gate that does: a
//! token-level static-analysis pass with eleven lints — eight per-file
//! token lints, two over the workspace call graph and one over the
//! workspace's names:
//!
//! | id | severity | rule |
//! |----|----------|------|
//! | `bare-physical-f64` | warning | `pub fn` params/returns and `pub` fields naming physical quantities must use units newtypes |
//! | `nan-unsafe-ordering` | error | no `partial_cmp()` chains, no bare `f64::max`/`min` reduction keys |
//! | `unwrap-in-lib` | error | no `.unwrap()`/`.expect()` in model-crate library code |
//! | `suspicious-physical-literal` | warning | `Volts::new`/`Celsius::new` literals must be physically plausible |
//! | `missing-must-use` | warning | pure unit-returning accessors need `#[must_use]` |
//! | `raw-thread-spawn` | error | parallelism goes through the runtime pool, not `std::thread::spawn` |
//! | `nondeterministic-iteration` | error | no `HashMap`/`HashSet` iteration (or `BTreeSet::retain`) in library code |
//! | `unseeded-rng` | error | randomness comes from a `SeedSequence` stream |
//! | `lock-order` | error | lock acquisition order is acyclic across the call graph |
//! | `tainted-root` | error | deterministic roots never reach clock/env/IO/unseeded-RNG sinks |
//! | `test-only-pub` | warning | a library `pub fn` is named by some non-test code |
//!
//! Run it as `cargo analyzer check` (alias in `.cargo/config.toml`) or
//! `cargo run -p selfheal-analyzer -- check [--json] [--root <dir>]`.
//! The gate is zero findings. Individual sites can opt out with a
//! `// analyzer: allow(<lint-id>)` comment on the offending line or the
//! line above, and a sink a root may reach is exempted with
//! `// analyzer: trust(<kind>): <justification>`.

#![forbid(unsafe_code)]

pub mod findings;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod purity;
mod reach;
pub mod sig;
pub mod walk;

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

pub use findings::{Finding, Lint, Severity, ALL_LINTS};
pub use lints::FileContext;
pub use purity::Dataflow;
use sig::ParsedFile;

/// Analyzes one source file under the given context.
#[must_use]
// analyzer: allow(test-only-pub) -- the lint fixtures analyze one source string
pub fn analyze_source(rel_path: &Path, source: &str, ctx: &FileContext) -> Vec<Finding> {
    lints::run_all(rel_path, &ParsedFile::new(source), ctx)
}

/// Analyzes every discoverable file in the workspace at `root` in one
/// walk: each file is parsed once and feeds the per-file token lints,
/// the workspace-wide dataflow pass (`tainted-root`, `lock-order`) and
/// the name pass (`test-only-pub`, which also reads the consumers
/// [`walk::consumers`] lists).
///
/// Returns every finding, the dataflow ones included, sorted by (file,
/// line, lint), together with the completed [`Dataflow`]. Unreadable
/// files are an error — the gate must never silently skip what it
/// claims to cover.
pub fn analyze_workspace(root: &Path) -> io::Result<(Vec<Finding>, Dataflow)> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    let mut names = Vec::new();
    let mut crates = BTreeSet::new();
    for item in walk::discover(root)? {
        let parsed = ParsedFile::new(&std::fs::read_to_string(&item.abs)?);
        findings.extend(lints::run_all(&item.rel, &parsed, &item.ctx));
        crates.insert(item.ctx.crate_name.clone());
        files.push(graph::extract_file(&item.rel, &parsed, &item.ctx));
        names.push(reach::scan(&item.rel, &parsed, &item.ctx));
    }
    for item in walk::consumers(root)? {
        let parsed = ParsedFile::new(&std::fs::read_to_string(&item.abs)?);
        names.push(reach::scan(&item.rel, &parsed, &item.ctx));
    }
    findings.extend(reach::test_only_pub(&names));
    let flow = purity::analyze(graph::build(&files, &crates));
    findings.extend(flow.findings.iter().cloned());
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok((findings, flow))
}

/// Crate version, for `--version` style output.
#[must_use]
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}
