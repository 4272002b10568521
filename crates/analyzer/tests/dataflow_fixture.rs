//! End-to-end dataflow fixtures: a synthetic on-disk mini workspace
//! with a known tainted chain, checked down to the exact reported call
//! path, plus a property test that taint propagation is monotone under
//! edge insertion.

use std::path::{Path, PathBuf};

use proptest::{collection, proptest};
use selfheal_analyzer::purity::propagate;
use selfheal_analyzer::{analyze_workspace, Lint};

/// Materializes a mini workspace (root manifest + one member crate)
/// under a scratch dir and returns its root.
fn mini_workspace(tag: &str, lib_source: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "selfheal-analyzer-dataflow-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    let src_dir = root.join("crates/mini/src");
    std::fs::create_dir_all(&src_dir).expect("test value");
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/mini\"]\n",
    )
    .expect("test value");
    std::fs::write(
        root.join("crates/mini/Cargo.toml"),
        "[package]\nname = \"mini\"\n",
    )
    .expect("test value");
    std::fs::write(src_dir.join("lib.rs"), lib_source).expect("test value");
    root
}

/// The known tainted chain: a cache-fed root (`cell`) reaching a clock
/// sink two hops down (`cell` → `helper` → `Instant::now`).
///
/// Line numbers in the expectations below index into this literal — the
/// `fn` keywords sit on lines 2, 5, and 8, the sink on line 9.
const TAINTED_CHAIN: &str = "\
use std::time::Instant;
pub fn run(cache: &ResultCache) -> f64 {
    cache.get_or_compute(\"ns\", 1, \"k\", || cell()).0
}
pub fn cell() -> f64 {
    helper()
}
fn helper() -> f64 {
    let _t = Instant::now();
    0.0
}
";

#[test]
fn tainted_chain_reports_the_exact_call_path() {
    let root = mini_workspace("chain", TAINTED_CHAIN);
    let (_, flow) = analyze_workspace(&root).expect("analyzable workspace");
    let tainted: Vec<_> = flow
        .findings
        .iter()
        .filter(|f| f.lint == Lint::TaintedRoot)
        .collect();
    assert_eq!(tainted.len(), 1, "findings: {:#?}", flow.findings);
    let finding = tainted[0];
    assert_eq!(finding.file, Path::new("crates/mini/src/lib.rs"));
    assert_eq!(finding.line, 5);
    assert!(
        finding.message.contains("`cell`")
            && finding.message.contains("cache")
            && finding.message.contains("clock sink"),
        "message: {}",
        finding.message
    );
    assert_eq!(
        finding.call_path,
        vec![
            "cell (crates/mini/src/lib.rs:5)".to_string(),
            "helper (crates/mini/src/lib.rs:8)".to_string(),
            "sink: Instant::now (crates/mini/src/lib.rs:9)".to_string(),
        ]
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn trust_annotation_silences_the_chain() {
    let trusted = TAINTED_CHAIN.replace(
        "fn helper() -> f64 {",
        "// analyzer: trust(clock): fixture — timestamp is discarded\nfn helper() -> f64 {",
    );
    let root = mini_workspace("trusted", &trusted);
    let (_, flow) = analyze_workspace(&root).expect("analyzable workspace");
    assert!(
        flow.findings.iter().all(|f| f.lint != Lint::TaintedRoot),
        "findings: {:#?}",
        flow.findings
    );
    // The root is still recognized — it's exempted, not forgotten.
    assert!(!flow.graph.roots.is_empty());
    std::fs::remove_dir_all(&root).ok();
}

/// Folds a `(from, to)` edge list into the adjacency shape
/// [`propagate`] takes, dropping out-of-range endpoints.
fn adjacency(n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(from, to) in pairs {
        if from < n && to < n {
            adj[from].push(to);
        }
    }
    adj
}

proptest! {
    /// Monotonicity: inserting call edges can only grow effective taint,
    /// never shrink it. This is what makes the analysis sound as an
    /// over-approximation — a resolver that reports extra candidate
    /// callees (method calls do) can produce false positives but never
    /// mask a real taint.
    #[test]
    fn taint_propagation_is_monotone_under_edge_insertion(
        own in collection::vec(0u8..32, 8..9),
        trusted in collection::vec(0u8..32, 8..9),
        edges in collection::vec((0usize..8, 0usize..8), 0..25),
        extra in (0usize..8, 0usize..8),
    ) {
        let n = own.len();
        let base = propagate(&own, &trusted, &adjacency(n, &edges));
        let mut more = edges.clone();
        more.push(extra);
        let grown = propagate(&own, &trusted, &adjacency(n, &more));
        for (node, (before, after)) in base.iter().zip(&grown).enumerate() {
            proptest::prop_assert!(
                before & !after == 0,
                "node {node}: taint shrank from {before:#07b} to {after:#07b} \
                 after inserting edge {extra:?}"
            );
        }
    }
}
