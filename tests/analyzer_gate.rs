//! Tier-1 static-analysis gate.
//!
//! Runs the `selfheal-analyzer` self-check as part of the ordinary
//! workspace test suite: the repository's own sources must produce zero
//! findings. This is the same verdict `cargo analyzer check` computes,
//! so CI and local `cargo test` agree with the CLI.

use std::path::Path;

use selfheal_analyzer::graph::RootKind;

#[test]
fn workspace_passes_its_own_static_analysis() {
    // The root package's manifest dir *is* the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (findings, _) =
        selfheal_analyzer::analyze_workspace(root).expect("workspace sources must be readable");
    assert!(
        findings.is_empty(),
        "static-analysis findings — fix them, or allow/trust the site with a justification:\n{}",
        findings
            .iter()
            .map(selfheal_analyzer::Finding::render_text)
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

#[test]
fn deterministic_roots_are_closed_under_the_purity_analysis() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (_, flow) =
        selfheal_analyzer::analyze_workspace(root).expect("workspace sources must be readable");

    // The dataflow pass must actually see the workspace: at least one
    // node per crate, and a non-trivial root set anchored by the
    // trap-kinetics kernel plus par/cache-derived roots.
    let crates: std::collections::BTreeSet<&str> = flow
        .graph
        .nodes
        .iter()
        .map(|n| n.crate_name.as_str())
        .collect();
    assert!(crates.len() >= 10, "only saw crates: {crates:?}");
    assert!(
        !flow.graph.roots.is_empty(),
        "no deterministic roots derived"
    );
    let kinds: std::collections::BTreeSet<RootKind> = flow.graph.roots.values().copied().collect();
    assert!(
        kinds.contains(&RootKind::Kernel),
        "TrapBank::advance_all must be a root: {kinds:?}"
    );
    assert!(
        kinds.contains(&RootKind::ParClosure) && kinds.contains(&RootKind::CacheFeed),
        "par-closure and cache-feed roots must both be derived: {kinds:?}"
    );

    // Closure: every deterministic root's *effective* taint is empty —
    // each sink on a root-reachable path is either fixed or carries a
    // justified `// analyzer: trust(...)` annotation. A non-empty taint
    // here is the same defect `cargo analyzer check` reports as a
    // `tainted-root` finding, pinned as a plain test so `cargo test`
    // alone catches it.
    for (&idx, kind) in &flow.graph.roots {
        let node = &flow.graph.nodes[idx];
        assert_eq!(
            flow.effective[idx],
            0,
            "root `{}` ({}, {}:{}) has effective taint {:?}",
            node.qualified,
            kind.describe(),
            node.file.display(),
            node.line,
            selfheal_analyzer::purity::taint_names(flow.effective[idx]),
        );
    }

    // And the lock graph is acyclic (zero lock-order findings).
    assert!(
        flow.findings.is_empty(),
        "dataflow findings must be empty: {:#?}",
        flow.findings
    );
}
