//! Analyzer throughput benchmark: one full-workspace static-analysis
//! pass (token lints + call-graph purity dataflow), timed end to end.
//!
//! Produces the `analyzer` manifest the perf ledger tracks (`wall_ms`,
//! plus graph-shape gauges): a regression in `wall_ms` means lexing,
//! call resolution, or the taint fixpoint got slower — the analyzer
//! runs in CI on every change, so its wall time is a budget, not a
//! curiosity. The node/edge counts contextualize timing shifts that
//! merely track workspace growth.

use std::time::Instant;

use selfheal_analyzer as analyzer;
use selfheal_bench::BenchRun;

fn main() {
    let mut run = BenchRun::start("analyzer");
    run.say("Analyzer pass: full-workspace lints + purity dataflow\n");

    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let Some(root) = analyzer::walk::find_workspace_root(&cwd) else {
        eprintln!("analyzer_pass: no workspace root above {}", cwd.display());
        std::process::exit(2);
    };

    // Warm the page cache so the timed pass measures analysis, not disk.
    analyzer::analyze_workspace(&root).expect("warm-up pass");

    let started = Instant::now();
    let (findings, flow) = {
        let _phase = run.phase("analyze");
        analyzer::analyze_workspace(&root).expect("analysis pass")
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let nodes = flow.graph.nodes.len();
    let edges: usize = flow.graph.edges.iter().map(Vec::len).sum();
    let roots = flow.graph.roots.len();

    run.say(format!(
        "root={}\nnodes={nodes} edges={edges} roots={roots} findings={}\nwall: {wall_ms:8.3} ms",
        root.display(),
        findings.len(),
    ));
    run.value("wall_ms", wall_ms);
    run.value("graph_nodes", nodes as f64);
    run.value("graph_edges", edges as f64);
    run.value("graph_roots", roots as f64);
    // Stable config repr: history must stay comparable as the workspace
    // grows — organic growth shows up against the IQR tolerance, which
    // is exactly the budget this benchmark enforces.
    run.finish("full-workspace");
}
