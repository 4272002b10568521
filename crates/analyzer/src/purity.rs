//! Purity classification and taint propagation over the call graph.
//!
//! Every function gets a bitset of taint kinds its own body touches
//! (recorded by [`crate::graph`]); the *effective* taint is the
//! fixpoint of
//!
//! ```text
//! eff(f) = (own(f) ∪ ⋃_{g ∈ callees(f)} eff(g)) \ trusted(f)
//! ```
//!
//! which is monotone under edge insertion — adding a call edge can only
//! grow effective taint, never shrink it (property-tested in this
//! module). `trusted(f)` comes from `// analyzer: trust(<kinds>):
//! <justification>` annotations and masks taint *at* the annotated
//! function, so a telemetry clock read does not poison every caller.
//!
//! Deterministic roots (the kernel entry point, `par_map`-closure
//! callees, cache-feeding functions) with non-empty effective taint
//! become `tainted-root` findings carrying the offending call path.
//! The same graph also yields the `lock-order` lint: a cross-function
//! lock-acquisition graph whose cycles are deadlock hazards.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use selfheal_telemetry::Json;

use crate::findings::{Finding, Lint};
use crate::graph::CallGraph;

/// Taint kind bits.
pub const RNG: u8 = 1 << 0;
/// Reads of `std::env`.
pub const ENV: u8 = 1 << 1;
/// Wall-clock reads (`Instant::now`, `SystemTime::now`).
pub const CLOCK: u8 = 1 << 2;
/// Hash-order iteration feeding a value.
pub const HASH_ITER: u8 = 1 << 3;
/// Filesystem / process / network IO.
pub const IO: u8 = 1 << 4;

/// All taint kinds with their annotation names, in reporting order.
pub const TAINT_KINDS: [(u8, &str); 5] = [
    (IO, "io"),
    (CLOCK, "clock"),
    (ENV, "env"),
    (RNG, "rng"),
    (HASH_ITER, "hash-iter"),
];

/// Maps a `trust(...)` kind name to its bit.
#[must_use]
pub fn taint_bit(name: &str) -> Option<u8> {
    TAINT_KINDS
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(bit, _)| *bit)
}

/// Names of the kinds present in a bitset, in reporting order.
#[must_use]
pub fn taint_names(bits: u8) -> Vec<&'static str> {
    TAINT_KINDS
        .iter()
        .filter(|(bit, _)| bits & bit != 0)
        .map(|(_, n)| *n)
        .collect()
}

/// Computes effective taint as a fixpoint over the callee relation.
///
/// Pure over plain arrays so the monotonicity property can be tested in
/// isolation: `edges[f]` lists callee indices of `f`.
#[must_use]
pub fn propagate(own: &[u8], trusted: &[u8], edges: &[Vec<usize>]) -> Vec<u8> {
    assert_eq!(own.len(), trusted.len());
    assert_eq!(own.len(), edges.len());
    let mut eff: Vec<u8> = own.iter().zip(trusted).map(|(o, t)| o & !t).collect();
    loop {
        let mut changed = false;
        for f in 0..eff.len() {
            let mut acc = own[f];
            for &g in &edges[f] {
                acc |= eff[g];
            }
            acc &= !trusted[f];
            if acc != eff[f] {
                eff[f] = acc;
                changed = true;
            }
        }
        if !changed {
            return eff;
        }
    }
}

/// The purity lattice label for one function.
#[must_use]
pub fn purity_label(effective: u8, seeded: bool) -> &'static str {
    if effective & IO != 0 {
        "io-tainted"
    } else if effective & CLOCK != 0 {
        "clock-tainted"
    } else if effective & ENV != 0 {
        "env-tainted"
    } else if effective & RNG != 0 {
        "rng-tainted"
    } else if effective & HASH_ITER != 0 {
        "hash-iter-tainted"
    } else if seeded {
        "seeded-rng"
    } else {
        "deterministic"
    }
}

/// The completed dataflow pass: graph + effective taint + findings.
#[derive(Debug)]
pub struct Dataflow {
    /// The underlying call graph.
    pub graph: CallGraph,
    /// Effective (post-trust, transitive) taint per node.
    pub effective: Vec<u8>,
    /// `tainted-root` and `lock-order` findings, sorted like the
    /// per-file lints (file, line, lint).
    pub findings: Vec<Finding>,
}

/// Runs taint propagation and both graph lints over a built graph.
#[must_use]
pub fn analyze(graph: CallGraph) -> Dataflow {
    let own: Vec<u8> = graph.nodes.iter().map(|n| n.own_taint).collect();
    let trusted: Vec<u8> = graph.nodes.iter().map(|n| n.trusted).collect();
    let adj: Vec<Vec<usize>> = graph
        .edges
        .iter()
        .map(|es| es.iter().map(|e| e.to).collect())
        .collect();
    let effective = propagate(&own, &trusted, &adj);

    let mut findings = Vec::new();
    for (&root, &kind) in &graph.roots {
        let bits = effective[root];
        if bits == 0 {
            continue;
        }
        let node = &graph.nodes[root];
        for (bit, name) in TAINT_KINDS {
            if bits & bit == 0 {
                continue;
            }
            let path = taint_path(&graph, &effective, root, bit);
            let mut finding = Finding::new(
                Lint::TaintedRoot,
                node.file.clone(),
                node.line,
                format!(
                    "deterministic root `{}` ({}) transitively reaches a {name} sink",
                    node.qualified,
                    kind.describe(),
                ),
                format!("fn {}", node.qualified),
            );
            finding.call_path = path;
            findings.push(finding);
        }
    }

    findings.extend(lock_order_findings(&graph));
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));

    Dataflow {
        graph,
        effective,
        findings,
    }
}

/// Shortest call path from `root` to a function whose *own* (untrusted)
/// taint includes `bit`, rendered one `name (file:line)` hop per entry
/// with the sink construct appended to the terminal hop.
fn taint_path(graph: &CallGraph, effective: &[u8], root: usize, bit: u8) -> Vec<String> {
    let is_terminal = |n: usize| graph.nodes[n].own_taint & !graph.nodes[n].trusted & bit != 0;
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::from([root]);
    let mut seen = BTreeSet::from([root]);
    let mut terminal = is_terminal(root).then_some(root);
    while terminal.is_none() {
        let Some(n) = queue.pop_front() else {
            break;
        };
        for e in &graph.edges[n] {
            if effective[e.to] & bit == 0 || !seen.insert(e.to) {
                continue;
            }
            prev.insert(e.to, n);
            if is_terminal(e.to) {
                terminal = Some(e.to);
                break;
            }
            queue.push_back(e.to);
        }
    }
    let Some(terminal) = terminal else {
        // Unreachable in practice: effective taint at the root implies
        // a reachable untrusted sink. Degrade to a root-only path.
        return vec![hop(graph, root)];
    };
    let mut chain = vec![terminal];
    while let Some(&p) = prev.get(chain.last().expect("non-empty")) {
        chain.push(p);
    }
    chain.reverse();
    let mut path: Vec<String> = chain.iter().map(|&n| hop(graph, n)).collect();
    if let Some((_, what, line)) = graph.nodes[terminal]
        .sink_notes
        .iter()
        .find(|(b, _, _)| *b == bit)
    {
        let file = graph.nodes[terminal].file.display();
        path.push(format!("sink: {what} ({file}:{line})"));
    }
    path
}

/// One rendered call-path hop.
fn hop(graph: &CallGraph, n: usize) -> String {
    let node = &graph.nodes[n];
    format!("{} ({}:{})", node.qualified, node.file.display(), node.line)
}

/// Builds the cross-function lock graph and reports each distinct
/// acquisition-order cycle as a `lock-order` finding.
fn lock_order_findings(graph: &CallGraph) -> Vec<Finding> {
    // Transitive lock sets: every lock a call into `f` may acquire.
    let n = graph.nodes.len();
    let mut locks_all: Vec<BTreeSet<String>> = graph
        .nodes
        .iter()
        .map(|node| node.locks.iter().map(|l| l.name.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for f in 0..n {
            let mut add: Vec<String> = Vec::new();
            for e in &graph.edges[f] {
                for l in &locks_all[e.to] {
                    if !locks_all[f].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                locks_all[f].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Ordered edges between lock names, with first-seen provenance.
    let mut lock_edges: BTreeMap<(String, String), (std::path::PathBuf, u32)> = BTreeMap::new();
    for (f, node) in graph.nodes.iter().enumerate() {
        for a in &node.locks {
            // Direct second acquisitions while `a` is held.
            for b in &node.locks {
                if a.pos < b.pos && b.pos < a.scope_end && a.name != b.name {
                    lock_edges
                        .entry((a.name.clone(), b.name.clone()))
                        .or_insert_with(|| (node.file.clone(), a.line));
                }
            }
            // Locks acquired by calls made while `a` is held. Guards
            // returned *by* calls (`shared.queue(i)`) create no held
            // state here — only their direct `.lock()` sites do.
            for e in &graph.edges[f] {
                if a.pos < e.pos && e.pos < a.scope_end {
                    for l in &locks_all[e.to] {
                        if *l != a.name {
                            lock_edges
                                .entry((a.name.clone(), l.clone()))
                                .or_insert_with(|| (node.file.clone(), a.line));
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over the lock-name graph.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in lock_edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys() {
        let mut stack: Vec<&str> = vec![start];
        let mut on_stack: BTreeSet<&str> = BTreeSet::from([start]);
        dfs_cycles(
            start,
            &adj,
            &mut stack,
            &mut on_stack,
            &mut done,
            &mut |cycle: &[&str]| {
                // Canonicalize: rotate so the smallest name leads.
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| **s)
                    .map_or(0, |(i, _)| i);
                let canon: Vec<String> = (0..cycle.len())
                    .map(|i| cycle[(min + i) % cycle.len()].to_string())
                    .collect();
                if !reported.insert(canon.clone()) {
                    return;
                }
                let (file, line) = lock_edges
                    .get(&(canon[0].clone(), canon[(1) % canon.len()].clone()))
                    .cloned()
                    .unwrap_or_default();
                let mut finding = Finding::new(
                    Lint::LockOrder,
                    file,
                    line,
                    format!(
                        "lock acquisition cycle: {} -> {}",
                        canon.join(" -> "),
                        canon[0],
                    ),
                    format!("{} locks", canon.len()),
                );
                finding.call_path = canon;
                findings.push(finding);
            },
        );
    }
    findings
}

/// DFS that invokes `report` for every cycle found from `node`.
fn dfs_cycles<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    stack: &mut Vec<&'a str>,
    on_stack: &mut BTreeSet<&'a str>,
    done: &mut BTreeSet<&'a str>,
    report: &mut dyn FnMut(&[&str]),
) {
    for &next in adj.get(node).into_iter().flatten() {
        if on_stack.contains(next) {
            let from = stack.iter().position(|&s| s == next).unwrap_or(0);
            report(&stack[from..]);
            continue;
        }
        if done.contains(next) {
            continue;
        }
        stack.push(next);
        on_stack.insert(next);
        dfs_cycles(next, adj, stack, on_stack, done, report);
        stack.pop();
        on_stack.remove(next);
    }
    done.insert(node);
}

/// The `cargo analyzer graph` document: `crates`, `nodes` (one per
/// function, with its purity label, root reason, effective taints and
/// trusted kinds), `edges`, `roots` (node ids) and the `findings` count.
#[must_use]
pub fn graph_json(flow: &Dataflow) -> Json {
    let graph = &flow.graph;
    let text = |s: &str| Json::String(s.to_string());
    let num = |n: usize| Json::Number(n as f64);
    let kinds = |bits: u8| Json::Array(taint_names(bits).into_iter().map(text).collect());
    let crates: BTreeSet<&str> = graph.nodes.iter().map(|n| n.crate_name.as_str()).collect();
    let nodes = graph.nodes.iter().enumerate().map(|(i, node)| {
        Json::object(vec![
            ("id".into(), num(i)),
            ("crate".into(), text(&node.crate_name)),
            ("file".into(), Json::String(node.file.display().to_string())),
            ("fn".into(), text(&node.qualified)),
            ("line".into(), Json::Number(f64::from(node.line))),
            (
                "purity".into(),
                text(purity_label(flow.effective[i], node.seeded)),
            ),
            (
                "root".into(),
                graph
                    .roots
                    .get(&i)
                    .map_or(Json::Null, |k| text(k.describe())),
            ),
            ("taints".into(), kinds(flow.effective[i])),
            ("trusted".into(), kinds(node.trusted)),
        ])
    });
    let edges = graph.edges.iter().enumerate().flat_map(|(from, es)| {
        es.iter().map(move |e| {
            Json::object(vec![
                ("from".into(), num(from)),
                ("to".into(), num(e.to)),
                ("line".into(), Json::Number(f64::from(e.line))),
            ])
        })
    });
    Json::object(vec![
        (
            "crates".into(),
            Json::Array(crates.into_iter().map(text).collect()),
        ),
        ("nodes".into(), Json::Array(nodes.collect())),
        ("edges".into(), Json::Array(edges.collect())),
        (
            "roots".into(),
            Json::Array(graph.roots.keys().map(|&r| num(r)).collect()),
        ),
        ("findings".into(), num(flow.findings.len())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, extract_file};
    use crate::lints::FileContext;
    use crate::sig::ParsedFile;
    use std::path::Path;

    fn flow(src: &str) -> Dataflow {
        let fg = extract_file(
            Path::new("crates/x/src/lib.rs"),
            &ParsedFile::new(src),
            &FileContext::lib("x"),
        );
        analyze(build(&[fg], &["x".to_string()].into_iter().collect()))
    }

    #[test]
    fn propagate_reaches_fixpoint_through_chains() {
        // 0 -> 1 -> 2(clock)
        let own = vec![0, 0, CLOCK];
        let trusted = vec![0, 0, 0];
        let edges = vec![vec![1], vec![2], vec![]];
        assert_eq!(propagate(&own, &trusted, &edges), vec![CLOCK, CLOCK, CLOCK]);
    }

    #[test]
    fn trust_masks_taint_at_the_annotated_node() {
        // 0 -> 1(clock, trusted clock): callers stay clean.
        let own = vec![0, CLOCK];
        let trusted = vec![0, CLOCK];
        let edges = vec![vec![1], vec![]];
        assert_eq!(propagate(&own, &trusted, &edges), vec![0, 0]);
        // ...but trusting clock does not mask io.
        let own = vec![0, CLOCK | IO];
        assert_eq!(propagate(&own, &trusted, &edges), vec![IO, IO]);
    }

    #[test]
    fn propagation_handles_cycles() {
        // 0 <-> 1, 1 -> 2(env).
        let own = vec![0, 0, ENV];
        let trusted = vec![0, 0, 0];
        let edges = vec![vec![1], vec![0, 2], vec![]];
        assert_eq!(propagate(&own, &trusted, &edges), vec![ENV, ENV, ENV]);
    }

    #[test]
    fn purity_labels_follow_the_severity_order() {
        assert_eq!(purity_label(IO | CLOCK, false), "io-tainted");
        assert_eq!(purity_label(CLOCK | ENV, false), "clock-tainted");
        assert_eq!(purity_label(ENV, true), "env-tainted");
        assert_eq!(purity_label(RNG, false), "rng-tainted");
        assert_eq!(purity_label(HASH_ITER, false), "hash-iter-tainted");
        assert_eq!(purity_label(0, true), "seeded-rng");
        assert_eq!(purity_label(0, false), "deterministic");
    }

    #[test]
    fn tainted_root_reports_the_call_path() {
        let flow = flow(
            r"
            pub fn driver(pool: &Pool, xs: Vec<u64>) { pool.par_map(xs, |x| leaf(x)); }
            pub fn leaf(x: u64) -> u64 { mid(x) }
            fn mid(x: u64) -> u64 { let t = Instant::now(); x }
            ",
        );
        let tainted: Vec<&Finding> = flow
            .findings
            .iter()
            .filter(|f| f.lint == Lint::TaintedRoot)
            .collect();
        assert_eq!(tainted.len(), 1, "findings: {:#?}", flow.findings);
        let f = tainted[0];
        assert!(f.message.contains("`leaf`"));
        assert!(f.message.contains("clock sink"));
        assert_eq!(f.call_path.len(), 3, "path: {:?}", f.call_path);
        assert!(f.call_path[0].starts_with("leaf ("));
        assert!(f.call_path[1].starts_with("mid ("));
        assert!(f.call_path[2].starts_with("sink: Instant::now ("));
    }

    #[test]
    fn trusted_sink_produces_no_tainted_root() {
        let flow = flow(
            r"
            pub fn driver(pool: &Pool, xs: Vec<u64>) { pool.par_map(xs, |x| leaf(x)); }
            pub fn leaf(x: u64) -> u64 { stamp(); x }
            // analyzer: trust(clock): observability only, never in results
            fn stamp() { let t = Instant::now(); }
            ",
        );
        assert!(
            flow.findings.iter().all(|f| f.lint != Lint::TaintedRoot),
            "findings: {:#?}",
            flow.findings
        );
    }

    #[test]
    fn lock_order_cycle_is_detected_across_functions() {
        let flow = flow(
            r"
            pub fn forward(&self) { let a = self.alpha.lock(); take_beta(self); }
            pub fn take_beta(&self) { let b = self.beta.lock(); }
            pub fn backward(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }
            ",
        );
        let cycles: Vec<&Finding> = flow
            .findings
            .iter()
            .filter(|f| f.lint == Lint::LockOrder)
            .collect();
        assert_eq!(cycles.len(), 1, "findings: {:#?}", flow.findings);
        assert_eq!(cycles[0].call_path, vec!["alpha", "beta"]);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let flow = flow(
            r"
            pub fn one(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
            pub fn two(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
            ",
        );
        assert!(flow.findings.iter().all(|f| f.lint != Lint::LockOrder));
    }

    #[test]
    fn scoped_guard_release_breaks_the_edge() {
        // beta is taken after alpha's guard scope closed: no alpha->beta.
        let flow = flow(
            r"
            pub fn staged(&self) {
                { let a = self.alpha.lock(); }
                let b = self.beta.lock();
            }
            pub fn backward(&self) { let b = self.beta.lock(); }
            ",
        );
        assert!(flow.findings.iter().all(|f| f.lint != Lint::LockOrder));
    }

    #[test]
    fn graph_json_lists_nodes_edges_and_purity() {
        let flow = flow(
            r"
            pub fn a() { b(); }
            fn b() { let t = Instant::now(); }
            ",
        );
        let doc = selfheal_telemetry::json::parse(&graph_json(&flow).render_pretty())
            .expect("graph parses");
        let field = |v: &Json, k: &str| v.get(k).cloned().unwrap_or(Json::Null);
        assert_eq!(
            field(&doc, "crates"),
            Json::Array(vec![Json::String("x".into())])
        );
        let nodes = doc.get("nodes").and_then(Json::as_array).expect("nodes");
        assert_eq!(field(&nodes[0], "fn"), Json::String("a".into()));
        assert_eq!(
            field(&nodes[0], "purity"),
            Json::String("clock-tainted".into())
        );
        assert_eq!(field(&nodes[0], "root"), Json::Null);
        let edges = doc.get("edges").and_then(Json::as_array).expect("edges");
        assert_eq!(edges.len(), 1);
        assert_eq!(field(&edges[0], "from"), Json::Number(0.0));
        assert_eq!(field(&edges[0], "to"), Json::Number(1.0));
    }
}
