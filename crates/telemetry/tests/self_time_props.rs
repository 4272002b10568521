//! Property tests for the self-time ledger: over arbitrary span trees,
//! self time never exceeds total time, and every parent's total
//! decomposes *exactly* into its own self time plus the totals of its
//! direct children (the invariant that makes folded-stack flamegraphs
//! add up).

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use selfheal_telemetry::{self as telemetry, SelfTimeEntry, Span};

/// Unique root name per generated case, so the process-global ledger
/// never aggregates across cases (or across parallel test threads).
static CASE: AtomicU64 = AtomicU64::new(0);

/// Runs one op tape as a span tree under a fresh root and returns the
/// ledger entries belonging to that root.
fn run_tape(ops: &[u8]) -> (String, Vec<SelfTimeEntry>) {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let root = format!("case{case}");
    telemetry::begin_run();
    {
        let mut stack: Vec<Span> = vec![Span::enter(&root, Vec::new())];
        for &op in ops {
            match op {
                // Open a child span; three names so paths repeat and the
                // ledger's (count, total, self) aggregation is exercised.
                0..=2 => {
                    let name = ["a", "b", "c"][op as usize];
                    stack.push(Span::enter(name, Vec::new()));
                }
                // Close the innermost span, never the case root.
                3 => {
                    if stack.len() > 1 {
                        stack.pop();
                    }
                }
                // Burn a little real time so self-time is non-trivial.
                _ => {
                    let mut acc = op as u64;
                    for i in 0..512u64 {
                        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                    }
                    std::hint::black_box(acc);
                }
            }
        }
        // Drop guards innermost-first.
        while stack.len() > 1 {
            stack.pop();
        }
    }
    let entries = telemetry::self_time_snapshot()
        .into_iter()
        .filter(|entry| entry.stack == root || entry.stack.starts_with(&format!("{root};")))
        .collect();
    (root, entries)
}

proptest! {
    #[test]
    fn self_time_decomposes_exactly(ops in proptest::collection::vec(0u8..6, 0..64)) {
        let (root, entries) = run_tape(&ops);
        prop_assert!(!entries.is_empty(), "the case root must reach the ledger");

        for entry in &entries {
            prop_assert!(
                entry.self_ns <= entry.total_ns,
                "{}: self {} ns exceeds total {} ns",
                entry.stack, entry.self_ns, entry.total_ns
            );
            prop_assert!(entry.count >= 1);

            // total == self + Σ direct children's totals, exactly: every
            // nanosecond a child runs is credited to the parent's child
            // bucket, nothing else is.
            let child_prefix = format!("{};", entry.stack);
            let children_total: u128 = entries
                .iter()
                .filter(|child| {
                    child.stack.starts_with(&child_prefix)
                        && !child.stack[child_prefix.len()..].contains(';')
                })
                .map(|child| child.total_ns)
                .sum();
            prop_assert_eq!(
                entry.total_ns,
                entry.self_ns + children_total,
                "{}: total must equal self + direct children",
                entry.stack.clone()
            );
        }

        // The root's phase-list record agrees: self wall-clock never
        // exceeds total wall-clock.
        let phases = telemetry::take_phase_timings();
        let phase = phases.iter().find(|p| p.name == root);
        prop_assert!(phase.is_some(), "depth-0 span lands in the phase list");
        let phase = phase.unwrap();
        prop_assert!(
            phase.self_s <= phase.wall_s + 1e-12,
            "{}: phase self {} s exceeds wall {} s",
            root, phase.self_s, phase.wall_s
        );
    }
}
