//! Hierarchical spans with wall-clock timing, the phase list that feeds
//! run manifests, and the self-time ledger behind profiling exports.
//!
//! Every armed span contributes to two ledgers on drop:
//!
//! * the **phase list** — completed *root* spans only, kept per thread
//!   and only on a thread that has begun a run ([`begin_run`]); drained
//!   by [`take_phase_timings`] into manifest phase entries;
//! * the **self-time ledger** — every span, keyed by its folded call
//!   stack (`parent;child;leaf`), accumulating call counts, total
//!   wall-clock and *self* wall-clock (total minus time spent in child
//!   spans). [`self_time_snapshot`] feeds the pretty sink's top-N table
//!   and the manifest's `self_time` section; [`render_folded`] emits the
//!   `flamegraph.pl`-compatible folded-stacks format.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::event::{current_thread_hash, trace_epoch_ns, Event, EventKind, Field};
use crate::sink;

/// Monotone span ids, shared across threads (0 means "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One frame of a thread's open-span stack.
struct Frame {
    id: u64,
    /// Folded path down to this span: `root;...;name`.
    path: String,
    /// Nanoseconds spent in already-closed *direct* children.
    child_ns: u128,
}

thread_local! {
    /// The calling thread's open-span stack, innermost last.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's completed root spans, in completion order;
    /// `None`, so nothing is kept, until the thread begins a run.
    static PHASES: RefCell<Option<Vec<PhaseTiming>>> = const { RefCell::new(None) };
}

/// One completed root span, as the manifest reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// The span's name.
    pub name: String,
    /// Wall-clock duration in seconds.
    pub wall_s: f64,
    /// Wall-clock seconds spent in the phase itself, excluding time
    /// covered by child spans.
    pub self_s: f64,
}

/// Begins a run on the calling thread: clears the self-time ledger and
/// starts an empty phase list here, so the manifest this thread captures
/// covers exactly this run.
pub fn begin_run() {
    self_time().clear();
    record_phases_here();
}

/// Starts an empty phase list on the calling thread.
pub(crate) fn record_phases_here() {
    PHASES.with(|phases| *phases.borrow_mut() = Some(Vec::new()));
}

/// Drains the calling thread's completed root-span timings (none unless
/// it began a run) so consecutive manifests do not bleed into each other.
#[must_use]
pub fn take_phase_timings() -> Vec<PhaseTiming> {
    PHASES.with(|phases| phases.borrow_mut().as_mut().map(std::mem::take).unwrap_or_default())
}

/// Accumulated timing for one folded call stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTimeEntry {
    /// The folded stack: span names from root to leaf joined by `;`.
    pub stack: String,
    /// The leaf span's name.
    pub name: String,
    /// How many spans closed on this stack.
    pub count: u64,
    /// Total wall-clock nanoseconds (including child spans).
    pub total_ns: u128,
    /// Self wall-clock nanoseconds (total minus direct children).
    pub self_ns: u128,
}

/// The self-time ledger: folded stack → accumulated timing. Global (all
/// threads fold into one profile — a pooled run's worker spans belong to
/// the same picture); [`begin_run`] starts a fresh accumulation.
static SELF_TIME: Mutex<BTreeMap<String, (u64, u128, u128)>> = Mutex::new(BTreeMap::new());

fn self_time() -> MutexGuard<'static, BTreeMap<String, (u64, u128, u128)>> {
    SELF_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

fn record_self_time(path: &str, total_ns: u128, self_ns: u128) {
    let mut map = self_time();
    let entry = map.entry(path.to_string()).or_insert((0, 0, 0));
    entry.0 += 1;
    entry.1 += total_ns;
    entry.2 += self_ns;
}

/// A copy of the self-time ledger, sorted by self time, largest first.
#[must_use]
pub fn self_time_snapshot() -> Vec<SelfTimeEntry> {
    let map = self_time();
    let mut entries: Vec<SelfTimeEntry> = map
        .iter()
        .map(|(path, (count, total_ns, self_ns))| SelfTimeEntry {
            stack: path.clone(),
            name: path.rsplit(';').next().unwrap_or(path).to_string(),
            count: *count,
            total_ns: *total_ns,
            self_ns: *self_ns,
        })
        .collect();
    entries.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.stack.cmp(&b.stack)));
    entries
}

/// Renders entries in the folded-stacks format `flamegraph.pl` consumes:
/// one `stack;path value` line per stack, value = self time in
/// microseconds (floored, minimum 1 so no sampled stack vanishes).
#[must_use]
pub fn render_folded(entries: &[SelfTimeEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        let us = (entry.self_ns / 1_000).max(1);
        out.push_str(&format!("{} {us}\n", entry.stack));
    }
    out
}

/// An open span. Created by the [`crate::span!`] macro; closing happens on
/// drop, which stamps the wall-clock duration, emits the `span_end` event
/// and records the phase timing (root spans) and self-time ledger entry.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    id: u64,
    parent_id: u64,
    depth: usize,
    name: String,
    started: Instant,
    fields: Vec<Field>,
}

impl Span {
    /// Opens a span. Prefer the [`crate::span!`] macro, which skips all
    /// work (including field construction) when telemetry is off.
    #[must_use]
    pub fn enter(name: &str, fields: Vec<Field>) -> Span {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (parent_id, depth) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (parent, path) = match stack.last() {
                Some(top) => (top.id, format!("{};{name}", top.path)),
                None => (0, name.to_string()),
            };
            let depth = stack.len();
            stack.push(Frame {
                id,
                path,
                child_ns: 0,
            });
            (parent, depth)
        });
        let inner = SpanInner {
            id,
            parent_id,
            depth,
            name: name.to_string(),
            started: Instant::now(),
            fields,
        };
        if sink::events_enabled() {
            sink::dispatch(&inner.event(EventKind::SpanStart, None));
        }
        Span { inner: Some(inner) }
    }

    /// A disarmed span (telemetry off): construction and drop are free.
    #[must_use]
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// The span's id (0 when disarmed).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.id)
    }

    /// Wall-clock time since the span opened (zero when disarmed).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.inner
            .as_ref()
            .map_or(Duration::ZERO, |s| s.started.elapsed())
    }
}

impl SpanInner {
    fn event(&self, kind: EventKind, wall_ns: Option<u128>) -> Event {
        Event {
            kind,
            name: self.name.clone(),
            span_id: self.id,
            parent_id: self.parent_id,
            depth: self.depth,
            seq: sink::next_seq(),
            ts_ns: trace_epoch_ns(),
            thread: current_thread_hash(),
            wall_ns,
            fields: self
                .fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let elapsed = inner.started.elapsed();
        let elapsed_ns = elapsed.as_nanos();
        let (path, child_ns) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Out-of-order drops cannot happen through the guard API, but
            // be defensive: remove this id wherever it sits.
            let frame = stack
                .iter()
                .rposition(|frame| frame.id == inner.id)
                .map(|at| stack.remove(at));
            // Credit this span's wall-clock to its parent's child tally.
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += elapsed_ns;
            }
            match frame {
                Some(frame) => (frame.path, frame.child_ns),
                None => (inner.name.clone(), 0),
            }
        });
        let self_ns = elapsed_ns.saturating_sub(child_ns);
        record_self_time(&path, elapsed_ns, self_ns);
        if sink::events_enabled() {
            sink::dispatch(&inner.event(EventKind::SpanEnd, Some(elapsed_ns)));
        }
        if inner.depth == 0 {
            PHASES.with(|phases| {
                if let Some(phases) = phases.borrow_mut().as_mut() {
                    phases.push(PhaseTiming {
                        name: inner.name,
                        wall_s: elapsed.as_secs_f64(),
                        self_s: Duration::new(
                            u64::try_from(self_ns / 1_000_000_000).unwrap_or(u64::MAX),
                            u32::try_from(self_ns % 1_000_000_000).unwrap_or(0),
                        )
                        .as_secs_f64(),
                    });
                }
            });
        }
    }
}

/// The current span id on this thread (0 outside any span) — what point
/// events attach themselves to.
#[must_use]
pub fn current_span_id() -> (u64, usize) {
    STACK.with(|stack| {
        let stack = stack.borrow();
        (stack.last().map_or(0, |frame| frame.id), stack.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{install_sink, MemorySink};

    #[test]
    fn nesting_tracks_parent_and_depth() {
        let memory = MemorySink::new();
        let _guard = install_sink(memory.clone());
        {
            let outer = Span::enter("outer", Vec::new());
            {
                let inner = Span::enter("inner", Vec::new());
                assert_ne!(inner.id(), outer.id());
            }
        }
        let events: Vec<Event> = memory.drain_current_thread();
        let names: Vec<(&str, &str)> = events
            .iter()
            .map(|e| (e.kind.id(), e.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("span_start", "outer"),
                ("span_start", "inner"),
                ("span_end", "inner"),
                ("span_end", "outer"),
            ]
        );
        let inner_end = &events[2];
        let outer_end = &events[3];
        assert_eq!(inner_end.depth, 1);
        assert_eq!(outer_end.depth, 0);
        assert_eq!(inner_end.parent_id, outer_end.span_id);
    }

    #[test]
    fn timing_is_monotone_and_nested_spans_are_shorter() {
        let memory = MemorySink::new();
        let _guard = install_sink(memory.clone());
        {
            let _outer = Span::enter("t_outer", Vec::new());
            std::thread::sleep(Duration::from_millis(2));
            let _inner = Span::enter("t_inner", Vec::new());
            std::thread::sleep(Duration::from_millis(1));
        }
        let events = memory.drain_current_thread();
        let wall = |name: &str| {
            events
                .iter()
                .find(|e| e.kind == EventKind::SpanEnd && e.name == name)
                .and_then(|e| e.wall_ns)
                .expect("span_end with duration")
        };
        let outer = wall("t_outer");
        let inner = wall("t_inner");
        assert!(outer > 0 && inner > 0);
        assert!(inner <= outer, "inner {inner} ns within outer {outer} ns");
        // Sequence numbers are strictly increasing in emission order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        // Timestamps are monotone (non-decreasing) per thread.
        let stamps: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    }

    #[test]
    fn root_spans_feed_the_phase_list_of_a_run_thread() {
        record_phases_here();
        {
            let _a = Span::enter("phase_a", Vec::new());
        }
        {
            let _b = Span::enter("phase_b", Vec::new());
            let _nested = Span::enter("not_a_phase", Vec::new());
        }
        let phases = take_phase_timings();
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        // Only root spans count — the nested span is not a phase.
        assert_eq!(names, vec!["phase_a", "phase_b"]);
        assert!(phases.iter().all(|p| p.wall_s >= 0.0));
        assert!(
            phases.iter().all(|p| p.self_s <= p.wall_s + 1e-12),
            "self time never exceeds the phase total: {phases:?}"
        );
        // Draining leaves the list empty for the next capture.
        assert!(take_phase_timings().is_empty());
    }

    #[test]
    fn threads_that_have_not_begun_a_run_keep_no_phases() {
        // Armed spans, as `span!` opens them whenever telemetry is on.
        let phases = std::thread::spawn(|| {
            for _ in 0..10_000 {
                let _request = Span::enter("not_a_run", Vec::new());
            }
            take_phase_timings()
        })
        .join()
        .expect("span thread");
        assert!(phases.is_empty(), "{} phases kept", phases.len());
    }

    #[test]
    fn self_time_ledger_attributes_child_time_to_children() {
        {
            let _outer = Span::enter("stl_outer", Vec::new());
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = Span::enter("stl_inner", Vec::new());
                std::thread::sleep(Duration::from_millis(4));
            }
        }
        let entries = self_time_snapshot();
        let find = |stack: &str| {
            entries
                .iter()
                .find(|e| e.stack == stack)
                .unwrap_or_else(|| panic!("stack {stack} recorded"))
        };
        let outer = find("stl_outer");
        let inner = find("stl_outer;stl_inner");
        assert_eq!(inner.name, "stl_inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The inner sleep is the inner span's self time, not the outer's.
        assert!(inner.self_ns >= 3_000_000, "inner self = {}", inner.self_ns);
        assert!(
            outer.self_ns < outer.total_ns,
            "outer self excludes the child"
        );
        // Exact decomposition: parent total = parent self + child total.
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
    }

    #[test]
    fn folded_rendering_is_flamegraph_shaped() {
        let entries = vec![
            SelfTimeEntry {
                stack: "a;b".to_string(),
                name: "b".to_string(),
                count: 2,
                total_ns: 5_000_000,
                self_ns: 3_000_000,
            },
            SelfTimeEntry {
                stack: "a".to_string(),
                name: "a".to_string(),
                count: 1,
                total_ns: 9_000_000,
                self_ns: 100, // sub-microsecond: clamps to 1
            },
        ];
        let folded = render_folded(&entries);
        assert_eq!(folded, "a;b 3000\na 1\n");
    }

    #[test]
    fn disabled_span_is_inert() {
        let span = Span::disabled();
        assert_eq!(span.id(), 0);
        assert_eq!(span.elapsed(), Duration::ZERO);
        let (current, depth) = current_span_id();
        assert_eq!(current, 0);
        assert_eq!(depth, 0);
    }
}
