//! Pluggable event sinks and the global sink registry.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{current_thread_hash, thread_name, Event, EventKind, FieldValue};
use crate::json::Json;

/// A destination for telemetry events.
///
/// Sinks must be cheap and infallible from the caller's point of view:
/// I/O errors are swallowed (telemetry must never fail the simulation it
/// observes).
pub trait Sink: Send + Sync {
    /// Delivers one event.
    fn record(&self, event: &Event);
    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// The global sink registry. Events broadcast to every installed sink.
static SINKS: Mutex<Vec<(u64, Arc<dyn Sink>)>> = Mutex::new(Vec::new());
/// Cached "any sink installed" flag, readable without the lock.
static EVENTS_ON: AtomicBool = AtomicBool::new(false);
/// Monotone ids for sink registrations.
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);
/// Global event sequence counter.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Telemetry state is always consistent even if a panicking test poisoned
/// the mutex: recover the guard and keep going.
fn sinks() -> MutexGuard<'static, Vec<(u64, Arc<dyn Sink>)>> {
    SINKS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True when at least one sink is installed (fast atomic check — the
/// instrumentation's early-out).
#[must_use]
pub fn events_enabled() -> bool {
    EVENTS_ON.load(Ordering::Relaxed)
}

/// Installs a sink; events flow to it until the returned guard drops.
#[must_use = "the sink is removed when the guard drops"]
pub fn install_sink(sink: Arc<dyn Sink>) -> SinkGuard {
    let id = NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed);
    let mut registry = sinks();
    registry.push((id, sink));
    EVENTS_ON.store(true, Ordering::Relaxed);
    SinkGuard { ids: vec![id] }
}

/// Removes the guarded sinks on drop (flushing each first). One guard can
/// own several sinks: [`init_from_env`] installs every comma-separated
/// spec under a single guard.
#[derive(Debug)]
pub struct SinkGuard {
    ids: Vec<u64>,
}

impl SinkGuard {
    /// Folds another guard's sinks into this one (both are then removed
    /// when `self` drops).
    pub fn merge(&mut self, mut other: SinkGuard) {
        self.ids.append(&mut other.ids);
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let mut registry = sinks();
        for owned in self.ids.drain(..) {
            if let Some(at) = registry.iter().position(|(id, _)| *id == owned) {
                let (_, sink) = registry.remove(at);
                sink.flush();
            }
        }
        EVENTS_ON.store(!registry.is_empty(), Ordering::Relaxed);
    }
}

/// Broadcasts a fully-formed event to every sink. Callers are expected to
/// have checked [`events_enabled`] first; this re-checks cheaply anyway.
pub fn dispatch(event: &Event) {
    if !events_enabled() {
        return;
    }
    let registry = sinks();
    for (_, sink) in registry.iter() {
        sink.record(event);
    }
}

/// Claims the next global sequence number.
#[must_use]
pub fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Flushes every installed sink (bench binaries call this before exit).
pub fn flush_all() {
    let registry = sinks();
    for (_, sink) in registry.iter() {
        sink.flush();
    }
}

/// Pretty-printer for interactive runs: one line per event on stderr,
/// indented by span depth.
#[derive(Debug, Default)]
pub struct StderrSink {
    /// The end-of-run summary must print once even though flush runs
    /// both at manifest capture and at sink-guard drop.
    summarized: AtomicBool,
}

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        let indent = "  ".repeat(event.depth);
        let mut line = format!("[telemetry] {indent}{} {}", event.kind.id(), event.name);
        if let Some(ns) = event.wall_ns {
            let ms = ns as f64 / 1e6;
            line.push_str(&format!(" ({ms:.3} ms)"));
        }
        for (key, value) in &event.fields {
            line.push_str(&format!(" {key}={}", value.to_json().render()));
        }
        eprintln!("{line}");
    }

    /// On flush (end of run), summarize every registered histogram with
    /// count/mean and bucket-derived p50/p90/p99/p999 — the interactive
    /// counterpart of the quantiles the manifest snapshot stores — plus a
    /// one-line pool utilisation digest when the run used the execution
    /// pool.
    fn flush(&self) {
        if self.summarized.swap(true, Ordering::Relaxed) {
            return;
        }
        let snapshot = crate::metrics::snapshot();
        for (name, metric) in &snapshot.metrics {
            let crate::metrics::Metric::Histogram(h) = metric else {
                continue;
            };
            let (Some(p50), Some(p90), Some(p99), Some(p999)) = (
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.quantile(0.999),
            ) else {
                continue; // empty histogram: nothing to summarize
            };
            let mean = h.mean().unwrap_or(f64::NAN);
            eprintln!(
                "[telemetry] histogram {name}: n={} mean={mean:.4} p50={p50:.4} p90={p90:.4} p99={p99:.4} p999={p999:.4}",
                h.count(),
            );
        }
        let scalar = |name: &str| match snapshot.get(name) {
            Some(crate::metrics::Metric::Counter(v) | crate::metrics::Metric::Gauge(v)) => Some(*v),
            _ => None,
        };
        if let (Some(batches), Some(jobs)) =
            (scalar("runtime.pool.batches"), scalar("runtime.pool.jobs"))
        {
            let mut line =
                format!("[telemetry] pool: {batches:.0} parallel region(s), {jobs:.0} job(s)");
            if let Some(depth) = scalar("runtime.pool.max_queue_depth") {
                line.push_str(&format!(", max queue depth {depth:.0}"));
            }
            if let Some(crate::metrics::Metric::Histogram(h)) =
                snapshot.get("runtime.pool.steal_ratio")
            {
                if let Some(mean) = h.mean() {
                    line.push_str(&format!(", mean steal ratio {mean:.3}"));
                }
            }
            eprintln!("{line}");
        }
        let self_time = crate::span::self_time_snapshot();
        if !self_time.is_empty() {
            eprintln!(
                "[telemetry] self-time (top {} of {} stacks):",
                self_time.len().min(5),
                self_time.len(),
            );
            for entry in self_time.iter().take(5) {
                eprintln!(
                    "[telemetry]   {:<40} calls={:>6} self={:>10.3} ms total={:>10.3} ms",
                    entry.stack,
                    entry.count,
                    entry.self_ns as f64 / 1e6,
                    entry.total_ns as f64 / 1e6,
                );
            }
        }
    }
}

/// JSONL file sink: one compact JSON object per line.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the output file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // Telemetry never fails the host program; a full disk just loses
        // events.
        let _ = writeln!(writer, "{}", event.to_json().render());
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writer.flush();
    }
}

/// Chrome/Perfetto trace-event exporter (`SELFHEAL_TELEMETRY=trace:<path>`).
///
/// Buffers every event in memory and, on flush, rewrites the output file
/// as one strict-JSON trace (`{"traceEvents": [...]}`) that loads in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
///
/// * spans become `B`/`E` (duration begin/end) pairs on the emitting
///   thread's timeline row;
/// * `event!` points become thread-scoped instants (`ph: "i"`);
/// * `trace_counter!` samples become counter tracks (`ph: "C"`);
/// * threads that called [`crate::register_thread_name`] (the runtime
///   pool's workers do) get `thread_name` metadata, so a `fig5 --threads 8`
///   run shows one labelled row per worker.
///
/// Thread ids are remapped to small integers in order of first
/// appearance (tid 0 is whichever thread emitted first — in practice the
/// main thread, since it opens the first span before the pool spins up).
/// Flushing is idempotent: the buffer is kept so a later flush rewrites
/// the file with strictly more events.
#[derive(Debug)]
pub struct ChromeTraceSink {
    path: PathBuf,
    events: Mutex<Vec<Event>>,
}

impl ChromeTraceSink {
    /// Creates the sink and verifies the output file is writable now
    /// (truncating it), so a bad path fails at init rather than at the
    /// end of a long run.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: &Path) -> io::Result<Self> {
        File::create(path)?;
        Ok(ChromeTraceSink {
            path: path.to_path_buf(),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Renders the buffered events as a Chrome trace-event JSON document.
    fn render(&self) -> String {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        // Remap thread hashes to compact tids in order of first appearance.
        let mut tids: Vec<u64> = Vec::new();
        let tid_of = |thread: u64, tids: &mut Vec<u64>| -> f64 {
            match tids.iter().position(|&t| t == thread) {
                Some(at) => at as f64,
                None => {
                    tids.push(thread);
                    (tids.len() - 1) as f64
                }
            }
        };
        let mut trace: Vec<Json> = Vec::new();
        for event in events.iter() {
            let tid = tid_of(event.thread, &mut tids);
            let ts_us = event.ts_ns as f64 / 1e3;
            let mut pairs = vec![
                ("name".to_string(), Json::String(event.name.clone())),
                (
                    "ph".to_string(),
                    Json::String(phase_of(event.kind).to_string()),
                ),
                ("ts".to_string(), Json::Number(ts_us)),
                ("pid".to_string(), Json::Number(1.0)),
                ("tid".to_string(), Json::Number(tid)),
            ];
            if event.kind == EventKind::Point {
                // Thread-scoped instant: a tick on the emitting row only.
                pairs.push(("s".to_string(), Json::String("t".to_string())));
            }
            if matches!(event.kind, EventKind::FlowStart | EventKind::FlowEnd) {
                // Flow arrows pair by (cat, name, id); the end binds to
                // its enclosing slice (`bp: "e"`) so viewers draw the
                // arrow into the executing span rather than past it.
                let flow_id = event
                    .fields
                    .iter()
                    .find_map(|(k, v)| match (k.as_str(), v) {
                        ("flow_id", FieldValue::U64(id)) => Some(*id),
                        _ => None,
                    })
                    .unwrap_or(0);
                pairs.push(("cat".to_string(), Json::String("flow".to_string())));
                pairs.push(("id".to_string(), Json::Number(flow_id as f64)));
                if event.kind == EventKind::FlowEnd {
                    pairs.push(("bp".to_string(), Json::String("e".to_string())));
                }
            }
            if !event.fields.is_empty() {
                pairs.push((
                    "args".to_string(),
                    Json::object(
                        event
                            .fields
                            .iter()
                            .map(|(k, v)| (k.clone(), v.to_json()))
                            .collect(),
                    ),
                ));
            }
            trace.push(Json::object(pairs));
        }
        // Name the rows: registered names (pool workers, harness threads)
        // win; anonymous threads keep a stable hash-derived label.
        for (tid, thread) in tids.iter().enumerate() {
            let label = thread_name(*thread).unwrap_or_else(|| format!("thread-{thread:016x}"));
            trace.push(Json::object(vec![
                ("name".to_string(), Json::String("thread_name".to_string())),
                ("ph".to_string(), Json::String("M".to_string())),
                ("pid".to_string(), Json::Number(1.0)),
                ("tid".to_string(), Json::Number(tid as f64)),
                (
                    "args".to_string(),
                    Json::object(vec![("name".to_string(), Json::String(label))]),
                ),
            ]));
        }
        trace.push(Json::object(vec![
            ("name".to_string(), Json::String("process_name".to_string())),
            ("ph".to_string(), Json::String("M".to_string())),
            ("pid".to_string(), Json::Number(1.0)),
            (
                "args".to_string(),
                Json::object(vec![(
                    "name".to_string(),
                    Json::String("selfheal".to_string()),
                )]),
            ),
        ]));
        Json::object(vec![
            ("traceEvents".to_string(), Json::Array(trace)),
            (
                "displayTimeUnit".to_string(),
                Json::String("ms".to_string()),
            ),
        ])
        .render()
    }
}

/// The trace-event phase character for each event kind.
fn phase_of(kind: EventKind) -> &'static str {
    match kind {
        EventKind::SpanStart => "B",
        EventKind::SpanEnd => "E",
        EventKind::Point => "i",
        EventKind::Counter => "C",
        EventKind::FlowStart => "s",
        EventKind::FlowEnd => "f",
    }
}

impl Sink for ChromeTraceSink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }

    fn flush(&self) {
        // Whole-file rewrite keeps the output valid JSON at every flush.
        let _ = std::fs::write(&self.path, self.render());
    }
}

/// In-memory collector for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A fresh, empty collector.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(MemorySink::default())
    }

    /// Removes and returns every collected event.
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Removes and returns the events emitted by the calling thread —
    /// the isolation primitive for tests running under a parallel harness.
    #[must_use]
    // analyzer: allow(test-only-pub) -- per-thread event isolation for tests under the parallel harness
    pub fn drain_current_thread(&self) -> Vec<Event> {
        let me = current_thread_hash();
        let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let (mine, others): (Vec<Event>, Vec<Event>) = std::mem::take(&mut *events)
            .into_iter()
            .partition(|e| e.thread == me);
        *events = others;
        mine
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

/// The environment variable holding the sink configuration.
pub const ENV_VAR: &str = "SELFHEAL_TELEMETRY";

/// Configures sinks from `SELFHEAL_TELEMETRY` — a comma-separated list
/// of specs, installed under one guard:
///
/// * unset / empty / `off` — no sink (returns `None`);
/// * `pretty` or `stderr` — the stderr pretty-printer;
/// * `jsonl:<path>` — the JSONL file sink;
/// * `trace:<path>` — the Chrome/Perfetto trace exporter.
///
/// Unrecognized specs and file-creation failures print one warning to
/// stderr and are skipped — a typo in an env var must not kill a
/// multi-hour simulation. Returns `None` when no sink was installed.
#[must_use = "the sink is removed when the guard drops"]
pub fn init_from_env() -> Option<SinkGuard> {
    let value = std::env::var(ENV_VAR).ok()?;
    let mut guard: Option<SinkGuard> = None;
    let add = |g: SinkGuard, guard: &mut Option<SinkGuard>| match guard {
        Some(existing) => existing.merge(g),
        None => *guard = Some(g),
    };
    for spec in value.split(',') {
        match spec.trim() {
            "" | "off" => {}
            "pretty" | "stderr" => {
                add(install_sink(Arc::new(StderrSink::default())), &mut guard);
            }
            spec => {
                if let Some(path) = spec.strip_prefix("jsonl:") {
                    match JsonlSink::create(Path::new(path)) {
                        Ok(sink) => add(install_sink(Arc::new(sink)), &mut guard),
                        Err(err) => {
                            eprintln!("[telemetry] cannot open {path}: {err}; spec skipped");
                        }
                    }
                } else if let Some(path) = spec.strip_prefix("trace:") {
                    match ChromeTraceSink::create(Path::new(path)) {
                        Ok(sink) => add(install_sink(Arc::new(sink)), &mut guard),
                        Err(err) => {
                            eprintln!("[telemetry] cannot open {path}: {err}; spec skipped");
                        }
                    }
                } else {
                    eprintln!(
                        "[telemetry] unrecognized {ENV_VAR} spec {spec:?}; expected off | pretty | jsonl:<path> | trace:<path>"
                    );
                }
            }
        }
    }
    guard
}

/// A scratch file path under the target directory (used by doc examples
/// and tests; respects `TMPDIR` indirectly via [`std::env::temp_dir`]).
#[must_use]
pub fn scratch_path(file_name: &str) -> PathBuf {
    std::env::temp_dir().join(file_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FieldValue};

    fn sample_event(name: &str) -> Event {
        Event {
            kind: EventKind::Point,
            name: name.to_string(),
            span_id: 0,
            parent_id: 0,
            depth: 0,
            seq: next_seq(),
            ts_ns: crate::event::trace_epoch_ns(),
            thread: current_thread_hash(),
            wall_ns: None,
            fields: vec![("k".to_string(), FieldValue::U64(1))],
        }
    }

    #[test]
    fn install_dispatch_drop_cycle() {
        let memory = MemorySink::new();
        {
            let _guard = install_sink(memory.clone());
            assert!(events_enabled());
            dispatch(&sample_event("a"));
        }
        let mine = memory.drain_current_thread();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "a");
        // After the guard dropped, dispatch is a no-op for this sink.
        dispatch(&sample_event("b"));
        assert!(memory.drain_current_thread().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = scratch_path(&format!(
            "selfheal-telemetry-test-{}.jsonl",
            current_thread_hash()
        ));
        {
            let sink = JsonlSink::create(&path).expect("test value");
            sink.record(&sample_event("x"));
            sink.record(&sample_event("y"));
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).expect("test value");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let json = crate::json::parse(line).expect("test value");
            assert_eq!(
                json.get("kind").and_then(crate::json::Json::as_str),
                Some("event")
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chrome_trace_sink_emits_valid_trace_events() {
        let path = scratch_path(&format!(
            "selfheal-telemetry-trace-{}.json",
            current_thread_hash()
        ));
        {
            let sink = ChromeTraceSink::create(&path).expect("test value");
            let span = Event {
                kind: EventKind::SpanStart,
                name: "phase".to_string(),
                ..sample_event("phase")
            };
            sink.record(&span);
            sink.record(&sample_event("tick"));
            sink.record(&Event {
                kind: EventKind::Counter,
                fields: vec![("value".to_string(), FieldValue::F64(3.0))],
                ..sample_event("queue_depth")
            });
            sink.record(&Event {
                kind: EventKind::SpanEnd,
                wall_ns: Some(10),
                ..span
            });
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).expect("test value");
        let json = crate::json::parse(&text).expect("strict JSON");
        let Some(Json::Array(trace)) = json.get("traceEvents") else {
            panic!("traceEvents array present: {text}");
        };
        let phases: Vec<&str> = trace
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        // B/E pair, instant, counter, then metadata rows.
        assert_eq!(phases, vec!["B", "i", "C", "E", "M", "M"]);
        let counter = &trace[2];
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        let instant = &trace[1];
        assert_eq!(instant.get("s").and_then(Json::as_str), Some("t"));
        // All four events came from this thread: one shared compact tid.
        let tids: Vec<f64> = trace[..4]
            .iter()
            .filter_map(|e| e.get("tid").and_then(Json::as_f64))
            .collect();
        assert_eq!(tids, vec![0.0; 4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chrome_trace_flow_events_pair_by_id() {
        let path = scratch_path(&format!(
            "selfheal-telemetry-trace-flow-{}.json",
            current_thread_hash()
        ));
        {
            let sink = ChromeTraceSink::create(&path).expect("test value");
            for kind in [EventKind::FlowStart, EventKind::FlowEnd] {
                sink.record(&Event {
                    kind,
                    fields: vec![("flow_id".to_string(), FieldValue::U64(42))],
                    ..sample_event("runtime.pool.job")
                });
            }
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).expect("test value");
        let json = crate::json::parse(&text).expect("strict JSON");
        let Some(Json::Array(trace)) = json.get("traceEvents") else {
            panic!("traceEvents array present: {text}");
        };
        let start = &trace[0];
        assert_eq!(start.get("ph").and_then(Json::as_str), Some("s"));
        assert_eq!(start.get("cat").and_then(Json::as_str), Some("flow"));
        assert_eq!(start.get("id").and_then(Json::as_f64), Some(42.0));
        assert_eq!(start.get("bp"), None);
        let end = &trace[1];
        assert_eq!(end.get("ph").and_then(Json::as_str), Some("f"));
        assert_eq!(end.get("id").and_then(Json::as_f64), Some(42.0));
        // The end binds to its enclosing slice so the arrow lands on it.
        assert_eq!(end.get("bp").and_then(Json::as_str), Some("e"));
        // Both ends share the (cat, name) pair viewers match on.
        assert_eq!(end.get("cat").and_then(Json::as_str), Some("flow"));
        assert_eq!(end.get("name"), start.get("name"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chrome_trace_flush_is_idempotent_and_names_threads() {
        let path = scratch_path(&format!(
            "selfheal-telemetry-trace-names-{}.json",
            current_thread_hash()
        ));
        {
            let sink = ChromeTraceSink::create(&path).expect("test value");
            crate::event::register_thread_name("trace-test-main");
            sink.record(&sample_event("a"));
            sink.flush();
            sink.flush(); // second flush rewrites, must stay valid
        }
        let text = std::fs::read_to_string(&path).expect("test value");
        let json = crate::json::parse(&text).expect("strict JSON");
        let Some(Json::Array(trace)) = json.get("traceEvents") else {
            panic!("traceEvents array present");
        };
        let named = trace.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("trace-test-main")
        });
        assert!(named, "thread_name metadata present: {text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_sink_thread_isolation() {
        let memory = MemorySink::new();
        let _guard = install_sink(memory.clone());
        dispatch(&sample_event("mine"));
        let other = {
            let memory = memory.clone();
            std::thread::spawn(move || {
                memory.record(&Event {
                    thread: current_thread_hash(),
                    ..sample_event("theirs")
                });
            })
        };
        other.join().expect("helper thread");
        let mine = memory.drain_current_thread();
        assert!(mine.iter().all(|e| e.name == "mine"), "{mine:?}");
    }
}
