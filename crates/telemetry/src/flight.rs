//! Flight recorder: a fixed-capacity ring of the most recent structured
//! events, always cheap enough to leave on.
//!
//! Long-lived services (the fleet daemon) cannot afford to persist every
//! span, but a crash with *nothing* behind it is worse. The recorder
//! keeps the last N records — request summaries, epoch and checkpoint
//! markers, protocol errors, lifecycle marks — in memory at a cost of
//! one atomic increment plus one uncontended per-slot lock per record,
//! and dumps them as JSONL on demand: on panic (the daemon installs a
//! hook), on graceful shutdown, and on a `debug-dump` request. The
//! global recorder records only while a dump path is set
//! ([`set_dump_path`]): a ring nothing can dump is never filled.
//!
//! Concurrency model: writers claim a slot with a single
//! `fetch_add` on the head cursor, then fill `slots[seq % capacity]`
//! under that slot's own mutex. Two writers only ever contend on a slot
//! when one laps the other by a full ring — with a 4096-slot ring and
//! per-request recording that never happens in practice, so records are
//! wait-free in the common case and the crate-wide `forbid(unsafe_code)`
//! stands. A snapshot locks each slot briefly, sorts by claim sequence
//! and returns the retained records oldest-first.
//!
//! All recorder bytes reach the filesystem through one function,
//! `persist`, which carries this module's single `analyzer: trust(io)`
//! annotation — the panic-hook, shutdown and `debug-dump` paths all
//! funnel through it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::event::{current_thread_hash, trace_epoch_ns};
use crate::json::Json;

/// Ring capacity of the process-global recorder: enough history to see
/// *how* a daemon got wedged, small enough to dump in one write.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One retained record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global claim sequence (total order across threads).
    pub seq: u64,
    /// Nanoseconds since the process trace epoch at recording.
    pub ts_ns: u64,
    /// Hash of the recording thread's id.
    pub thread: u64,
    /// Record category (`"request"`, `"epoch"`, `"checkpoint"`,
    /// `"error"`, `"lifecycle"`, ...).
    pub kind: &'static str,
    /// Short name within the category (a request kind, a marker name).
    pub name: String,
    /// Free-form detail, already formatted.
    pub detail: String,
}

impl FlightRecord {
    /// Renders the record as one JSONL object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::object(vec![
            ("seq".to_string(), Json::Number(self.seq as f64)),
            ("ts_ns".to_string(), Json::Number(self.ts_ns as f64)),
            ("thread".to_string(), Json::Number(self.thread as f64)),
            ("kind".to_string(), Json::String(self.kind.to_string())),
            ("name".to_string(), Json::String(self.name.clone())),
            ("detail".to_string(), Json::String(self.detail.clone())),
        ])
    }
}

/// A fixed-capacity ring of [`FlightRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightRecord>>>,
    head: AtomicU64,
}

impl FlightRecorder {
    /// Builds a recorder retaining the last `capacity` records
    /// (`capacity` is clamped to at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records claimed so far (monotone; not clamped to capacity).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        let claimed = self.recorded();
        usize::try_from(claimed)
            .unwrap_or(usize::MAX)
            .min(self.capacity())
    }

    /// True when nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0
    }

    /// Appends one record, evicting the oldest when the ring is full.
    pub fn record(&self, kind: &'static str, name: &str, detail: String) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let record = FlightRecord {
            seq,
            ts_ns: trace_epoch_ns(),
            thread: current_thread_hash(),
            kind,
            name: name.to_string(),
            detail,
        };
        let slot = usize::try_from(seq % self.slots.len() as u64).unwrap_or(0);
        *self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(record);
    }

    /// The retained records, oldest first (sorted by claim sequence).
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut records: Vec<FlightRecord> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        records.sort_by_key(|record| record.seq);
        records
    }

    /// Renders the retained records as JSONL, oldest first.
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.snapshot() {
            out.push_str(&record.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Dumps the retained records to `path` as JSONL, returning how many
    /// were written.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem write failure.
    pub fn dump_to(&self, path: &Path) -> io::Result<usize> {
        let jsonl = self.render_jsonl();
        persist(path, &jsonl)?;
        Ok(jsonl.lines().count())
    }
}

/// The single point where flight-recorder bytes reach the filesystem:
/// the panic hook, the shutdown path and the `debug-dump` request all
/// dump through here.
// analyzer: trust(io): the flight recorder's only filesystem write; it persists observability records post-hoc and nothing it writes ever flows back into simulation state
fn persist(path: &Path, jsonl: &str) -> io::Result<()> {
    std::fs::write(path, jsonl)
}

/// The process-global recorder ([`DEFAULT_CAPACITY`] slots).
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

/// Records into the global ring while a dump path is configured — a
/// ring nothing can dump is never filled. `detail` is only built while
/// recording, so instrumented paths pay one atomic load when it is off.
pub fn record(kind: &'static str, name: &str, detail: impl FnOnce() -> String) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    global().record(kind, name, detail());
}

/// Where [`dump`] writes (set once by the daemon CLI from
/// `--flight-dump`; `None` disables dumping and recording).
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Mirrors `DUMP_PATH.is_some()` so [`record`] stays one atomic load.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Configures the global dump destination; `Some` turns recording on,
/// `None` turns it off.
pub fn set_dump_path(path: Option<PathBuf>) {
    let mut dump_path = DUMP_PATH.lock().unwrap_or_else(PoisonError::into_inner);
    RECORDING.store(path.is_some(), Ordering::Relaxed);
    *dump_path = path;
}

/// The configured dump destination, if any.
#[must_use]
pub fn dump_path() -> Option<PathBuf> {
    DUMP_PATH
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Dumps the global recorder to the configured path. Returns
/// `Ok(None)` when no path is configured, otherwise the path written
/// and the number of records.
///
/// # Errors
///
/// Propagates the filesystem write failure.
pub fn dump() -> io::Result<Option<(PathBuf, usize)>> {
    match dump_path() {
        None => Ok(None),
        Some(path) => {
            let written = global().dump_to(&path)?;
            Ok(Some((path, written)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_newest_records_in_order() {
        let ring = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            ring.record("test", "tick", format!("i={i}"));
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.len(), 4);
        let snapshot = ring.snapshot();
        let seqs: Vec<u64> = snapshot.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest 4 of 10, oldest first");
        assert_eq!(snapshot[3].detail, "i=9");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let ring = FlightRecorder::with_capacity(8);
        assert!(ring.is_empty());
        ring.record("test", "only", String::new());
        assert_eq!(ring.len(), 1);
        let snapshot = ring.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].name, "only");
        assert_eq!(snapshot[0].kind, "test");
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let ring = FlightRecorder::with_capacity(3);
        ring.record("epoch", "advance", "epoch=1".to_string());
        ring.record("request", "plan", "chip=3 us=12.5".to_string());
        let jsonl = ring.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let doc = crate::json::parse(line).expect("flight JSONL line parses");
            assert!(doc.get("seq").and_then(Json::as_f64).is_some());
            assert!(doc.get("ts_ns").and_then(Json::as_f64).is_some());
            assert!(doc.get("kind").and_then(Json::as_str).is_some());
        }
        let second = crate::json::parse(lines[1]).expect("parses");
        assert_eq!(second.get("name").and_then(Json::as_str), Some("plan"));
        assert_eq!(
            second.get("detail").and_then(Json::as_str),
            Some("chip=3 us=12.5")
        );
    }

    #[test]
    fn dump_writes_jsonl_to_disk() {
        let ring = FlightRecorder::with_capacity(4);
        ring.record("lifecycle", "start", "test".to_string());
        let path =
            std::env::temp_dir().join(format!("selfheal-flight-dump-{}.jsonl", std::process::id()));
        let written = ring.dump_to(&path).expect("dump");
        assert_eq!(written, 1);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// Serializes the tests that set the global dump path.
    static PATH_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn global_record_follows_the_dump_path() {
        let _lock = PATH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let previous = dump_path();
        // The global ring is shared across tests; count deltas instead of
        // absolute contents.
        set_dump_path(None);
        let before = global().recorded();
        let mut built = false;
        record("test", "off", || {
            built = true;
            String::new()
        });
        assert_eq!(global().recorded(), before, "no dump path, no record");
        assert!(!built, "detail must not be built without a dump path");
        set_dump_path(Some(
            std::env::temp_dir().join("selfheal-flight-unused.jsonl"),
        ));
        record("test", "on", String::new);
        assert!(global().recorded() > before);
        set_dump_path(previous);
    }

    #[test]
    fn dump_without_a_path_is_a_no_op() {
        let _lock = PATH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let previous = dump_path();
        set_dump_path(None);
        assert_eq!(dump().expect("no-op dump"), None);
        set_dump_path(previous);
    }
}
