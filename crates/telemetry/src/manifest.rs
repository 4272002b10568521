//! Run manifests: the machine-readable summary every bench binary and
//! Study/Experiment run writes on completion.
//!
//! A manifest captures *what ran and what came out*: a hash of the
//! configuration, the source revision, per-phase wall-clock durations
//! (drained from the run thread's phase list) and a snapshot of the metrics
//! registry, plus arbitrary named result values the caller attaches.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::{self, MetricsSnapshot};
use crate::span::{self, PhaseTiming, SelfTimeEntry};

/// 64-bit FNV-1a over arbitrary bytes — the config-hash function.
///
/// Deterministic across runs and platforms (unlike `DefaultHasher`), so
/// two runs of the same configuration produce the same hash and diffs in
/// manifest files mean real config changes.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes: `fnv1a_extend(fnv1a(a), b)`
/// equals `fnv1a` of `a` followed by `b`, so large inputs can be hashed
/// piece by piece without ever being concatenated.
#[must_use]
#[inline]
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `git describe --always --dirty` for the working tree, if git and a
/// repository are available (`None` otherwise — e.g. from an unpacked
/// source tarball).
#[must_use]
pub fn git_describe() -> Option<String> {
    let output = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let trimmed = text.trim();
    (!trimmed.is_empty()).then(|| trimmed.to_string())
}

/// The completed-run record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Name of the run (bench binary, experiment or study name).
    pub name: String,
    /// FNV-1a hash (hex) of the caller's configuration debug string.
    pub config_hash: String,
    /// `git describe --always --dirty`, when available.
    pub git_describe: Option<String>,
    /// Unix timestamp (seconds) at capture.
    pub created_unix_s: u64,
    /// Per-phase wall-clock durations, in completion order.
    pub phases: Vec<PhaseTiming>,
    /// Self-time profile at capture: per folded call stack, call counts
    /// and total vs. self wall-clock (largest self time first). Unlike
    /// `phases` this is *not* drained — it is a snapshot of the ledger
    /// accumulated since the last [`crate::begin_run`].
    pub self_time: Vec<SelfTimeEntry>,
    /// Snapshot of the metrics registry at capture.
    pub metrics: MetricsSnapshot,
    /// Arbitrary named result values the caller attached.
    pub values: BTreeMap<String, Json>,
}

impl RunManifest {
    /// Captures a manifest for the named run: drains the calling thread's
    /// phase list ([`crate::begin_run`]), snapshots the metrics registry,
    /// stamps time and revision, and hashes `config_repr` (conventionally
    /// the `{config:?}` debug rendering — any stable string representation
    /// works).
    #[must_use]
    pub fn capture(name: &str, config_repr: &str) -> RunManifest {
        RunManifest {
            name: name.to_string(),
            config_hash: format!("{:016x}", fnv1a(config_repr.as_bytes())),
            git_describe: git_describe(),
            created_unix_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            phases: span::take_phase_timings(),
            self_time: span::self_time_snapshot(),
            metrics: metrics::snapshot(),
            values: BTreeMap::new(),
        }
    }

    /// Attaches a named result value (builder style).
    #[must_use]
    pub fn with_value(mut self, key: &str, value: Json) -> RunManifest {
        self.values.insert(key.to_string(), value);
        self
    }

    /// Attaches a named numeric result value (builder style).
    #[must_use]
    pub fn with_number(self, key: &str, value: f64) -> RunManifest {
        self.with_value(key, Json::Number(value))
    }

    /// The JSON representation.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let phases = Json::Array(
            self.phases
                .iter()
                .map(|p| {
                    Json::object(vec![
                        ("name".to_string(), Json::String(p.name.clone())),
                        ("wall_s".to_string(), Json::Number(p.wall_s)),
                        ("self_s".to_string(), Json::Number(p.self_s)),
                    ])
                })
                .collect(),
        );
        let self_time = Json::Array(
            self.self_time
                .iter()
                .map(|e| {
                    Json::object(vec![
                        ("stack".to_string(), Json::String(e.stack.clone())),
                        ("name".to_string(), Json::String(e.name.clone())),
                        ("count".to_string(), Json::Number(e.count as f64)),
                        ("total_ns".to_string(), Json::Number(e.total_ns as f64)),
                        ("self_ns".to_string(), Json::Number(e.self_ns as f64)),
                    ])
                })
                .collect(),
        );
        Json::object(vec![
            ("name".to_string(), Json::String(self.name.clone())),
            (
                "config_hash".to_string(),
                Json::String(self.config_hash.clone()),
            ),
            (
                "git_describe".to_string(),
                self.git_describe
                    .as_ref()
                    .map_or(Json::Null, |d| Json::String(d.clone())),
            ),
            (
                "created_unix_s".to_string(),
                Json::Number(self.created_unix_s as f64),
            ),
            ("phases".to_string(), phases),
            ("self_time".to_string(), self_time),
            ("metrics".to_string(), self.metrics.to_json()),
            (
                "values".to_string(),
                Json::object(self.values.clone().into_iter().collect()),
            ),
        ])
    }

    /// Pretty-printed JSON (what `--json` prints and `write_to` stores).
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Writes the manifest to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write errors.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn capture_drains_phases_and_hashes_config() {
        span::record_phases_here(); // isolate from earlier tests
        {
            let _phase = Span::enter("warmup", Vec::new());
        }
        let manifest =
            RunManifest::capture("test_run", "Config { x: 1 }").with_number("answer", 42.0);
        assert_eq!(manifest.name, "test_run");
        assert_eq!(manifest.config_hash.len(), 16);
        assert_eq!(manifest.phases.len(), 1);
        assert_eq!(manifest.phases[0].name, "warmup");
        // Same config → same hash; different config → different hash.
        let again = RunManifest::capture("test_run", "Config { x: 1 }");
        assert_eq!(manifest.config_hash, again.config_hash);
        let other = RunManifest::capture("test_run", "Config { x: 2 }");
        assert_ne!(manifest.config_hash, other.config_hash);
        // The attached value round-trips through JSON.
        let json = manifest.to_json();
        assert_eq!(
            json.get("values")
                .and_then(|v| v.get("answer"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
    }

    #[test]
    fn manifest_json_round_trips_through_the_parser() {
        span::record_phases_here();
        {
            let _phase = Span::enter("measure", Vec::new());
        }
        let manifest = RunManifest::capture("roundtrip", "cfg").with_number("metric_x", 1.25);
        let rendered = manifest.render();
        let parsed = crate::json::parse(&rendered).expect("manifest parses");
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("roundtrip"));
        let phases = parsed
            .get("phases")
            .and_then(Json::as_array)
            .expect("test value");
        assert_eq!(phases.len(), 1);
        assert_eq!(
            phases[0].get("name").and_then(Json::as_str),
            Some("measure")
        );
    }

    #[test]
    fn write_to_creates_parent_directories() {
        let dir = crate::sink::scratch_path(&format!(
            "selfheal-manifest-test-{}",
            crate::event::current_thread_hash()
        ));
        let path = dir.join("nested").join("manifest.json");
        let manifest = RunManifest::capture("writer", "cfg");
        manifest.write_to(&path).expect("write manifest");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(crate::json::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
