//! `trace_merge`: join per-process Chrome trace files into one document.
//!
//! Each selfheal process exports its trace against its *own* epoch
//! (`trace_epoch_ns` is per-process), so a client trace and a daemon
//! trace of the same run disagree about absolute time and both claim
//! `pid` 1. This tool concatenates them into a single Perfetto-loadable
//! file: every input gets its own pid (named after the file), and every
//! non-reference file's timestamps are re-based onto the first file's
//! clock.
//!
//! The re-basing uses the cross-process flow arrows the fleet protocol
//! emits (`fleet.rpc` client→daemon, `fleet.reply` daemon→client).
//! Every arrow gives a one-sided bound on the clock offset — the
//! consuming end cannot precede the producing end — so arrows in both
//! directions bracket the true offset exactly like an NTP exchange;
//! the midpoint of the bracket is the estimate. With arrows in only one
//! direction the tight bound is used; with no shared flows at all the
//! files are aligned at their earliest events.
//!
//! ```text
//! trace_merge --out merged.json client.json daemon.json
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use selfheal_telemetry::{json, Json};

const USAGE: &str = "usage: trace_merge --out MERGED.json TRACE.json TRACE.json [...]";

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => return fail("--out needs a value"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown flag {other}\n{USAGE}"));
            }
            path => inputs.push(PathBuf::from(path)),
        }
    }
    let Some(out) = out else {
        return fail(&format!("--out is required\n{USAGE}"));
    };
    if inputs.len() < 2 {
        return fail(&format!("need at least two input traces\n{USAGE}"));
    }

    let mut files = Vec::with_capacity(inputs.len());
    for path in &inputs {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => return fail(&format!("cannot read {}: {err}", path.display())),
        };
        let doc = match json::parse(&text) {
            Ok(doc) => doc,
            Err(err) => {
                return fail(&format!("{} is not JSON: {err:?}", path.display()));
            }
        };
        files.push((label_of(path), doc));
    }
    let merged = match merge(&files) {
        Ok(merged) => merged,
        Err(problem) => return fail(&problem),
    };
    if let Err(err) = std::fs::write(&out, merged.render()) {
        return fail(&format!("cannot write {}: {err}", out.display()));
    }
    eprintln!(
        "trace_merge: merged {} trace(s) into {}",
        files.len(),
        out.display()
    );
    ExitCode::SUCCESS
}

fn fail(problem: &str) -> ExitCode {
    eprintln!("trace_merge: {problem}");
    ExitCode::FAILURE
}

/// The pid label for an input: its file stem.
fn label_of(path: &Path) -> String {
    path.file_stem().map_or_else(
        || path.display().to_string(),
        |s| s.to_string_lossy().into_owned(),
    )
}

/// One flow endpoint: `(name, id, ts_us)`.
type FlowPoint = (String, f64, f64);

/// Collects flow starts (`ph: "s"`) and ends (`ph: "f"`) of a trace.
fn flow_points(events: &[Json]) -> (Vec<FlowPoint>, Vec<FlowPoint>) {
    let mut starts = Vec::new();
    let mut ends = Vec::new();
    for event in events {
        let (Some(ph), Some(name), Some(id), Some(ts)) = (
            event.get("ph").and_then(Json::as_str),
            event.get("name").and_then(Json::as_str),
            event.get("id").and_then(Json::as_f64),
            event.get("ts").and_then(Json::as_f64),
        ) else {
            continue;
        };
        match ph {
            "s" => starts.push((name.to_string(), id, ts)),
            "f" => ends.push((name.to_string(), id, ts)),
            _ => {}
        }
    }
    (starts, ends)
}

/// Earliest timestamp of any timestamped event.
fn first_ts(events: &[Json]) -> Option<f64> {
    events
        .iter()
        .filter_map(|e| e.get("ts").and_then(Json::as_f64))
        .fold(None, |best, ts| Some(best.map_or(ts, |b: f64| b.min(ts))))
}

/// Estimates the offset (µs) to add to `other`'s timestamps so they land
/// on `reference`'s clock.
///
/// A flow arrow produced in `reference` and consumed in `other` forces
/// `ts_consume + offset >= ts_produce` — a lower bound; an arrow in the
/// opposite direction forces an upper bound. Bounds from both directions
/// bracket the offset (request/reply round trips always give both) and
/// the midpoint splits the residual network latency evenly, like NTP.
fn estimate_offset(reference: &[Json], other: &[Json]) -> f64 {
    let (ref_starts, ref_ends) = flow_points(reference);
    let (other_starts, other_ends) = flow_points(other);
    let mut lower: Option<f64> = None;
    let mut upper: Option<f64> = None;
    for (name, id, produced) in &ref_starts {
        for (other_name, other_id, consumed) in &other_ends {
            if name == other_name && id == other_id {
                let bound = produced - consumed;
                lower = Some(lower.map_or(bound, |l: f64| l.max(bound)));
            }
        }
    }
    for (name, id, produced) in &other_starts {
        for (ref_name, ref_id, consumed) in &ref_ends {
            if name == ref_name && id == ref_id {
                let bound = consumed - produced;
                upper = Some(upper.map_or(bound, |u: f64| u.min(bound)));
            }
        }
    }
    match (lower, upper) {
        (Some(l), Some(u)) if l <= u => f64::midpoint(l, u),
        // Inconsistent bounds (clock drift beyond the round trip):
        // honour causality of ref-produced arrows first.
        (Some(l), _) => l,
        (None, Some(u)) => u,
        (None, None) => match (first_ts(reference), first_ts(other)) {
            (Some(r), Some(o)) => r - o,
            _ => 0.0,
        },
    }
}

/// The `traceEvents` array of a parsed trace document.
fn events_of(doc: &Json) -> Result<&[Json], String> {
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| "input has no traceEvents array".to_string())
}

/// Merges parsed `(label, document)` traces: file `k` becomes pid `k+1`
/// (named `label`), and every file after the first is re-based onto the
/// first file's clock via [`estimate_offset`].
fn merge(files: &[(String, Json)]) -> Result<Json, String> {
    let reference = events_of(&files[0].1)?;
    let mut merged: Vec<Json> = Vec::new();
    for (k, (label, doc)) in files.iter().enumerate() {
        let events = events_of(doc)?;
        let offset = if k == 0 {
            0.0
        } else {
            estimate_offset(reference, events)
        };
        #[allow(clippy::cast_precision_loss)]
        let pid = (k + 1) as f64;
        for event in events {
            let Json::Object(fields) = event else {
                continue;
            };
            // Drop per-file process_name rows; a merged row per file is
            // appended below with the file's own label.
            if fields.get("name").and_then(Json::as_str) == Some("process_name") {
                continue;
            }
            let mut fields = fields.clone();
            fields.insert("pid".to_string(), Json::Number(pid));
            if let Some(ts) = fields.get("ts").and_then(Json::as_f64) {
                fields.insert("ts".to_string(), Json::Number(ts + offset));
            }
            merged.push(Json::Object(fields));
        }
        merged.push(Json::object(vec![
            ("name".to_string(), Json::String("process_name".to_string())),
            ("ph".to_string(), Json::String("M".to_string())),
            ("pid".to_string(), Json::Number(pid)),
            (
                "args".to_string(),
                Json::object(vec![("name".to_string(), Json::String(label.clone()))]),
            ),
        ]));
    }
    Ok(Json::object(vec![
        ("traceEvents".to_string(), Json::Array(merged)),
        (
            "displayTimeUnit".to_string(),
            Json::String("ms".to_string()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(ph: &str, name: &str, id: f64, ts: f64) -> Json {
        Json::object(vec![
            ("name".to_string(), Json::String(name.to_string())),
            ("ph".to_string(), Json::String(ph.to_string())),
            ("cat".to_string(), Json::String("flow".to_string())),
            ("id".to_string(), Json::Number(id)),
            ("ts".to_string(), Json::Number(ts)),
            ("pid".to_string(), Json::Number(1.0)),
            ("tid".to_string(), Json::Number(0.0)),
        ])
    }

    fn trace(events: Vec<Json>) -> Json {
        Json::object(vec![
            ("traceEvents".to_string(), Json::Array(events)),
            (
                "displayTimeUnit".to_string(),
                Json::String("ms".to_string()),
            ),
        ])
    }

    #[test]
    fn round_trip_flow_pairs_bracket_the_offset() {
        // Client clock: rpc sent at 1000, reply received at 1400.
        // Daemon clock: rpc received at 100, reply sent at 300.
        // True offset is bracketed by [1000-100, 1400-300] = [900, 1100];
        // the midpoint estimate is 1000.
        let client = vec![
            flow("s", "fleet.rpc", 7.0, 1000.0),
            flow("f", "fleet.reply", 9.0, 1400.0),
        ];
        let daemon = vec![
            flow("f", "fleet.rpc", 7.0, 100.0),
            flow("s", "fleet.reply", 9.0, 300.0),
        ];
        let offset = estimate_offset(&client, &daemon);
        assert!((offset - 1000.0).abs() < 1e-9, "got {offset}");
    }

    #[test]
    fn disjoint_traces_align_at_their_first_events() {
        let a = vec![flow("s", "x", 1.0, 500.0)];
        let b = vec![flow("s", "y", 2.0, 9000.0)];
        let offset = estimate_offset(&a, &b);
        assert!((offset - (500.0 - 9000.0)).abs() < 1e-9, "got {offset}");
    }

    #[test]
    fn merge_rebases_assigns_pids_and_names_processes() {
        let client = trace(vec![
            flow("s", "fleet.rpc", 7.0, 1000.0),
            flow("f", "fleet.reply", 9.0, 1400.0),
        ]);
        let daemon = trace(vec![
            flow("f", "fleet.rpc", 7.0, 100.0),
            flow("s", "fleet.reply", 9.0, 300.0),
        ]);
        let merged = merge(&[
            ("client".to_string(), client),
            ("daemon".to_string(), daemon),
        ])
        .expect("merges");
        let events = merged
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");

        // The daemon's rpc arrival (100 on its clock) lands at 1100 on
        // the merged clock — after the client sent it at 1000.
        let rpc_end = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("f")
                    && e.get("name").and_then(Json::as_str) == Some("fleet.rpc")
            })
            .expect("daemon rpc end present");
        assert_eq!(rpc_end.get("pid").and_then(Json::as_f64), Some(2.0));
        let ts = rpc_end.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(ts >= 1000.0, "consume precedes produce after merge: {ts}");

        // Both processes are named after their files.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, vec!["client", "daemon"]);

        // Each flow id still appears as one s/f pair, now under
        // different pids — the cross-process arrow Perfetto draws.
        for id in [7.0, 9.0] {
            let pids: Vec<f64> = events
                .iter()
                .filter(|e| e.get("id").and_then(Json::as_f64) == Some(id))
                .filter_map(|e| e.get("pid").and_then(Json::as_f64))
                .collect();
            assert_eq!(pids.len(), 2, "flow {id} keeps both endpoints");
            assert_ne!(pids[0], pids[1], "flow {id} spans processes");
        }
    }

    #[test]
    fn merge_rejects_documents_without_events() {
        let bad = Json::object(vec![("nope".to_string(), Json::Null)]);
        assert!(merge(&[("a".to_string(), bad.clone()), ("b".to_string(), bad)]).is_err());
    }
}
