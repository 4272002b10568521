//! Round-trip test for the Chrome trace exporter: spans, instants and
//! counter samples emitted through [`ChromeTraceSink`] must come back as
//! schema-valid trace-event JSON — balanced `B`/`E` pairs, thread-scoped
//! instants, named per-thread rows, and non-decreasing timestamps within
//! each row (about://tracing rejects out-of-order rows silently).

use std::collections::BTreeMap;
use std::sync::Arc;

use selfheal_telemetry::{self as telemetry, json, ChromeTraceSink, Json};

/// The per-row timestamp/phase payload of one trace event.
struct Row {
    ph: String,
    ts_us: f64,
    scope: Option<String>,
}

fn tid_of(event: &Json) -> Option<i64> {
    #[allow(clippy::cast_possible_truncation)]
    event.get("tid").and_then(Json::as_f64).map(|t| t as i64)
}

#[test]
fn trace_file_round_trips_with_balanced_spans() {
    let path = telemetry::sink::scratch_path("selfheal_trace_roundtrip.trace.json");
    let sink = ChromeTraceSink::create(&path).expect("trace sink creates its file eagerly");
    let _guard = telemetry::install_sink(Arc::new(sink));
    telemetry::register_thread_name("rt-main");

    {
        let _outer = telemetry::span!("rt.outer");
        {
            let _inner = telemetry::span!("rt.inner", step = 1u64);
            telemetry::event!("rt.instant", tick = 7u64);
        }
        telemetry::trace_counter!("rt.queue_depth", 3.0);
    }

    // Two extra "workers": every emitting thread gets its own timeline row.
    let workers: Vec<_> = (0u64..2)
        .map(|w| {
            std::thread::spawn(move || {
                telemetry::register_thread_name(&format!("rt-worker-{w}"));
                let _span = telemetry::span!("rt.work", worker = w);
                telemetry::event!("rt.instant", tick = w);
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker thread panicked");
    }

    telemetry::flush_all();
    let text = std::fs::read_to_string(&path).expect("trace file written on flush");
    let doc = json::parse(&text).expect("trace file is valid JSON");

    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "trace document declares its display unit"
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("top-level traceEvents array");

    // Thread-name metadata rows map compact tids back to our registrations.
    let mut names: BTreeMap<i64, String> = BTreeMap::new();
    for event in events {
        if event.get("ph").and_then(Json::as_str) == Some("M")
            && event.get("name").and_then(Json::as_str) == Some("thread_name")
        {
            let tid = tid_of(event).expect("metadata row has a tid");
            let name = event
                .get("args")
                .and_then(|args| args.get("name"))
                .and_then(Json::as_str)
                .expect("thread_name metadata carries args.name");
            names.insert(tid, name.to_string());
        }
    }
    let ours: BTreeMap<i64, &String> = names
        .iter()
        .filter(|(_, name)| name.starts_with("rt-"))
        .map(|(tid, name)| (*tid, name))
        .collect();
    assert_eq!(
        ours.len(),
        3,
        "main thread + 2 workers each get a named row, got {names:?}"
    );

    // Per row: balanced B/E nesting, non-decreasing timestamps, pid 1.
    for (&tid, row_name) in &ours {
        let rows: Vec<Row> = events
            .iter()
            .filter(|event| tid_of(event) == Some(tid))
            .filter(|event| event.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|event| {
                assert_eq!(
                    event.get("pid").and_then(Json::as_f64),
                    Some(1.0),
                    "{row_name}: single-process trace"
                );
                Row {
                    ph: event
                        .get("ph")
                        .and_then(Json::as_str)
                        .expect("ph")
                        .to_string(),
                    ts_us: event.get("ts").and_then(Json::as_f64).expect("ts"),
                    scope: event.get("s").and_then(Json::as_str).map(str::to_string),
                }
            })
            .collect();
        assert!(!rows.is_empty(), "{row_name}: row recorded no events");

        let mut depth = 0i64;
        let mut last_ts = f64::NEG_INFINITY;
        for row in &rows {
            assert!(
                row.ts_us >= last_ts,
                "{row_name}: timestamps must be non-decreasing within a row"
            );
            last_ts = row.ts_us;
            match row.ph.as_str() {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "{row_name}: E with no matching B");
                }
                "i" => assert_eq!(
                    row.scope.as_deref(),
                    Some("t"),
                    "{row_name}: instants are thread-scoped"
                ),
                "C" => {}
                other => panic!("{row_name}: unexpected phase {other:?}"),
            }
        }
        assert_eq!(depth, 0, "{row_name}: unbalanced B/E pairs");
    }

    // The counter track carries its sampled value in args.
    let counter = events
        .iter()
        .find(|event| {
            event.get("ph").and_then(Json::as_str) == Some("C")
                && event.get("name").and_then(Json::as_str) == Some("rt.queue_depth")
        })
        .expect("counter event present");
    assert_eq!(
        counter
            .get("args")
            .and_then(|args| args.get("value"))
            .and_then(Json::as_f64),
        Some(3.0),
        "counter args carry the sampled value"
    );
}
