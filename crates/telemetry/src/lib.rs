//! selfheal-telemetry: zero-dependency observability for the self-healing
//! simulation stack.
//!
//! Three cooperating layers, all off by default and gated behind single
//! atomic loads so instrumented hot paths cost nothing when unobserved:
//!
//! * **Spans** ([`span!`]) — hierarchical wall-clock timed regions with
//!   key=value fields, broadcast to pluggable [`Sink`]s (stderr
//!   pretty-printer, JSONL file, in-memory collector for tests).
//!   A run thread's ([`begin_run`]) root spans are its manifest's phases.
//! * **Metrics** ([`counter!`], [`gauge!`], [`histogram!`]) — named
//!   aggregates (trap occupancy, RO frequency, per-core `ΔVth`, scheduler
//!   decisions) in a process-global registry.
//! * **Manifests** ([`RunManifest`]) — the end-of-run record: config
//!   hash, git revision, per-phase durations and a metrics snapshot.
//!
//! Sinks are configured programmatically ([`install_sink`]) or from the
//! `SELFHEAL_TELEMETRY` environment variable ([`init_from_env`]):
//!
//! ```text
//! SELFHEAL_TELEMETRY=pretty               # human-readable span tree on stderr
//! SELFHEAL_TELEMETRY=jsonl:out.jsonl      # one JSON object per event
//! SELFHEAL_TELEMETRY=trace:out.json       # Chrome/Perfetto trace export
//! SELFHEAL_TELEMETRY=pretty,trace:t.json  # comma-separated: several at once
//! ```
//!
//! A fourth layer streams the registry while the run is still going:
//! the [`timeseries`] module's background sampler snapshots it at a
//! `SELFHEAL_TELEMETRY_SAMPLE` cadence into a Prometheus
//! text-exposition status file that `selfheal-top` tails.
//!
//! # Example
//!
//! ```
//! use selfheal_telemetry as telemetry;
//!
//! let sink = telemetry::MemorySink::new();
//! let _guard = telemetry::install_sink(sink.clone());
//! telemetry::metrics::set_enabled(true);
//! telemetry::begin_run(); // this thread's root spans become the manifest's phases
//!
//! {
//!     let _phase = telemetry::span!("recovery_phase", vddr_mv = -300.0);
//!     telemetry::counter!("doc.heal_cycles", 1.0);
//!     telemetry::event!("chamber.set", celsius = 85.0);
//! }
//!
//! let events = sink.drain_current_thread();
//! assert_eq!(events.len(), 3); // span_start, point event, span_end
//! let manifest = telemetry::RunManifest::capture("doc", "config");
//! assert_eq!(manifest.phases[0].name, "recovery_phase");
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod flight;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod timeseries;

pub use event::{
    current_thread_hash, register_thread_name, thread_name, trace_epoch_ns, Event, EventKind,
    Field, FieldValue,
};
pub use flight::{FlightRecord, FlightRecorder};
pub use json::Json;
pub use manifest::{fnv1a, fnv1a_extend, git_describe, RunManifest};
pub use metrics::{counter_add, gauge_set, histogram_observe, Histogram, Metric, MetricsSnapshot};
pub use sink::{
    events_enabled, flush_all, init_from_env, install_sink, ChromeTraceSink, JsonlSink,
    MemorySink, Sink, SinkGuard, StderrSink, ENV_VAR,
};
pub use span::{
    begin_run, render_folded, self_time_snapshot, take_phase_timings, PhaseTiming,
    SelfTimeEntry, Span,
};
pub use timeseries::{
    interval_from_env, parse_exposition, parse_interval, render_exposition, Exposition, Sampler,
    SAMPLE_ENV_VAR,
};

/// True when any telemetry consumer is active: a sink is installed or the
/// metrics registry is recording. Span guards arm themselves on this (the
/// phase list must fill whenever a manifest will be captured), so bench
/// binaries call [`metrics::set_enabled`] even when no sink is attached.
#[must_use]
pub fn telemetry_enabled() -> bool {
    sink::events_enabled() || metrics::enabled()
}

/// Emits a point event attached to the current span. Prefer the
/// [`event!`] macro, which skips field construction when no sink is
/// installed.
pub fn emit_point(name: &str, fields: Vec<Field>) {
    if !sink::events_enabled() {
        return;
    }
    let (span_id, depth) = span::current_span_id();
    sink::dispatch(&Event {
        kind: EventKind::Point,
        name: name.to_string(),
        span_id,
        parent_id: span_id,
        depth,
        seq: sink::next_seq(),
        ts_ns: event::trace_epoch_ns(),
        thread: current_thread_hash(),
        wall_ns: None,
        fields: fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    });
}

/// Emits a counter-sample event (a point on a counter track in trace
/// exports). Prefer the [`trace_counter!`] macro, which skips value
/// evaluation when no sink is installed.
pub fn emit_counter(name: &str, value: f64) {
    if !sink::events_enabled() {
        return;
    }
    let (span_id, depth) = span::current_span_id();
    sink::dispatch(&Event {
        kind: EventKind::Counter,
        name: name.to_string(),
        span_id,
        parent_id: span_id,
        depth,
        seq: sink::next_seq(),
        ts_ns: event::trace_epoch_ns(),
        thread: current_thread_hash(),
        wall_ns: None,
        fields: vec![("value".to_string(), FieldValue::F64(value))],
    });
}

/// Allocates a process-unique id pairing one [`emit_flow_start`] with
/// its [`emit_flow_end`].
#[must_use]
pub fn next_flow_id() -> u64 {
    static NEXT_FLOW_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT_FLOW_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Emits the producing end of an async flow (work enqueued here). Trace
/// exports render the start/end pair as an arrow from the enqueue site
/// to wherever [`emit_flow_end`] fires with the same `flow_id`.
pub fn emit_flow_start(name: &str, flow_id: u64) {
    emit_flow(EventKind::FlowStart, name, flow_id);
}

/// Emits the consuming end of an async flow (enqueued work ran here).
pub fn emit_flow_end(name: &str, flow_id: u64) {
    emit_flow(EventKind::FlowEnd, name, flow_id);
}

fn emit_flow(kind: EventKind, name: &str, flow_id: u64) {
    if !sink::events_enabled() {
        return;
    }
    let (span_id, depth) = span::current_span_id();
    sink::dispatch(&Event {
        kind,
        name: name.to_string(),
        span_id,
        parent_id: span_id,
        depth,
        seq: sink::next_seq(),
        ts_ns: event::trace_epoch_ns(),
        thread: current_thread_hash(),
        wall_ns: None,
        fields: vec![("flow_id".to_string(), FieldValue::U64(flow_id))],
    });
}

/// Opens a timed span: `span!("recovery_phase", vddr_mv = -300.0)`.
///
/// Binds the returned guard (`let _phase = span!(...)`); the span closes
/// when the guard drops. Field values are any type with
/// `Into<FieldValue>` (floats, integers, bools, strings) and are not even
/// evaluated while telemetry is off.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::telemetry_enabled() {
            $crate::Span::enter(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Emits an instantaneous point event: `event!("chamber.set", celsius = 85.0)`.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::events_enabled() {
            $crate::emit_point(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Samples a value onto a named counter *track* for trace exports:
/// `trace_counter!("runtime.pool.queue_depth", depth)`. Unlike
/// [`counter!`] (a metrics-registry aggregate), this emits a timestamped
/// event that the Chrome trace sink renders as a counter graph; the value
/// expression is not evaluated while no sink is installed.
#[macro_export]
macro_rules! trace_counter {
    ($name:expr, $value:expr $(,)?) => {
        if $crate::events_enabled() {
            $crate::emit_counter($name, f64::from($value));
        }
    };
}

/// Adds to a named counter: `counter!("bti.td.emission_events", n)`.
/// The delta expression is not evaluated while metrics are off.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr $(,)?) => {
        if $crate::metrics::enabled() {
            $crate::metrics::counter_add($name, f64::from($delta));
        }
    };
}

/// Sets a named gauge: `gauge!("fleet.epoch", epoch)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr $(,)?) => {
        if $crate::metrics::enabled() {
            $crate::metrics::gauge_set($name, f64::from($value));
        }
    };
}

/// Observes into a named mergeable log-bucketed histogram:
/// `histogram!("fpga.ro.frequency_mhz", mhz)`. Buckets are geometric
/// (≈ 4.4 % relative width), so no per-site bounds are needed.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr $(,)?) => {
        if $crate::metrics::enabled() {
            $crate::metrics::histogram_observe($name, f64::from($value));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_are_inert_when_telemetry_is_off() {
        // No sink installed on this thread's view and metrics toggled off:
        // the span macro must hand back a disarmed guard and the metric
        // macros must not evaluate their value expressions.
        metrics::set_enabled(false);
        if sink::events_enabled() {
            // Another test currently holds a sink; skip the inertness
            // check rather than racing it.
            metrics::set_enabled(true);
            return;
        }
        let mut evaluated = false;
        let span = span!("off", x = 1.0);
        assert_eq!(span.id(), 0);
        counter!("test.lib.never", {
            evaluated = true;
            1.0
        });
        assert!(!evaluated, "counter! must not evaluate its delta when off");
        metrics::set_enabled(true);
    }

    #[test]
    fn span_macro_records_fields_and_nesting() {
        let memory = MemorySink::new();
        let _guard = install_sink(memory.clone());
        {
            let _outer = span!("macro_outer", mode = "dvs", cores = 4usize);
            event!("macro_point", ok = true);
        }
        let events = memory.drain_current_thread();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(
            events[0].fields,
            vec![
                ("mode".to_string(), FieldValue::Str("dvs".to_string())),
                ("cores".to_string(), FieldValue::U64(4)),
            ]
        );
        let point = &events[1];
        assert_eq!(point.kind, EventKind::Point);
        assert_eq!(point.span_id, events[0].span_id);
        assert_eq!(point.depth, 1, "point sits inside the open span");
    }

    #[test]
    fn metric_macros_feed_the_registry() {
        metrics::set_enabled(true);
        counter!("test.lib.counter", 2.0);
        gauge!("test.lib.gauge", 7.5);
        histogram!("test.lib.hist", 3.0);
        let snap = metrics::snapshot();
        assert_eq!(snap.get("test.lib.counter"), Some(&Metric::Counter(2.0)));
        assert_eq!(snap.get("test.lib.gauge"), Some(&Metric::Gauge(7.5)));
        assert!(matches!(
            snap.get("test.lib.hist"),
            Some(&Metric::Histogram(_))
        ));
    }
}
