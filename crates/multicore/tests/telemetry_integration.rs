//! Integration check for the simulator's telemetry contract: every call
//! to [`MulticoreSim::step`] emits exactly one `multicore.scheduler.decision`
//! point event, and the step counter tracks it.

use selfheal_multicore::scheduler::HeaterAware;
use selfheal_multicore::sim::{MulticoreSim, SimConfig};
use selfheal_multicore::workload::Workload;
use selfheal_telemetry as telemetry;
use selfheal_telemetry::{EventKind, FieldValue, Metric};

#[test]
fn one_scheduler_decision_event_per_sim_step() {
    let memory = telemetry::MemorySink::new();
    let _guard = telemetry::install_sink(memory.clone());
    telemetry::metrics::reset();
    telemetry::metrics::set_enabled(true);

    let steps = 17;
    let mut sim = MulticoreSim::new(
        SimConfig::default(),
        Box::new(HeaterAware::paper_default()),
        Workload::constant(6),
    );
    for _ in 0..steps {
        sim.step();
    }

    let events = memory.drain_current_thread();
    let decisions: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Point && e.name == "multicore.scheduler.decision")
        .collect();
    assert_eq!(
        decisions.len(),
        steps,
        "expected exactly one scheduler-decision event per step"
    );

    // Each decision carries the demand/active/scheduler fields.
    for event in &decisions {
        let field = |key: &str| {
            event
                .fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        assert!(matches!(field("t_s"), Some(FieldValue::F64(t)) if t > 0.0));
        assert_eq!(field("demand"), Some(FieldValue::U64(6)));
        assert!(matches!(field("active"), Some(FieldValue::U64(_))));
        assert_eq!(
            field("scheduler"),
            Some(FieldValue::Str("heater-aware".to_string())),
        );
    }

    // And the metrics registry saw the same number of steps.
    let snapshot = telemetry::metrics::snapshot();
    assert_eq!(
        snapshot.get("multicore.sim.steps"),
        Some(&Metric::Counter(f64::from(steps as u32))),
    );
    assert!(
        matches!(
            snapshot.get("multicore.worst_delta_vth_mv"),
            Some(Metric::Histogram(h)) if h.count() == steps as u64 && h.min() >= Some(0.0)
        ),
        "the worst core is observed once per step"
    );
    telemetry::metrics::set_enabled(false);
}
