//! The pool's registry gauges move while a batch runs and are exact once
//! it returns. A single test in its own binary: the metrics registry is
//! process-global.

use std::time::Duration;

use selfheal_runtime::Pool;
use selfheal_telemetry::metrics::{self, Metric};

fn gauge(name: &str) -> Option<f64> {
    match metrics::snapshot().get(name) {
        Some(Metric::Gauge(value)) => Some(*value),
        _ => None,
    }
}

#[test]
fn pool_gauges_are_live_during_a_batch_and_exact_after_it() {
    metrics::set_enabled(true);
    let pool = Pool::new(2);
    let seen = pool.par_chunks((0..8u32).collect(), 1, |_, _| {
        std::thread::sleep(Duration::from_millis(5));
        vec![gauge("runtime.pool.jobs_executed_total").unwrap_or(0.0)]
    });
    assert!(
        seen.iter().any(|&executed| executed >= 1.0),
        "no job saw an earlier job counted: {seen:?}"
    );
    assert_eq!(gauge("runtime.pool.queue_depth"), Some(0.0));
    #[allow(clippy::cast_precision_loss)]
    let (executed, steals) = (pool.executed_count() as f64, pool.steal_count() as f64);
    assert_eq!(executed, 8.0);
    assert_eq!(gauge("runtime.pool.jobs_executed_total"), Some(executed));
    assert_eq!(gauge("runtime.pool.steals_total"), Some(steals));
}
