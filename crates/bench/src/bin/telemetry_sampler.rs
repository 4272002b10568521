//! Sampler-overhead microbenchmark: the Fig. 5 stress workload with the
//! status-file sampler off vs on.
//!
//! The sampler thread snapshots the metrics registry at its cadence and
//! rewrites a scratch status file while the workload hammers the same
//! registry from the hot loop; this bench pins the cost of that
//! contention. `perf_ledger` records and
//! gates the `off_ms` and `on_ms` durations in
//! `bench_history/telemetry_sampler.jsonl` (`overhead_pct` is not a
//! duration, so it is neither), catching the sampler ever becoming
//! non-negligible:
//!
//! ```text
//! cargo run -q --release -p selfheal-bench --bin perf_ledger -- \
//!     --repeats 5 -- target/release/telemetry_sampler --json
//! ```

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_bti::td::{PhaseRates, TrapBank, TrapEnsembleParams};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_telemetry::sink::scratch_path;
use selfheal_telemetry::Sampler;
use selfheal_units::{Celsius, Minutes, Seconds, Volts};

/// Ensemble size: the kernel bench's headline size.
const TRAPS: usize = 10_000;
/// Phase steps advanced per timed pass.
const STEPS: usize = 200;
/// An aggressive cadence (25× the 250 ms default), so the measured
/// overhead upper-bounds ordinary configurations.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// A bank of exactly `TRAPS` traps from the default 40 nm
/// distributions (same construction as the `trap_kernel` bench).
fn bank(seed: u64) -> TrapBank {
    TrapEnsembleParams::default()
        .traps(TRAPS, &mut StdRng::seed_from_u64(seed))
        .collect()
}

/// One timed pass: `STEPS` DC-stress advances over the bank (the
/// Fig. 5 aging loop's shape), the kernel counters firing per step.
/// Returns wall ms.
fn timed_pass(seed: u64) -> f64 {
    let cond = DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
    let rates = PhaseRates::for_condition(cond);
    let dt: Seconds = Minutes::new(20.0).into();
    let mut bank = bank(seed);
    let started = Instant::now();
    for _ in 0..STEPS {
        bank.advance_all(&rates, dt);
    }
    started.elapsed().as_nanos() as f64 / 1e6
}

fn main() {
    let mut run = BenchRun::start("telemetry_sampler");
    run.say("Time-series sampler overhead: Fig. 5 stress loop, sampler off vs on\n");

    // Warm-up pass (untimed): faults, allocator, branch history.
    let _ = timed_pass(2014);

    let off_ms = timed_pass(2015);

    let status = scratch_path(&format!("telemetry_sampler-{}.prom", std::process::id()));
    let sampler = Sampler::start(status.clone(), SAMPLE_EVERY);
    let on_ms = timed_pass(2016);
    if let Some(sampler) = sampler {
        sampler.stop();
    }
    std::fs::remove_file(&status).ok();

    let overhead_pct = 100.0 * (on_ms - off_ms) / off_ms;
    let mut table = Table::new(&["configuration", "wall (ms)"]);
    table.row(&["sampler off", &fmt(off_ms, 3)]);
    table.row(&[
        &format!("sampler on ({} ms cadence)", SAMPLE_EVERY.as_millis()),
        &fmt(on_ms, 3),
    ]);
    run.table(&table);
    run.say(format!(
        "\noverhead: {overhead_pct:+.2}% at a cadence 25x faster than the 250 ms default\n\
         (the sampler is read-only: it contends on the registry mutex and writes the status file)",
    ));

    run.value("off_ms", off_ms);
    run.value("on_ms", on_ms);
    run.value("overhead_pct", overhead_pct);
    run.finish("traps=10000 steps=200 condition=DC/1.2V/110C dt=20min sample=10ms status=file");
}
