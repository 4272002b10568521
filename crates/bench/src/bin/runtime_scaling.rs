//! Pool-scaling microbenchmark: the same deterministic workload run
//! inline-serial and through the global work-stealing pool.
//!
//! Produces the `runtime_scaling` manifest the perf ledger tracks
//! (`serial_ms`, `par_ms`, `speedup`): a regression in either wall-clock
//! key means the pool's dispatch overhead or the workload kernel itself
//! got slower. `--threads <n>` sizes the pool as usual; the workload is
//! bit-for-bit identical at any worker count, so only timing varies.

use std::time::Instant;

use selfheal_bench::BenchRun;
use selfheal_runtime as runtime;

/// Items per batch — enough chunks that every worker steals.
const ITEMS: u64 = 2_048;
/// Mixing rounds per item (arithmetic-bound, allocation-free).
const ROUNDS: u64 = 20_000;

/// A SplitMix64-style mixing loop: cheap, deterministic, unoptimizable
/// to a closed form.
fn mix(seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..ROUNDS {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= runtime::splitmix64_mix(x);
    }
    x
}

/// One timed pass over all items; returns (wall ms, checksum).
fn timed(pool: &runtime::Pool) -> (f64, u64) {
    let items: Vec<u64> = (0..ITEMS).collect();
    let started = Instant::now();
    let mixed = pool.par_map(items, mix);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let checksum = mixed.into_iter().fold(0u64, u64::wrapping_add);
    (wall_ms, checksum)
}

fn main() {
    let mut run = BenchRun::start("runtime_scaling");
    run.say("Pool scaling: inline-serial vs the global work-stealing pool\n");

    let pool = runtime::global_pool();
    let workers = pool.workers();
    let serial = runtime::Pool::serial();

    // Warm up both paths (page in, spin up workers) before the clock.
    let (_, warm_serial) = timed(&serial);
    let (_, warm_par) = timed(&pool);
    assert_eq!(
        warm_serial, warm_par,
        "determinism contract: pool output must match serial"
    );

    let serial_ms = {
        let _phase = run.phase("serial");
        timed(&serial).0
    };
    let par_ms = {
        let _phase = run.phase("parallel");
        timed(&pool).0
    };
    let speedup = serial_ms / par_ms;

    run.say(format!(
        "items={ITEMS} rounds={ROUNDS} workers={workers}\n\
         serial:   {serial_ms:8.3} ms\n\
         parallel: {par_ms:8.3} ms  ({speedup:.2}x, {} steal(s) lifetime)",
        pool.steal_count(),
    ));
    run.value("serial_ms", serial_ms);
    run.value("par_ms", par_ms);
    run.value("speedup", speedup);
    run.finish(&format!("items={ITEMS} rounds={ROUNDS} workers={workers}"));
}
