//! Kernel microbenchmark: the per-trap scalar oracle vs the chunked
//! structure-of-arrays kernel, uncached and with cached decays, at 1k /
//! 10k / 100k / 1M traps.
//!
//! Run with `cargo run -p selfheal-bench --release --bin trap_kernel`.
//! The kernel's speed history is `bench_history/trap_kernel.jsonl`,
//! recorded and gated with `perf_ledger --repeats 3 --
//! target/release/trap_kernel --json`. Both columns are bit-for-bit
//! interchangeable (`tests/kernel_equivalence.rs` is the gate); only
//! wall-clock separates them. Each is timed over the same four-phase schedule
//! (stress / recovery / AC stress / recovery):
//!
//! * **scalar** — [`Trap::advance`] per trap per phase on an AoS
//!   `Vec<Trap>`: every trap re-derives the phase's rate multipliers;
//! * **kernel** — one [`TrapBank::advance_all`] call per phase: rates
//!   evaluated once per phase and the bank's `LANES`-chunked loop;
//! * **cached** — one [`TrapBank::advance_range_cached`] call per phase
//!   over decay columns [`TrapBank::fill_decay`] filled before the clock
//!   starts: the step a fleet epoch takes at steady state, with no `exp`
//!   per trap.
//!
//! The headline `speedup_<size>` is scalar vs kernel; the ledger keeps
//! only the `*_ns_per_trap_step_<size>` durations. The kernel's per-trap
//! cost should stay flat from 1k to 1M traps.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_bti::td::{PhaseRates, Trap, TrapBank, TrapEnsembleParams};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{Celsius, Minutes, Seconds, Volts};

/// Sizes swept, in traps per ensemble.
const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
/// The size the headline speedup number is quoted at.
const HEADLINE: usize = 10_000;

/// The four-phase schedule every variant steps through per repetition.
/// A short step keeps occupancies moving (exp cost is value-independent
/// anyway), so repeated advances model a sampling loop, not a no-op.
fn phase_batch() -> Vec<(DeviceCondition, Seconds)> {
    let hot = Environment::new(Volts::new(1.2), Celsius::new(110.0));
    let heal = Environment::new(Volts::new(-0.3), Celsius::new(110.0));
    let dt: Seconds = Minutes::new(20.0).into();
    vec![
        (DeviceCondition::dc_stress(hot), dt),
        (DeviceCondition::recovery(heal), dt),
        (DeviceCondition::ac_stress(hot), dt),
        (DeviceCondition::recovery(heal), dt),
    ]
}

/// Draws *exactly* `size` traps from the default 40 nm distributions.
/// ([`TrapBank::sample`] draws a Poisson count, which cannot reach these
/// benchmark sizes.)
fn traps_of(size: usize, seed: u64) -> Vec<Trap> {
    TrapEnsembleParams::default()
        .traps(size, &mut StdRng::seed_from_u64(seed))
        .collect()
}

/// Times `step` (one full four-phase batch) over enough repetitions to
/// cover ~`budget` trap·steps, returning mean nanoseconds per
/// repetition. One untimed warm-up repetition precedes the clock.
fn time_per_batch(budget: usize, trap_steps: usize, mut step: impl FnMut()) -> f64 {
    let reps = (budget / trap_steps).max(3);
    step();
    let started = Instant::now();
    for _ in 0..reps {
        step();
    }
    started.elapsed().as_nanos() as f64 / reps as f64
}

fn main() {
    let mut run = BenchRun::start("trap_kernel");
    run.say("Trap-kinetics kernel: scalar oracle vs SoA kernel\n");

    let batch = phase_batch();
    let budget = 8_000_000;

    let mut table = Table::new(&[
        "traps",
        "scalar (ns/trap-step)",
        "kernel (ns/trap-step)",
        "cached (ns/trap-step)",
        "speedup",
    ]);
    let mut headline_speedup = 0.0;

    for (i, &size) in SIZES.iter().enumerate() {
        // One top-level span per size, so the manifest's phase list
        // gets a `kernel_<size>` entry.
        let phase = run.phase_named(format!("kernel_{size}"));
        let traps = traps_of(size, 2014 + i as u64);
        let count = traps.len();
        let trap_steps = count * batch.len();

        let mut scalar = traps.clone();
        let scalar_ns = time_per_batch(budget, trap_steps, || {
            for &(cond, dt) in &batch {
                for trap in &mut scalar {
                    trap.advance(cond, dt);
                }
            }
        });

        let mut kernel: TrapBank = traps.iter().copied().collect();
        let kernel_ns = time_per_batch(budget, trap_steps, || {
            for &(cond, dt) in &batch {
                kernel.advance_all(&PhaseRates::for_condition(cond), dt);
            }
        });

        let mut cached: TrapBank = traps.iter().copied().collect();
        let columns: Vec<(PhaseRates, Vec<f64>)> = batch
            .iter()
            .map(|&(cond, dt)| {
                let rates = PhaseRates::for_condition(cond);
                let mut decay = vec![0.0; count];
                cached.fill_decay(0..count, &rates, dt, &mut decay);
                (rates, decay)
            })
            .collect();
        let cached_ns = time_per_batch(budget, trap_steps, || {
            for (rates, decay) in &columns {
                cached.advance_range_cached(0..count, rates, decay);
            }
        });
        drop(phase);

        #[allow(clippy::cast_precision_loss)]
        let per_step = |total_ns: f64| total_ns / trap_steps as f64;
        let speedup = scalar_ns / kernel_ns;
        if size == HEADLINE {
            headline_speedup = speedup;
        }
        table.row(&[
            &count.to_string(),
            &fmt(per_step(scalar_ns), 2),
            &fmt(per_step(kernel_ns), 2),
            &fmt(per_step(cached_ns), 2),
            &format!("{speedup:.2}x"),
        ]);
        run.value(
            &format!("scalar_ns_per_trap_step_{size}"),
            per_step(scalar_ns),
        );
        run.value(
            &format!("kernel_ns_per_trap_step_{size}"),
            per_step(kernel_ns),
        );
        run.value(
            &format!("cached_ns_per_trap_step_{size}"),
            per_step(cached_ns),
        );
        run.value(&format!("speedup_{size}"), speedup);
    }

    run.table(&table);
    run.say(format!(
        "\nheadline: {headline_speedup:.2}x at {HEADLINE} traps (scalar oracle vs kernel).\n\
         The gap is the hoist (one rate evaluation per phase, not per trap) and the\n\
         bank's flat chunked inner loop.",
    ));
    run.finish(
        "sizes=1k,10k,100k,1M schedule=DC/rec/AC/rec dt=20min budget=8e6 trap-steps/variant \
         columns=scalar,kernel,cached",
    );
}
