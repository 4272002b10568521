//! Planner microbenchmark: the analytic `predicted_peak` probe and the
//! `plan_with_consumed` bisection built on it, as a fleet daemon's `plan`
//! request runs them.
//!
//! The planner is the fleet default's: 1.2 V at 90 °C, a 30 mV margin,
//! day-long `Combined` rhythms over a 30-day horizon. Two timings:
//!
//! * **`predicted_peak_us`** — one `predicted_peak` at α = 4, the mean
//!   over [`PEAK_REPS`] calls;
//! * **`plan_mean_us`** — one `plan_with_consumed`, the mean over a fixed
//!   grid of [`PLANS`] consumed margins drawn uniformly from 0–10 mV with
//!   a seeded RNG. The grid mixes plans that fit at α = 64, bisections
//!   and refusals at α = 0.5; their shares are reported alongside.
//!
//! `BenchRun` turns the metrics registry on, as `fleetd --status` does,
//! so these are the costs of a daemon with metrics on.
//!
//! ```text
//! cargo run -p selfheal-bench --release --bin planner_probe
//! perf_ledger --repeats 3 -- target/release/planner_probe --json
//! ```
//!
//! The history is `bench_history/planner.jsonl`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfheal::{RejuvenationTechnique, SchedulePlanner};
use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_fleet::FleetConfig;
use selfheal_units::{Millivolts, Ratio};

/// `predicted_peak` calls averaged.
const PEAK_REPS: u32 = 400;
/// Consumed margins planned for, one plan each.
const PLANS: usize = 400;
/// Seed of the consumed-margin grid.
const SEED: u64 = 2014;

fn main() {
    let mut run = BenchRun::start("planner_probe");
    run.say("Planner probe: predicted_peak and plan_with_consumed\n");

    let config = FleetConfig::default();
    let planner = SchedulePlanner::with_default_models(config.active_env, config.margin);
    let technique = RejuvenationTechnique::Combined;
    let alpha = Ratio::new(4.0).expect("4 is a valid ratio");

    let phase = run.phase("predicted_peak");
    let peak = |planner: &SchedulePlanner| {
        planner.predicted_peak(alpha, technique, config.period, config.horizon)
    };
    std::hint::black_box(peak(&planner));
    let started = Instant::now();
    for _ in 0..PEAK_REPS {
        std::hint::black_box(peak(std::hint::black_box(&planner)));
    }
    let peak_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(PEAK_REPS);
    drop(phase);

    let phase = run.phase("plan_with_consumed");
    let mut rng = StdRng::seed_from_u64(SEED);
    let consumed: Vec<Millivolts> = (0..PLANS)
        .map(|_| Millivolts::new(rng.gen_range(0.0..10.0)))
        .collect();
    let (mut fitted, mut bisected, mut refused) = (0u32, 0u32, 0u32);
    let started = Instant::now();
    for &used in &consumed {
        let plan = planner.plan_with_consumed(used, technique, config.period, config.horizon);
        match std::hint::black_box(plan) {
            Some(plan) if plan.alpha.get() < 64.0 => bisected += 1,
            Some(_) => fitted += 1,
            None => refused += 1,
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let plan_us = started.elapsed().as_secs_f64() * 1e6 / PLANS as f64;
    drop(phase);

    let mut table = Table::new(&["call", "mean (µs)"]);
    table.row(&["predicted_peak (α = 4)", &fmt(peak_us, 1)]);
    table.row(&["plan_with_consumed", &fmt(plan_us, 1)]);
    run.table(&table);
    run.say(format!(
        "\n{PLANS} plans: {fitted} fit at α = 64, {bisected} bisected, {refused} refused."
    ));
    run.value("predicted_peak_us", peak_us);
    run.value("plan_mean_us", plan_us);
    #[allow(clippy::cast_precision_loss)]
    let share = |count: u32| f64::from(count) / PLANS as f64;
    run.value("bisected_share", share(bisected));
    run.value("refused_share", share(refused));
    run.finish(&format!(
        "technique=combined env=1.2V@90C margin=30mV period=1d horizon=30d \
         peak_alpha=4 peak_reps={PEAK_REPS} plans={PLANS} consumed=U(0,10)mV seed={SEED}"
    ));
}
