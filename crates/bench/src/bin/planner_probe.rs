//! Planner microbenchmark: the analytic `predicted_peak` probe, the
//! `plan_with_consumed` bisection built on it, and the live-slice
//! `plan_from_bank` a fleet daemon's `plan` request runs.
//!
//! The planner is the fleet default's: 1.2 V at 90 °C, a 30 mV margin,
//! day-long `Combined` rhythms over a 30-day horizon. Three timings:
//!
//! * **`predicted_peak_us`** — one `predicted_peak` at α = 4, the mean
//!   over [`PEAK_REPS`] calls;
//! * **`plan_mean_us`** — one `plan_with_consumed`, the mean over a fixed
//!   grid of [`PLANS`] consumed margins drawn uniformly from 0–10 mV with
//!   a seeded RNG. The grid mixes plans that fit at α = 64, bisections
//!   and refusals at α = 0.5; their shares are reported alongside;
//! * **`slice_plan_mean_us`** — one `plan_from_bank` on a chip's live
//!   trap slice, the mean over [`SLICE_PLANS`] chips drawn with a seeded
//!   RNG from the repository benchmark's `aged_storm` fleet (50k chips,
//!   8 traps per chip on average, 48 DC epochs, then every chip reports a
//!   duty from the 5–95 % grid). Its outcome shares are reported too.
//!
//! `BenchRun` turns the metrics registry on, as `fleetd --status` does,
//! so these are the costs of a daemon with metrics on.
//!
//! ```text
//! cargo run -p selfheal-bench --release --bin planner_probe
//! perf_ledger --repeats 3 -- target/release/planner_probe --json
//! ```
//!
//! The history is `bench_history/planner_probe.jsonl`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfheal::{RejuvenationTechnique, SchedulePlanner};
use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_fleet::{FleetConfig, FleetState};
use selfheal_units::{DutyCycle, Millivolts, Ratio};

/// `predicted_peak` calls averaged.
const PEAK_REPS: u32 = 400;
/// Consumed margins planned for, one plan each.
const PLANS: usize = 400;
/// Seed of the consumed-margin grid, the aged fleet and its chip draw.
const SEED: u64 = 2014;
/// Chips of the aged fleet planned from their own slices, one plan each.
const SLICE_PLANS: usize = 2_000;
/// The aged fleet: `aged_storm`'s chips, shards, traps per chip and DC
/// epochs.
const FLEET: (usize, usize, f64, u64) = (50_000, 64, 8.0, 48);

/// `aged_storm`'s fleet: built from [`SEED`], aged [`FLEET`]'s epochs at
/// DC, then every chip on a duty of the 5–95 % grid (`chip % 19`).
fn aged_fleet() -> FleetState {
    let (chips, shards, traps, epochs) = FLEET;
    let mut config = FleetConfig {
        chips,
        shards,
        seed: SEED,
        ..FleetConfig::default()
    };
    config.trap_params.mean_trap_count = traps;
    let mut state = FleetState::build(config);
    for _ in 0..epochs {
        state.advance_epoch();
    }
    for chip in 0..chips {
        #[allow(clippy::cast_precision_loss)]
        let duty = DutyCycle::new(0.05 * (chip % 19 + 1) as f64);
        state.fold_report(chip, duty);
    }
    state
}

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

    let fleet = aged_fleet();
    let chips: Vec<usize> = (0..SLICE_PLANS)
        .map(|_| rng.gen_range(0..FLEET.0))
        .collect();
    let phase = run.phase("plan_from_bank");
    let mut slice = [0u32; 4];
    let started = Instant::now();
    for &chip in &chips {
        let (shard, traps) = fleet.chip_view(chip).expect("chip in the fleet");
        let duty = fleet.chip_duty(chip).expect("chip in the fleet");
        let plan = planner.plan_from_bank(
            &shard.bank,
            traps,
            duty,
            technique,
            config.period,
            config.horizon,
        );
        let outcome = match std::hint::black_box(plan) {
            Some(plan) if plan.recover_first => 2,
            Some(plan) if plan.alpha.get() < 64.0 => 1,
            Some(_) => 0,
            None => 3,
        };
        slice[outcome] += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let slice_plan_us = started.elapsed().as_secs_f64() * 1e6 / SLICE_PLANS as f64;
    drop(phase);

    let mut table = Table::new(&["call", "mean (µs)"]);
    table.row(&["predicted_peak (α = 4)", &fmt(peak_us, 1)]);
    table.row(&["plan_with_consumed", &fmt(plan_us, 1)]);
    table.row(&["plan_from_bank (aged slices)", &fmt(slice_plan_us, 2)]);
    run.table(&table);
    run.say(format!(
        "\n{PLANS} plans: {fitted} fit at α = 64, {bisected} bisected, {refused} refused."
    ));
    run.say(format!(
        "{SLICE_PLANS} slice plans: {} fit at α = 64, {} bisected, {} recover first, {} refused.",
        slice[0], slice[1], slice[2], slice[3]
    ));
    run.value("slice_plan_mean_us", slice_plan_us);
    run.value("predicted_peak_us", peak_us);
    run.value("plan_mean_us", plan_us);
    #[allow(clippy::cast_precision_loss)]
    let share = |count: u32| f64::from(count) / PLANS as f64;
    run.value("bisected_share", share(bisected));
    run.value("refused_share", share(refused));
    run.finish(&format!(
        "technique=combined env=1.2V@90C margin=30mV period=1d horizon=30d \
         peak_alpha=4 peak_reps={PEAK_REPS} plans={PLANS} consumed=U(0,10)mV seed={SEED} \
         slice_plans={SLICE_PLANS} fleet={FLEET:?}"
    ));
}
