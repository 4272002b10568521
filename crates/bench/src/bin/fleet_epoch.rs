//! Fleet-scale macrobenchmark: one full-resolution epoch of a whole
//! fleet.
//!
//! Builds a fleet and times steady-state epoch advances at 100k and 1M
//! chips. Every chip's trap slice steps every epoch; after the first
//! epoch has filled each shard's decay and p∞ columns, an epoch is one
//! `TrapBank::advance_range_cached` per chip with no `exp` and no
//! division per trap. The ledger (`bench_history/fleet_epoch.jsonl`)
//! tracks the wall milliseconds per epoch at each size.
//!
//! ```text
//! cargo run -p selfheal-bench --release --bin fleet_epoch -- --json
//! ```

use std::time::Instant;

use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_fleet::{FleetConfig, FleetState};

/// Fleet sizes swept, in chips.
const SIZES: [usize; 2] = [100_000, 1_000_000];
/// Epochs run before the clock starts: the first fills every shard's
/// cached columns, the rest settle the pool.
const WARMUP_EPOCHS: u64 = 4;
/// Epochs averaged for the quoted per-epoch time.
const TIMED_EPOCHS: u64 = 8;

fn fleet_config(chips: usize) -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = chips;
    // Enough shards that every pool worker stays busy at either size.
    config.shards = 64;
    config.seed = 2014;
    config.trap_params.mean_trap_count = 8.0;
    config
}

/// Steady-state epoch cost: warm up, then average the timed window.
fn ms_per_epoch(state: &mut FleetState) -> f64 {
    for _ in 0..WARMUP_EPOCHS {
        state.advance_epoch();
    }
    let started = Instant::now();
    for _ in 0..TIMED_EPOCHS {
        state.advance_epoch();
    }
    #[allow(clippy::cast_precision_loss)]
    let per_epoch = started.elapsed().as_secs_f64() * 1e3 / TIMED_EPOCHS as f64;
    per_epoch
}

fn main() {
    let mut run = BenchRun::start("fleet_epoch");
    run.say("Fleet epoch advance at full trap resolution\n");

    let mut table = Table::new(&["chips", "traps", "ms/epoch", "ns/trap-step"]);
    for &chips in &SIZES {
        let phase = run.phase_named(format!("fleet_{chips}"));
        let mut fleet = FleetState::build(fleet_config(chips));
        let ms = ms_per_epoch(&mut fleet);
        let traps = fleet.trap_count();
        drop(fleet);
        drop(phase);

        #[allow(clippy::cast_precision_loss)]
        let ns_per_trap = ms * 1e6 / traps as f64;
        table.row(&[
            &chips.to_string(),
            &traps.to_string(),
            &fmt(ms, 2),
            &fmt(ns_per_trap, 2),
        ]);
        run.value(&format!("ms_per_epoch_{chips}"), ms);
    }

    run.table(&table);
    run.say(
        "\nEvery chip steps at full resolution; ROADMAP item 4's rule is a 1M-chip\n\
         epoch of at most 33 ms.",
    );
    run.finish("sizes=100k,1M shards=64 traps/chip=8 warmup=4 timed=8");
}
