//! The lazy-epoch gate: a daemon whose clock only ticks, and whose
//! shards catch up later (in sweeps, before the requests that touch
//! them, for `stats` and for cadence checkpoints), must answer exactly
//! as one that steps every shard at every tick. Both daemons see the
//! same request history; every reply's wire bytes, every cadence
//! checkpoint's bytes and, after every step, the state digest must be
//! equal.
//!
//! The tiered fleet uses a 2 mV guard band, so cold chips wake within a
//! few epochs: a shard that lags several ticks has chips whose wake
//! epoch is one of the epochs it has yet to step.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use selfheal::RejuvenationTechnique;
use selfheal_bti::td::ChipTier;
use selfheal_fleet::{FleetConfig, FleetDaemon, FleetState, Request};
use selfheal_runtime::ResultCache;
use selfheal_units::{DutyCycle, Millivolts, Seconds};

const CHIPS: u64 = 16;

/// Sixteen chips in four shards.
fn config(tiered: bool) -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = CHIPS as usize;
    config.shards = 4;
    config.seed = 7;
    config.trap_params.mean_trap_count = 6.0;
    config.tiered = tiered;
    config.guard_band = Millivolts::new(2.0);
    config
}

fn scratch_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("selfheal-lazy-epochs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A lazy daemon and its eager twin, each saving into its own root
/// every `checkpoint_every` epochs (0: never).
struct Pair {
    lazy: FleetDaemon,
    eager: FleetDaemon,
    roots: [PathBuf; 2],
    checkpoint_every: u64,
}

impl Pair {
    fn new(tiered: bool, tag: &str, checkpoint_every: u64) -> Pair {
        let roots = [
            scratch_root(&format!("{tag}-lazy")),
            scratch_root(&format!("{tag}-eager")),
        ];
        let daemon = |root: &PathBuf| {
            FleetDaemon::new(
                config(tiered),
                ResultCache::at(root.clone()),
                checkpoint_every,
            )
        };
        Pair {
            lazy: daemon(&roots[0]),
            eager: daemon(&roots[1]),
            roots,
            checkpoint_every,
        }
    }

    /// The lazy daemon ticks; the eager one advances a whole epoch.
    fn tick(&mut self) {
        self.lazy.tick();
        self.eager.advance_epoch();
        let epoch = self.lazy.state().epoch();
        if self.checkpoint_every > 0 && epoch.is_multiple_of(self.checkpoint_every) {
            assert_eq!(
                checkpoint_bytes(&self.roots[0]),
                checkpoint_bytes(&self.roots[1]),
                "cadence checkpoint of epoch {epoch}"
            );
        }
    }

    /// Both daemons answer `request`; the replies must be byte-equal.
    fn handle(&mut self, request: &Request) {
        let lazy = self.lazy.handle(request).to_payload();
        let eager = self.eager.handle(request).to_payload();
        assert_eq!(
            String::from_utf8_lossy(&lazy),
            String::from_utf8_lossy(&eager),
            "reply to {request:?}"
        );
    }

    /// The lazy state caught up on a copy, so the lazy daemon keeps its
    /// lag, must equal the eager state.
    fn assert_same_state(&self, after: &str) {
        let mut caught_up = self.lazy.state().clone();
        caught_up.catch_up(usize::MAX);
        assert_eq!(
            caught_up.epoch(),
            self.eager.state().epoch(),
            "after {after}"
        );
        assert_eq!(
            caught_up.state_digest(),
            self.eager.state().state_digest(),
            "after {after}"
        );
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        for root in &self.roots {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// The bytes of the one checkpoint file under `root`.
fn checkpoint_bytes(root: &Path) -> Vec<u8> {
    let dir = root.join(selfheal_fleet::checkpoint::CHECKPOINT_NAMESPACE);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|err| panic!("{}: {err}", dir.display()))
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ckpt"))
        .collect();
    assert_eq!(files.len(), 1, "one checkpoint file in {}", dir.display());
    std::fs::read(files.remove(0)).expect("checkpoint readable")
}

/// Shards whose bank is behind the fleet's epoch.
fn lagging(fleet: &FleetState) -> usize {
    fleet
        .shards()
        .iter()
        .filter(|shard| shard.epoch() < fleet.epoch())
        .count()
}

fn plan(chip: u64) -> Request {
    Request::Plan {
        chip,
        technique: RejuvenationTechnique::Combined,
        period: None,
        horizon: None,
    }
}

fn predict(chip: u64) -> Request {
    Request::Predict {
        chip,
        dt: Seconds::new(86_400.0),
    }
}

fn report(chip: u64, duty: f64) -> Request {
    Request::Report {
        chip,
        duty: DutyCycle::new(duty),
    }
}

#[derive(Debug, Clone)]
enum Step {
    Tick,
    /// One clock hold: catch up at most this many lagging shards.
    Sweep(usize),
    /// Chip `CHIPS` lies outside the fleet.
    Request(Request),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => Just(Step::Tick),
        2 => (1usize..3).prop_map(Step::Sweep),
        4 => (0..=CHIPS, 0.0f64..=1.0).prop_map(|(chip, duty)| Step::Request(report(chip, duty))),
        3 => (0..=CHIPS).prop_map(|chip| Step::Request(predict(chip))),
        1 => (0..=CHIPS).prop_map(|chip| Step::Request(plan(chip))),
        1 => Just(Step::Request(Request::Stats)),
    ]
}

fn run(tiered: bool, tag: &str, steps: &[Step]) {
    let mut pair = Pair::new(tiered, tag, 3);
    for (index, step) in steps.iter().enumerate() {
        match step {
            Step::Tick => pair.tick(),
            Step::Sweep(limit) => {
                pair.lazy.sweep(*limit);
            }
            Step::Request(request) => pair.handle(request),
        }
        pair.assert_same_state(&format!("step {index} ({step:?})"));
    }
    pair.handle(&Request::Stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lazy_untiered_epochs_answer_as_eager_ones(
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        run(false, "untiered", &steps);
    }

    #[test]
    fn lazy_tiered_epochs_answer_as_eager_ones(
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        run(true, "tiered", &steps);
    }
}

/// The tiered interleavings the proptest may or may not draw, pinned:
/// a shard lags several ticks while cold chips on it have their wake
/// epoch among the epochs it has yet to step, and a cold chip on a
/// lagging shard reports.
#[test]
fn a_lagging_tiered_shard_wakes_and_rehydrates_as_eager() {
    let mut pair = Pair::new(true, "pinned", 0);
    pair.tick();
    pair.lazy.sweep(usize::MAX);
    pair.tick();
    pair.lazy.sweep(usize::MAX);
    let from = pair.lazy.state().epoch();
    let pending = 5;
    let cold: Vec<(u64, u64)> = (0..CHIPS)
        .filter_map(|chip| match pair.lazy.state().chip_tier(chip as usize) {
            Some(ChipTier::Cold(cold)) => Some((chip, cold.wake_epoch)),
            _ => None,
        })
        .collect();
    let wakes_pending = |chip: &&(u64, u64)| (from + 1..=from + pending).contains(&chip.1);
    assert!(
        cold.iter().filter(wakes_pending).count() >= 2,
        "cold chips waking within the pending epochs: {cold:?}"
    );
    let sleeper = cold
        .iter()
        .find(|(_, wake)| *wake > from + pending)
        .map(|&(chip, _)| chip)
        .expect("a chip stays cold through the pending epochs");

    for _ in 0..pending {
        pair.tick();
    }
    let shard = |pair: &Pair, chip: u64| {
        pair.lazy
            .state()
            .config()
            .shard_of_chip(chip as usize)
            .expect("chip in fleet")
    };
    let lag = |pair: &Pair, chip: u64| {
        pair.lazy.state().epoch() - pair.lazy.state().shards()[shard(pair, chip)].epoch()
    };
    assert_eq!(lag(&pair, sleeper), pending, "the sleeper's shard lags");
    pair.handle(&report(sleeper, 0.3));
    assert_eq!(lag(&pair, sleeper), 0, "the report caught its shard up");
    pair.assert_same_state("a report to a cold chip on a lagging shard");

    // Chips that woke in a pending epoch: predict one, sweep the others.
    let woken = cold
        .iter()
        .filter(wakes_pending)
        .map(|&(chip, _)| chip)
        .find(|&chip| lag(&pair, chip) == pending)
        .expect("a waking chip on a shard that still lags");
    pair.handle(&predict(woken));
    pair.assert_same_state("a predict on a shard whose chips woke while it lagged");
    pair.lazy.sweep(1);
    pair.assert_same_state("one sweep step");
    pair.handle(&plan(sleeper));
    pair.handle(&Request::Stats);
    pair.assert_same_state("stats");
    assert_eq!(lagging(pair.lazy.state()), 0);
}

/// A tick moves only the fleet's epoch; nothing steps until a shard
/// catches up.
#[test]
fn a_tick_steps_no_shard() {
    let mut fleet = FleetState::build(config(false));
    let built = fleet.clone();
    fleet.tick();
    fleet.tick();
    assert_eq!(fleet.epoch(), 2);
    assert_eq!(lagging(&fleet), 4);
    for (lazy, fresh) in fleet.shards().iter().zip(built.shards()) {
        assert_eq!(lazy.epoch(), 0);
        assert_eq!(lazy.bank, fresh.bank);
    }
    assert!(fleet.catch_up_chip(5));
    assert!(!fleet.catch_up_chip(5), "a caught-up shard steps nothing");
    assert!(!fleet.catch_up_chip(CHIPS as usize), "no shard holds it");
    assert_eq!(lagging(&fleet), 3);
    assert_eq!(fleet.catch_up(2), 1);
    assert_eq!(fleet.catch_up(usize::MAX), 0);
}
