//! The `stats` cache gate: `FleetState::aggregates` and
//! `FleetState::state_digest` are served from per-shard caches that only
//! mutations drop, so after any interleaving of epochs, reports (cold-chip
//! rehydration included) and reads they must equal the same values
//! computed from scratch. The from-scratch reference is the fleet's own
//! checkpoint, written and read back through the real codec: the read
//! overlays a fresh build, which leaves every cache empty, and verifies
//! the recorded state digest.

use proptest::prelude::*;
use selfheal_bti::td::ChipTier;
use selfheal_fleet::checkpoint;
use selfheal_fleet::{FleetConfig, FleetState};
use selfheal_units::{DutyCycle, Millivolts};

/// Ten chips in three uneven shards; tiered with a guard band wide
/// enough that most chips go cold after one epoch, so reports often
/// rehydrate a cold chip.
fn tiny_config(tiered: bool) -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = 10;
    config.shards = 3;
    config.seed = 7;
    config.trap_params.mean_trap_count = 6.0;
    config.tiered = tiered;
    config.guard_band = Millivolts::new(10.0);
    config
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Epoch,
    /// A report; chip 10 lies outside the fleet and must change nothing.
    Report(usize, f64),
    /// What `stats` reads: the totals, then the digest.
    Stats,
    /// Only the digest, leaving the totals unread.
    Digest,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => Just(Step::Epoch),
        4 => (0usize..11, 0.0f64..=1.0).prop_map(|(chip, duty)| Step::Report(chip, duty)),
        1 => Just(Step::Stats),
        1 => Just(Step::Digest),
    ]
}

/// Compares the fleet's cached reads with a restored from-scratch copy.
/// Reads go through a clone, so the fleet keeps whatever caches the
/// steps so far left filled or dropped.
fn assert_matches_from_scratch(fleet: &FleetState, config: &FleetConfig, after: &str) {
    let probe = fleet.clone();
    let cached = probe.aggregates();
    let mut bytes = Vec::new();
    if let Err(err) = checkpoint::write(&probe, &mut bytes) {
        panic!("after {after}: writing into a Vec failed: {err}");
    }
    let scratch = match checkpoint::read(config.clone(), &mut bytes.as_slice()) {
        Ok(scratch) => scratch,
        Err(err) => panic!("after {after}: the checkpoint of the cached state is refused: {err}"),
    };
    assert_eq!(
        probe.state_digest(),
        scratch.state_digest(),
        "after {after}"
    );
    let fresh = scratch.aggregates();
    assert_eq!(
        cached.total_delta_vth.get().to_bits(),
        fresh.total_delta_vth.get().to_bits(),
        "total after {after}"
    );
    assert_eq!(
        cached.worst_delta_vth.get().to_bits(),
        fresh.worst_delta_vth.get().to_bits(),
        "worst after {after}"
    );
    assert_eq!(
        cached.over_budget_chips, fresh.over_budget_chips,
        "over budget after {after}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_stats_equal_from_scratch_after_any_interleaving(
        tiered in any::<bool>(),
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        let config = tiny_config(tiered);
        let mut fleet = FleetState::build(config.clone());
        assert_matches_from_scratch(&fleet, &config, "build");
        for (index, step) in steps.iter().enumerate() {
            match *step {
                Step::Epoch => {
                    fleet.advance_epoch();
                }
                Step::Report(chip, duty) => {
                    prop_assert_eq!(fleet.fold_report(chip, DutyCycle::new(duty)), chip < 10);
                }
                Step::Stats => {
                    let _ = (fleet.aggregates(), fleet.state_digest());
                }
                Step::Digest => {
                    let _ = fleet.state_digest();
                }
            }
            assert_matches_from_scratch(&fleet, &config, &format!("step {index} ({step:?}) of {steps:?}"));
        }
    }
}

/// The interleaving the cache must get right in a tiered fleet: a report
/// that rehydrates a cold chip after its shard's caches were filled.
#[test]
fn report_rehydrating_a_cold_chip_refreshes_its_shard() {
    let config = tiny_config(true);
    let mut fleet = FleetState::build(config.clone());
    for _ in 0..3 {
        fleet.advance_epoch();
    }
    // A chip demoted this epoch still sits on its anchor, which is its
    // bank value; one cold for longer has moved along its analytic line.
    let Some(chip) = (0..10).find(|&c| {
        matches!(fleet.chip_tier(c), Some(ChipTier::Cold(cold)) if cold.since_epoch < fleet.epoch())
    }) else {
        panic!("some chip stays cold across an epoch");
    };
    let before = (fleet.aggregates(), fleet.state_digest());
    assert!(fleet.fold_report(chip, DutyCycle::new(0.3)));
    assert_ne!(fleet.state_digest(), before.1);
    assert_ne!(
        fleet.aggregates().total_delta_vth.get().to_bits(),
        before.0.total_delta_vth.get().to_bits(),
        "the rehydrated chip now reads its bank, not its analytic line"
    );
    assert_matches_from_scratch(&fleet, &config, "rehydrating report");
}
