//! The `stats` cache gate: `FleetState::aggregates` and
//! `FleetState::state_digest` are served from per-shard caches that only
//! mutations drop, so after any interleaving of epochs, reports and reads
//! they must equal the same values
//! computed from scratch. The from-scratch reference is the fleet's own
//! checkpoint, written and read back through the real codec: the read
//! overlays a fresh build, which leaves every cache empty, and verifies
//! the recorded state digest.

use proptest::prelude::*;
use selfheal_fleet::checkpoint;
use selfheal_fleet::{FleetConfig, FleetState};
use selfheal_units::DutyCycle;

/// Ten chips in three uneven shards.
fn tiny_config() -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = 10;
    config.shards = 3;
    config.seed = 7;
    config.trap_params.mean_trap_count = 6.0;
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
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        let config = tiny_config();
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

/// The interleaving the cache must get right: a report after its
/// shard's caches were filled. The report drops only the shard's slot
/// digest (occupancies have not moved, so the totals stand), and the
/// next epoch steps the chip under its new duty.
#[test]
fn a_report_after_filled_caches_refreshes_its_shard() {
    let config = tiny_config();
    let mut fleet = FleetState::build(config.clone());
    let mut untouched = fleet.clone();
    for _ in 0..3 {
        fleet.advance_epoch();
        untouched.advance_epoch();
    }
    let before = (fleet.aggregates(), fleet.state_digest());
    assert!(fleet.fold_report(4, DutyCycle::new(0.3)));
    assert_ne!(fleet.state_digest(), before.1);
    assert_eq!(
        fleet.aggregates().total_delta_vth.get().to_bits(),
        before.0.total_delta_vth.get().to_bits(),
        "a report moves no occupancy"
    );
    assert_matches_from_scratch(&fleet, &config, "a report after filled caches");
    fleet.advance_epoch();
    untouched.advance_epoch();
    assert!(
        fleet.aggregates().total_delta_vth < untouched.aggregates().total_delta_vth,
        "the reported chip steps under its lower duty"
    );
    assert_matches_from_scratch(&fleet, &config, "the epoch after the report");
}
