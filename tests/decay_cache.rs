//! The decay-column gate: a fleet epoch steps full-resolution chips from
//! per-trap decays it cached on an earlier epoch, so after any
//! interleaving of epochs, reports (a new duty, the same duty again, a
//! return to an earlier duty, cold-chip rehydration) and checkpoint
//! round trips, the banks must be the ones a reference gets by stepping
//! bank copies through `TrapBank::advance_range` chip by chip, bit for
//! bit. The state digest must also equal that of a second fleet that is
//! restored from its checkpoint before every epoch, so it never steps
//! from a decay carried over from an earlier one.

use selfheal_bti::td::{ChipTier, PhaseRates, TrapBank};
use selfheal_bti::DeviceCondition;
use selfheal_fleet::checkpoint;
use selfheal_fleet::{FleetConfig, FleetState};
use selfheal_units::{DutyCycle, Millivolts};

/// Twelve chips in three uneven shards; tiered with a guard band wide
/// enough that most chips go cold after one epoch and wake later.
fn config(tiered: bool) -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = 12;
    config.shards = 3;
    config.seed = 27;
    config.trap_params.mean_trap_count = 9.0;
    config.tiered = tiered;
    config.guard_band = Millivolts::new(10.0);
    config
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Epoch,
    Report(usize, f64),
    /// `checkpoint::write` then `checkpoint::read` of the fleet under test.
    RoundTrip,
}

/// Reports on chips 2 and 7 that set a new duty, repeat it, move on and
/// come back to an earlier one, with epochs in between and a checkpoint
/// round trip in the middle; then enough epochs for cold chips to wake.
fn schedule() -> Vec<Step> {
    use Step::{Epoch, Report, RoundTrip};
    let mut steps = vec![
        Epoch,
        Epoch,
        Report(2, 0.3),
        Epoch,
        Report(2, 0.3),
        Report(7, 0.6),
        Epoch,
        Report(2, 0.8),
        Epoch,
        RoundTrip,
        Epoch,
        Report(2, 0.3),
        Report(7, 1.0),
        Epoch,
        Report(11, 0.05),
        Epoch,
        RoundTrip,
        Report(4, 0.45),
    ];
    steps.extend(std::iter::repeat_n(Epoch, 40));
    steps.push(Report(9, 0.2));
    steps.extend(std::iter::repeat_n(Epoch, 4));
    steps
}

fn round_trip(fleet: &FleetState) -> FleetState {
    let mut bytes = Vec::new();
    if let Err(err) = checkpoint::write(fleet, &mut bytes) {
        panic!("writing into a Vec failed: {err}");
    }
    match checkpoint::read(fleet.config().clone(), &mut bytes.as_slice()) {
        Ok(restored) => restored,
        Err(err) => panic!("a checkpoint of the fleet must read back: {err}"),
    }
}

/// The chip's condition in the fleet, and its shard and trap range.
fn chip_at(fleet: &FleetState, chip: usize) -> (DeviceCondition, usize, std::ops::Range<usize>) {
    let duty = fleet.chip_duty(chip).expect("chip in fleet");
    let (shard, local) = fleet.locate(chip).expect("chip in fleet");
    let traps = fleet.shards()[shard].chips[local].traps.clone();
    (
        DeviceCondition::new(fleet.config().active_env, duty),
        shard,
        traps,
    )
}

/// Steps the reference banks through the epoch `fleet` is about to
/// advance, from its tiers and duties before it: a full-resolution chip
/// by `epoch_dt`, a cold chip that wakes by its whole cold window, a cold
/// chip that sleeps not at all. Returns the number of chips that woke.
fn reference_epoch(fleet: &FleetState, banks: &mut [TrapBank]) -> usize {
    let config = fleet.config();
    let policy = config.tier_policy();
    let epoch_end = fleet.epoch() + 1;
    let mut woke = 0;
    for chip in 0..config.chips {
        let (cond, shard, traps) = chip_at(fleet, chip);
        let dt = match (fleet.chip_tier(chip), &policy) {
            (Some(ChipTier::Cold(cold)), Some(policy)) => {
                if !policy.should_wake(&cold, epoch_end) {
                    continue;
                }
                woke += 1;
                policy.cold_elapsed(&cold, epoch_end)
            }
            _ => config.epoch_dt,
        };
        banks[shard].advance_range(traps, &PhaseRates::for_condition(cond), dt);
    }
    woke
}

/// What a report does to the reference banks: a cold chip first replays
/// its cold window under its old condition.
fn reference_report(fleet: &FleetState, banks: &mut [TrapBank], chip: usize) {
    let (cond, shard, traps) = chip_at(fleet, chip);
    if let (Some(ChipTier::Cold(cold)), Some(policy)) =
        (fleet.chip_tier(chip), fleet.config().tier_policy())
    {
        let elapsed = policy.cold_elapsed(&cold, fleet.epoch());
        banks[shard].advance_range(traps, &PhaseRates::for_condition(cond), elapsed);
    }
}

fn assert_banks_match(fleet: &FleetState, banks: &[TrapBank], context: &str) {
    for (index, (shard, reference)) in fleet.shards().iter().zip(banks).enumerate() {
        let got = shard.bank.occupancies();
        let want = reference.occupancies();
        assert_eq!(got.len(), want.len(), "{context}: shard {index}");
        for (trap, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{context}: shard {index} trap {trap}");
        }
    }
}

fn run(tiered: bool) {
    let config = config(tiered);
    let mut fleet = FleetState::build(config.clone());
    let mut fresh = FleetState::build(config.clone());
    let mut banks: Vec<TrapBank> = fleet.shards().iter().map(|s| s.bank.clone()).collect();
    let (mut woke, mut rehydrated) = (0, 0);
    for (index, step) in schedule().into_iter().enumerate() {
        let context = format!("tiered={tiered} step {index} ({step:?})");
        match step {
            Step::Epoch => {
                woke += reference_epoch(&fleet, &mut banks);
                fleet.advance_epoch();
                fresh = round_trip(&fresh);
                fresh.advance_epoch();
                assert_banks_match(&fleet, &banks, &context);
                assert_eq!(fleet.state_digest(), fresh.state_digest(), "{context}");
            }
            Step::Report(chip, duty) => {
                if fleet.chip_tier(chip).is_some_and(|t| t.is_cold()) {
                    rehydrated += 1;
                }
                reference_report(&fleet, &mut banks, chip);
                assert!(fleet.fold_report(chip, DutyCycle::new(duty)), "{context}");
                assert!(fresh.fold_report(chip, DutyCycle::new(duty)), "{context}");
                assert_banks_match(&fleet, &banks, &context);
            }
            Step::RoundTrip => {
                fleet = round_trip(&fleet);
                assert_banks_match(&fleet, &banks, &context);
            }
        }
    }
    if tiered {
        let tiers = fleet.tier_counts();
        assert!(woke > 0, "no cold chip woke, so rehydration went untested");
        assert!(rehydrated > 0, "no report landed on a cold chip");
        assert!(tiers.pinned > 0 && tiers.cold > 0, "{tiers:?}");
    }
}

#[test]
fn cached_epochs_match_ranged_advance_in_an_untiered_fleet() {
    run(false);
}

#[test]
fn cached_epochs_match_ranged_advance_in_a_tiered_fleet() {
    run(true);
}

/// The epoch's own tier tally is the slot scan's.
#[test]
fn epochs_return_the_tier_counts_of_the_slots() {
    let mut fleet = FleetState::build(config(true));
    for epoch in 0..6 {
        let tallied = fleet.advance_epoch();
        assert_eq!(tallied, fleet.tier_counts(), "epoch {epoch}");
        if epoch == 2 {
            assert!(fleet.fold_report(5, DutyCycle::new(0.5)));
        }
    }
}
