//! The decay-column gate: a fleet epoch steps every chip from the
//! per-trap decays and equilibrium occupancies p∞ it cached on an
//! earlier epoch, so after any interleaving of epochs, reports (a new
//! duty, the same duty again, a return to an earlier duty) and
//! checkpoint round trips, the banks must be the ones a reference gets
//! by stepping bank copies through `TrapBank::advance_range` chip by
//! chip, bit for bit. A report refills both columns of its chip at the
//! next epoch; a column left stale would step the chip under its old
//! duty. The state digest must also equal that of a second fleet that
//! is restored from its checkpoint before every epoch, so it never
//! steps from a column carried over from an earlier one.

use selfheal_bti::td::{PhaseRates, TrapBank, LANES};
use selfheal_bti::DeviceCondition;
use selfheal_fleet::checkpoint;
use selfheal_fleet::{FleetConfig, FleetState};
use selfheal_units::DutyCycle;

/// Twelve chips in three uneven shards.
fn config() -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = 12;
    config.shards = 3;
    config.seed = 27;
    config.trap_params.mean_trap_count = 9.0;
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
/// round trip in the middle; then a long run of epochs from the cached
/// columns, a last report and a few more epochs.
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
/// advance: every chip by `epoch_dt` under its duty before it.
fn reference_epoch(fleet: &FleetState, banks: &mut [TrapBank]) {
    let config = fleet.config();
    for chip in 0..config.chips {
        let (cond, shard, traps) = chip_at(fleet, chip);
        banks[shard].advance_range(traps, &PhaseRates::for_condition(cond), config.epoch_dt);
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

#[test]
fn cached_epochs_match_ranged_advance_in_an_untiered_fleet() {
    let config = config();
    let mut fleet = FleetState::build(config.clone());
    let mut fresh = FleetState::build(config);
    let mut banks: Vec<TrapBank> = fleet.shards().iter().map(|s| s.bank.clone()).collect();
    for (index, step) in schedule().into_iter().enumerate() {
        let context = format!("step {index} ({step:?})");
        match step {
            Step::Epoch => {
                reference_epoch(&fleet, &mut banks);
                fleet.advance_epoch();
                fresh = round_trip(&fresh);
                fresh.advance_epoch();
                assert_banks_match(&fleet, &banks, &context);
                assert_eq!(fleet.state_digest(), fresh.state_digest(), "{context}");
            }
            Step::Report(chip, duty) => {
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
}

/// An epoch refills the stale chips' columns and then steps each
/// shard's whole bank in one kernel call, so chip boundaries fall inside
/// `LANES`-wide blocks and a block can hold a refilled chip beside one
/// stepping from columns cached epochs ago. Chips holding `LANES − 1`,
/// `LANES` and `LANES + 1` traps, some reporting (stale) and some not
/// (fresh) in the same epoch, must step as bank copies stepped chip by
/// chip through `advance_range` do, bit for bit.
#[test]
fn one_call_epochs_mix_stale_and_fresh_chips_across_lane_boundaries() {
    let mut config = config();
    config.chips = 96;
    config.shards = 2;
    config.seed = 31;
    config.trap_params.mean_trap_count = LANES as f64;
    let mut fleet = FleetState::build(config.clone());
    let mut banks: Vec<TrapBank> = fleet.shards().iter().map(|s| s.bank.clone()).collect();
    // Per size, every chip holding that many traps, in chip order.
    let by_size: Vec<Vec<usize>> = [LANES - 1, LANES, LANES + 1]
        .iter()
        .map(|&size| {
            (0..config.chips)
                .filter(|&chip| chip_at(&fleet, chip).2.len() == size)
                .collect()
        })
        .collect();
    for (size, chips) in [LANES - 1, LANES, LANES + 1].iter().zip(&by_size) {
        assert!(chips.len() >= 2, "{size}-trap chips: {chips:?}");
    }
    // Every chip's first epoch fills its columns; then the first chip
    // of each size reports while the second steps from its cache, then
    // the other way round.
    let reports = [
        vec![],
        by_size.iter().map(|chips| (chips[0], 0.35)).collect(),
        by_size.iter().map(|chips| (chips[1], 0.7)).collect(),
        vec![],
    ];
    for (epoch, reports) in reports.iter().enumerate() {
        for &(chip, duty) in reports {
            assert!(fleet.fold_report(chip, DutyCycle::new(duty)));
        }
        reference_epoch(&fleet, &mut banks);
        fleet.advance_epoch();
        assert_banks_match(&fleet, &banks, &format!("epoch {epoch}"));
    }
}
