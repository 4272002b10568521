//! The kernel-equivalence gate for `selfheal_bti::td::kernel`: the SoA
//! [`TrapBank`] fast path must be *bit-for-bit* identical to the per-trap
//! [`Trap::advance`] scalar path — same occupancies to the last ulp, same
//! ordered ΔVth sum — under every phase kind, every worker count, and
//! the full dynamic range of trap time constants (including the
//! frozen-trap `tau = INFINITY` branch).
//!
//! The cached step (`fill_decay` once into the decay and p∞ columns,
//! then `advance_range_cached` every epoch) is held to the same bits as
//! `advance_range` and the oracle.
//!
//! If any assertion here moves, the kernel has drifted from the physics
//! it was hoisted out of; bump [`selfheal_bti::td::KERNEL_VERSION`] only
//! for *representation* changes that keep these bits pinned.

use proptest::prelude::*;
use selfheal_bti::td::{PhaseRates, Trap, TrapBank, TrapEnsembleParams, LANES};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_fleet::{FleetConfig, FleetState};
use selfheal_runtime::{set_global_threads, SeedSequence};
use selfheal_units::{Celsius, DutyCycle, Hours, Millivolts, Seconds, Volts};

/// The paper's phase vocabulary: DC stress, accelerated recovery, AC
/// stress, passive room-temperature recovery, and a zero-length step
/// (the frozen-time edge the kernel must treat as a no-op).
fn phase_sequence() -> Vec<(DeviceCondition, Seconds)> {
    let hot = Environment::new(Volts::new(1.2), Celsius::new(110.0));
    let heal = Environment::new(Volts::new(-0.3), Celsius::new(110.0));
    let room = Environment::new(Volts::new(0.0), Celsius::new(20.0));
    vec![
        (DeviceCondition::dc_stress(hot), Hours::new(24.0).into()),
        (DeviceCondition::recovery(heal), Hours::new(6.0).into()),
        (DeviceCondition::ac_stress(hot), Hours::new(24.0).into()),
        (DeviceCondition::recovery(room), Hours::new(6.0).into()),
        (DeviceCondition::dc_stress(hot), Seconds::new(0.0)),
    ]
}

/// Asserts that a bank range and a scalar trap slice carry identical
/// state and an identical ordered ΔVth sum, to the bit.
fn assert_bit_identical(
    scalar: &[Trap],
    bank: &TrapBank,
    range: std::ops::Range<usize>,
    context: &str,
) {
    assert_eq!(scalar.len(), range.len(), "{context}");
    for (i, (s, b)) in scalar
        .iter()
        .zip(&bank.occupancies()[range.clone()])
        .enumerate()
    {
        assert_eq!(
            s.occupancy().to_bits(),
            b.to_bits(),
            "{context}: trap {i} occupancy"
        );
    }
    // The ΔVth reduction must reproduce the scalar iterator sum
    // exactly — both accumulate in trap index order.
    let delta: f64 = scalar.iter().map(|t| t.contribution().get()).sum();
    let got = bank.delta_vth_range(range);
    assert_eq!(delta.to_bits(), got.get().to_bits(), "{context}: delta_vth");
}

/// [`assert_bit_identical`] over the whole bank, which must also be
/// what [`TrapBank::delta_vth`] reports.
fn assert_bank_bit_identical(scalar: &[Trap], bank: &TrapBank, context: &str) {
    assert_bit_identical(scalar, bank, 0..bank.len(), context);
    let whole = bank.delta_vth_range(0..bank.len());
    assert_eq!(
        bank.delta_vth().get().to_bits(),
        whole.get().to_bits(),
        "{context}: delta_vth"
    );
}

#[test]
fn bank_matches_per_trap_advance_across_phase_sequence() {
    let seeds = SeedSequence::new(2014);
    let params = TrapEnsembleParams::default();
    let mut bank = TrapBank::sample(&params, &mut seeds.rng(0));
    // The scalar oracle draws from the same sampler and stream.
    let mut scalar: Vec<Trap> = params.sample_traps(&mut seeds.rng(0)).collect();
    assert_bank_bit_identical(&scalar, &bank, "fresh");
    for (step, (cond, dt)) in phase_sequence().into_iter().enumerate() {
        for trap in &mut scalar {
            trap.advance(cond, dt);
        }
        bank.advance_all(&PhaseRates::for_condition(cond), dt);
        assert_bank_bit_identical(&scalar, &bank, &format!("after phase {step}"));
    }
}

#[test]
fn population_fanout_is_worker_count_invariant_bitwise() {
    // The fan-out the daemon runs: a fleet whose shards sample and step
    // on the pool, with some chips reporting their own duty cycle.
    let mut config = FleetConfig::default();
    config.chips = 13;
    config.shards = 3;
    config.seed = 99;
    config.trap_params = TrapEnsembleParams::default();
    config.epoch_dt = Hours::new(6.0).into();
    let reports = [(0u64, 2usize, 0.3), (0, 9, 0.6), (3, 2, 0.8), (3, 12, 0.05)];
    let epochs = 6u64;

    // Reference: every chip's traps, drawn from its own stream
    // `SeedSequence::new(seed).child(shard).rng(local)`, stepped one
    // epoch at a time under its reported duty through the scalar oracle
    // on this thread.
    let mut reference: Vec<Vec<Trap>> = (0..config.chips)
        .map(|chip| {
            let shard = config.shard_of_chip(chip).expect("chip in fleet");
            let local = chip - config.shard_chip_range(shard).start;
            let seeds = SeedSequence::new(config.seed).child(shard as u64);
            config
                .trap_params
                .sample_traps(&mut seeds.rng(local as u64))
                .collect()
        })
        .collect();
    let mut duties = vec![DutyCycle::default(); config.chips];
    for epoch in 0..epochs {
        for &(at, chip, duty) in &reports {
            if at == epoch {
                duties[chip] = DutyCycle::new(duty);
            }
        }
        for (traps, &duty) in reference.iter_mut().zip(&duties) {
            let cond = DeviceCondition::new(config.active_env, duty);
            for trap in traps {
                trap.advance(cond, config.epoch_dt);
            }
        }
    }

    for workers in [1usize, 2, 8] {
        set_global_threads(workers);
        let mut fleet = FleetState::build(config.clone());
        for epoch in 0..epochs {
            for &(at, chip, duty) in &reports {
                if at == epoch {
                    fleet.fold_report(chip, DutyCycle::new(duty));
                }
            }
            fleet.advance_epoch();
        }
        for (chip, traps) in reference.iter().enumerate() {
            let (shard, range) = fleet.chip_view(chip).expect("chip in fleet");
            assert_bit_identical(
                traps,
                &shard.bank,
                range,
                &format!("workers={workers} chip={chip}"),
            );
        }
    }
}

/// Trap `i`'s occupancy from a value on the generators' 2^-52 grid: odd
/// traps take a third of it, which lies below 0.5 with bits under
/// 2^-53. On the grid alone `p∞ + (p − p∞)` is exact, so a frozen trap
/// relaxed towards p∞ = 1 by a decay of exactly 1 would keep its bits;
/// with the low bits it loses them.
fn with_low_bits(i: usize, occupancy: f64) -> f64 {
    if i % 2 == 1 {
        occupancy / 3.0
    } else {
        occupancy
    }
}

/// A deterministic trap vector of exactly `n` traps: τ values cycle the
/// extreme grid and occupancies walk a golden-ratio lattice, so every
/// chunk of the bank mixes frozen, permanent and live traps. The grid has
/// an even length, so the parity that [`with_low_bits`] reads flips every
/// lap: each grid point carries low bits on every other lap.
fn traps_of_len(n: usize) -> Vec<Trap> {
    let grid = tau_grid();
    (0..n)
        .map(|i| {
            let (tau_c0, tau_e0, permanent) = grid[i % grid.len()];
            #[allow(clippy::cast_precision_loss)]
            let lattice = (i as f64 * 0.618_033_988_749_895).fract();
            Trap::restore(
                Seconds::new(tau_c0),
                Seconds::new(tau_e0),
                Millivolts::new(0.35),
                permanent,
                with_low_bits(i + i / grid.len(), lattice),
            )
        })
        .collect()
}

/// The chunked kernel must be bit-exact at every chunk-boundary size:
/// one short of a full chunk (pure scalar tail), exactly one chunk, one
/// past it, and a large size with a ragged tail (10k + 3). Guards the
/// blocked-loop rewrite against any off-by-one between the lane blocks
/// and the tail.
#[test]
fn chunk_boundary_sizes_are_bit_exact() {
    for n in [LANES - 1, LANES, LANES + 1, 10_003] {
        let traps = traps_of_len(n);
        let mut scalar = traps.clone();
        let mut bank: TrapBank = traps.iter().copied().collect();
        for (step, (cond, dt)) in phase_sequence().into_iter().enumerate() {
            for trap in &mut scalar {
                trap.advance(cond, dt);
            }
            bank.advance_all(&PhaseRates::for_condition(cond), dt);
            assert_bank_bit_identical(&scalar, &bank, &format!("size={n} phase={step}"));
        }
    }
}

/// Chip trap ranges of every chunk-boundary size — empty, one short of
/// a chunk (a pure scalar tail), exactly one chunk and one past it —
/// packed back to back into one bank, as a fleet shard packs its chips.
fn boundary_chips() -> Vec<std::ops::Range<usize>> {
    let mut start = 0;
    [0, LANES - 1, LANES, LANES + 1]
        .into_iter()
        .map(|len| {
            start += len;
            start - len..start
        })
        .collect()
}

/// The τ grid deliberately spans denormal-adjacent to `f64::MAX` capture
/// constants and includes `tau_e0 = INFINITY` (a pre-frozen emitter), so
/// the sweep exercises overflow-free rate math, the `total_rate <= 0`
/// frozen branch, and the permanent-trap effective-τ substitution.
fn tau_grid() -> Vec<(f64, f64, bool)> {
    let mut grid = Vec::new();
    for &tau_c0 in &[1e-300, 1e-12, 1.0, 1e12, 1e300, f64::MAX] {
        for &tau_e0 in &[1e-12, 1.0, 1e12, f64::INFINITY] {
            for permanent in [false, true] {
                grid.push((tau_c0, tau_e0, permanent));
            }
        }
    }
    grid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn extreme_tau_sweep_is_bit_exact(
        occupancy in 0.0f64..=1.0,
        sampled_hours in 1e-9f64..1e6,
        zero_dt in 0usize..2,
        phase in 0usize..4,
    ) {
        let dt_hours = if zero_dt == 1 { 0.0 } else { sampled_hours };
        let (cond, _) = phase_sequence()[phase];
        let dt: Seconds = Hours::new(dt_hours).into();
        let rates = PhaseRates::for_condition(cond);

        let grid = tau_grid();
        // Each grid point twice: once at the drawn occupancy, once at a
        // third of it (`with_low_bits`).
        let traps: Vec<Trap> = grid
            .iter()
            .flat_map(|&point| [point, point])
            .enumerate()
            .map(|(i, (tau_c0, tau_e0, permanent))| {
                Trap::restore(
                    Seconds::new(tau_c0),
                    Seconds::new(tau_e0),
                    Millivolts::new(0.35),
                    permanent,
                    with_low_bits(i, occupancy),
                )
            })
            .collect();

        let mut scalar = traps.clone();
        for trap in &mut scalar {
            trap.advance(cond, dt);
        }

        let mut bank: TrapBank = traps.iter().copied().collect();
        bank.advance_all(&rates, dt);

        for (i, (want, got)) in scalar.iter().zip(bank.occupancies()).enumerate() {
            let (tau_c0, tau_e0, permanent) = grid[i / 2];
            prop_assert_eq!(
                want.occupancy().to_bits(),
                got.to_bits(),
                "phase={} dt={} trap={} (tau_c0={}, tau_e0={}, permanent={})",
                phase,
                dt_hours,
                i,
                tau_c0,
                tau_e0,
                permanent
            );
            // Occupancy stays a probability even at the extremes.
            prop_assert!((0.0..=1.0).contains(got));
        }
    }

    /// A steady-state fleet epoch fills a chip's decay and p∞ columns
    /// once and then steps from them epoch after epoch. Over the extreme
    /// τ grid (permanent, zero-rate and subnormal-rate traps included),
    /// in chips of 0, `LANES − 1`, `LANES` and `LANES + 1` traps, and
    /// across the phase sequence (its last phase a `dt = 0` fill) with
    /// each phase stepped twice from one fill, that must match
    /// `advance_range` and the scalar oracle to the bit. The p∞ column
    /// must hold `relaxation`'s p∞ for every trap, frozen or not.
    #[test]
    fn cached_decay_step_matches_ranged_advance_and_scalar_oracle_bitwise(
        occupancy in 0.0f64..=1.0,
        scale in 1e-9f64..1e3,
        rotate in 0usize..48,
    ) {
        let grid = tau_grid();
        let chips = boundary_chips();
        let len = chips.last().map_or(0, |chip| chip.end);
        // Odd traps carry bits under 2^-53 (`with_low_bits`).
        #[allow(clippy::cast_precision_loss)]
        let traps: Vec<Trap> = (0..len)
            .map(|i| {
                let (tau_c0, tau_e0, permanent) = grid[(i + rotate) % grid.len()];
                let lattice = (occupancy + i as f64 * 0.618_033_988_749_895).fract();
                Trap::restore(
                    Seconds::new(tau_c0),
                    Seconds::new(tau_e0),
                    Millivolts::new(0.35),
                    permanent,
                    with_low_bits(i, lattice),
                )
            })
            .collect();
        let mut scalar = traps.clone();
        let mut ranged: TrapBank = traps.iter().copied().collect();
        let mut cached = ranged.clone();
        let (mut decay, mut p_inf) = (vec![0.0; len], vec![0.0; len]);
        for (step, (cond, dt)) in phase_sequence().into_iter().enumerate() {
            let dt = Seconds::new(dt.get() * scale);
            let rates = PhaseRates::for_condition(cond);
            for chip in &chips {
                cached.fill_decay(chip.clone(), &rates, dt, &mut decay, &mut p_inf);
            }
            for (i, trap) in traps.iter().enumerate() {
                let (want, _) = rates.relaxation(trap.tau_c0().get(), trap.tau_e0().get());
                prop_assert_eq!(p_inf[i].to_bits(), want.to_bits(), "phase={} trap={}", step, i);
            }
            for epoch in 0..2 {
                for trap in &mut scalar {
                    trap.advance(cond, dt);
                }
                for chip in &chips {
                    ranged.advance_range(chip.clone(), &rates, dt);
                    cached.advance_range_cached(chip.clone(), &decay, &p_inf);
                }
                for chip in &chips {
                    let context =
                        format!("scale={scale} rotate={rotate} phase={step} epoch={epoch} chip={chip:?}");
                    assert_bit_identical(&scalar[chip.clone()], &ranged, chip.clone(), &context);
                    assert_bit_identical(&scalar[chip.clone()], &cached, chip.clone(), &context);
                }
            }
        }
    }

    /// Fleet epochs advance a shard's bank chip slice by chip slice.
    /// Those slices start at arbitrary offsets, so each one's chunk and
    /// tail split differs from a whole-bank advance. Splitting a bank at
    /// random points (plus one at `LANES - 1`, `LANES` or `LANES + 1`)
    /// and advancing range by range through the phase sequence must
    /// match the scalar oracle trap for trap, to the bit, with each
    /// range's `delta_vth_range` the ordered sum over that range.
    #[test]
    fn ranged_advance_matches_scalar_oracle_bitwise(
        size in 0usize..200,
        cuts in proptest::collection::vec(0usize..200, 0..8),
        lane_offset in 0usize..3,
    ) {
        let mut bounds: Vec<usize> = cuts.into_iter().map(|cut| cut % (size + 1)).collect();
        bounds.push((LANES - 1 + lane_offset).min(size));
        bounds.extend([0, size]);
        bounds.sort_unstable();
        bounds.dedup();

        let traps = traps_of_len(size);
        let mut scalar = traps.clone();
        let mut bank: TrapBank = traps.iter().copied().collect();
        for (step, (cond, dt)) in phase_sequence().into_iter().enumerate() {
            for trap in &mut scalar {
                trap.advance(cond, dt);
            }
            let rates = PhaseRates::for_condition(cond);
            for span in bounds.windows(2) {
                bank.advance_range(span[0]..span[1], &rates, dt);
            }
            for span in bounds.windows(2) {
                let range = span[0]..span[1];
                assert_bit_identical(
                    &scalar[range.clone()],
                    &bank,
                    range.clone(),
                    &format!("size={size} bounds={bounds:?} phase={step} range={range:?}"),
                );
            }
            assert_bank_bit_identical(&scalar, &bank, &format!("size={size} phase={step}"));
        }
    }
}
