//! The slice planner's probe, pinned to the stepped schedule it
//! summarises.
//!
//! `TrapBank::walk_rhythm` runs each trap of a slice through a rhythm in
//! closed form, one relaxation per phase, and `TrapBank::rhythm_bound`
//! sums each trap's larger phase endpoint into a bound on the peak.
//! These properties hold the walk to a `TrapBank::advance_range` replay
//! at every phase boundary, and the bound to a replay sub-stepped 64
//! times per phase: never below its peak, and equal to the
//! phase-boundary peak when no trap starts above its active-phase p∞.
//! Bit-exactness is not required of either: the bound sums phase by
//! phase over traps, the replay trap by trap within a phase.

use std::ops::ControlFlow;

use proptest::prelude::*;
use rand::SeedableRng;
use selfheal::RejuvenationTechnique;
use selfheal_bti::td::{PhaseRates, Rhythm, RhythmPhase, TrapBank, TrapEnsembleParams};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{float, Celsius, DutyCycle, Millivolts, Ratio, Seconds, Volts};

/// Sub-steps per phase of the fine replay.
const SUB_STEPS: usize = 64;

/// Agreement to 1e-9 relative (exact zeros included).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// `traps` traps drawn from `seed`, aged `stress_h` at DC under `env`
/// and then healed `heal_h` under `heal` (either may be zero).
fn aged_bank(
    traps: usize,
    seed: u64,
    env: Environment,
    heal: DeviceCondition,
    (stress_h, heal_h): (f64, f64),
) -> TrapBank {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut bank: TrapBank = TrapEnsembleParams::default()
        .traps(traps, &mut rng)
        .into_iter()
        .collect();
    let dc = PhaseRates::for_condition(DeviceCondition::dc_stress(env));
    bank.advance_all(&dc, Seconds::new(stress_h * 3600.0));
    bank.advance_all(
        &PhaseRates::for_condition(heal),
        Seconds::new(heal_h * 3600.0),
    );
    bank
}

/// The schedule's phases in order, as (rates, length).
fn phases(rhythm: &Rhythm) -> Vec<RhythmPhase> {
    let mut out = Vec::with_capacity(rhythm.phases());
    if rhythm.opening_sleep {
        out.push(rhythm.sleep);
    }
    for _ in 0..rhythm.cycles {
        out.extend([rhythm.active, rhythm.sleep]);
    }
    out
}

/// The slice's shift at every phase boundary of a replay that steps each
/// phase in `sub_steps` equal `advance_range` steps, from the end of the
/// uncharged phases on: the peak the bound must cover.
fn replay_peak(bank: &TrapBank, rhythm: &Rhythm, sub_steps: usize) -> f64 {
    let mut replay = bank.clone();
    let all = 0..replay.len();
    let mut peak = f64::NEG_INFINITY;
    for (index, phase) in phases(rhythm).into_iter().enumerate() {
        let charged = index >= rhythm.uncharged_phases();
        if charged {
            peak = float::max_total(peak, replay.delta_vth().get());
        }
        for _ in 0..sub_steps {
            replay.advance_range(all.clone(), &phase.rates, phase.len / sub_steps as f64);
            if charged {
                peak = float::max_total(peak, replay.delta_vth().get());
            }
        }
    }
    peak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_walk_and_the_bound_match_stepped_replays(
        slice in (1usize..=40, any::<u64>()),
        active in (1.0f64..1.3, 60.0f64..120.0, 0.0f64..=1.0),
        schedule in (0.5f64..=64.0, 1.0f64..=48.0, 1usize..=60, 0usize..4, any::<bool>()),
        start in (0.0f64..200.0, 0.0f64..30.0),
    ) {
        let (traps, seed) = slice;
        let (alpha, period_h, cycles, technique, opening_sleep) = schedule;
        let env = Environment::new(Volts::new(active.0), Celsius::new(active.1));
        let heal = DeviceCondition::recovery(RejuvenationTechnique::ALL[technique].environment());
        let bank = aged_bank(traps, seed, env, heal, start);
        let alpha = Ratio::new(alpha).expect("α in [0.5, 64]");
        let (active_len, sleep_len) = alpha.split_cycle(Seconds::new(period_h * 3600.0));
        let rhythm = Rhythm {
            active: RhythmPhase {
                rates: PhaseRates::for_condition(DeviceCondition::new(env, DutyCycle::new(active.2))),
                len: active_len,
            },
            sleep: RhythmPhase { rates: PhaseRates::for_condition(heal), len: sleep_len },
            cycles,
            opening_sleep,
        };

        // Every trap's phase ends against one stepped replay per phase.
        let mut ends = vec![vec![0.0; rhythm.phases()]; bank.len()];
        let walked = bank.walk_rhythm(0..bank.len(), &rhythm, |first, phase, _, end| {
            for (j, &p) in end.iter().enumerate() {
                ends[first + j][phase] = p;
            }
            ControlFlow::<()>::Continue(())
        });
        prop_assert_eq!(walked, ControlFlow::Continue(()));
        let mut replay = bank.clone();
        for (index, phase) in phases(&rhythm).into_iter().enumerate() {
            replay.advance_range(0..replay.len(), &phase.rates, phase.len);
            for (k, &p) in replay.occupancies().iter().enumerate() {
                prop_assert!(close(ends[k][index], p), "trap {} phase {}: {} vs {}", k, index, ends[k][index], p);
            }
        }

        // The bound covers the fine replay's peak, and is that peak at
        // the phase boundaries when every trap rises while active.
        let mut sums = vec![0.0; rhythm.phases()];
        let bound = bank
            .rhythm_bound(0..bank.len(), &rhythm, Millivolts::new(f64::INFINITY), &mut sums)
            .get();
        let fine = replay_peak(&bank, &rhythm, SUB_STEPS);
        prop_assert!(bound >= fine || close(bound, fine), "bound {} under the sub-stepped peak {}", bound, fine);
        let rises = bank.occupancies().iter().enumerate().all(|(k, &p)| {
            p <= rhythm.active.rates.relaxation(bank.tau_c0()[k], bank.tau_e()[k]).0
        });
        if rises {
            let coarse = replay_peak(&bank, &rhythm, 1);
            prop_assert!(close(bound, coarse), "bound {} vs the phase-boundary peak {}", bound, coarse);
        }
    }
}
