//! The determinism gate for `selfheal-runtime`: parallel execution must
//! be *bit-for-bit* identical to serial execution at any worker count.
//!
//! Two pillars:
//!
//! 1. **`par_map` == serial** on the Fig. 5 ensemble workload (sample a
//!    trap population, stress it a simulated day) for pools of 1, 2 and
//!    8 workers — a property test over seeds and population sizes —
//!    and on the fan-out the fleet daemon runs: `FleetState::build`
//!    samples bit-identical shard columns at 1, 2 and 8 workers.
//! 2. **Seed splitting is pinned**: the per-index RNG streams derived by
//!    [`SeedSequence`] are fixed constants. If these move, every cached
//!    result and every recorded manifest value silently changes meaning,
//!    so the constants are locked here as a compatibility contract.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfheal_bti::td::{PhaseRates, TrapBank, TrapEnsembleParams};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_fleet::{FleetConfig, FleetState};
use selfheal_runtime::{set_global_threads, Pool, SeedSequence};
use selfheal_units::{Celsius, Hours, Seconds, Volts};

/// The Fig. 5 unit of work: sample device `i` from `(seed, i)` and run a
/// 24 h DC stress at 110 °C. Returns the full ensemble state, so the
/// equality checks below compare every trap, not a summary statistic.
fn stressed_device(seeds: &SeedSequence, i: u64) -> TrapBank {
    let params = TrapEnsembleParams::default();
    let mut device = TrapBank::sample(&params, &mut seeds.rng(i));
    let stress = DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
    let dt: Seconds = Hours::new(24.0).into();
    device.advance_all(&PhaseRates::for_condition(stress), dt);
    device
}

fn serial_reference(seed: u64, count: usize) -> Vec<TrapBank> {
    let seeds = SeedSequence::new(seed);
    (0..count as u64)
        .map(|i| stressed_device(&seeds, i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn par_map_matches_serial_at_every_worker_count(seed in 0u64..10_000, count in 1usize..48) {
        let expected = serial_reference(seed, count);
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            let seeds = SeedSequence::new(seed);
            let parallel = pool.par_map_indexed(vec![(); count], move |i, ()| {
                stressed_device(&seeds, i as u64)
            });
            prop_assert_eq!(
                &expected,
                &parallel,
                "workers={} seed={} count={}",
                workers,
                seed,
                count
            );
        }
    }

    #[test]
    fn population_helper_is_worker_count_invariant(seed in 0u64..10_000, chips in 1usize..32) {
        // The fleet build samples its shards on the *global* pool; its
        // contract is the same purity in (config, seed): every shard
        // column bit-identical at any worker count.
        let mut config = FleetConfig::default();
        config.chips = chips;
        config.shards = chips.min(4);
        config.seed = seed;
        config.trap_params.mean_trap_count = 6.0;
        let columns = |workers: usize| {
            set_global_threads(workers);
            let fleet = FleetState::build(config.clone());
            fleet
                .shards()
                .iter()
                .map(|shard| {
                    let bank = &shard.bank;
                    [bank.tau_c0(), bank.tau_e(), bank.step_mv(), bank.occupancies()]
                        .map(|column| column.iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
                })
                .collect::<Vec<_>>()
        };
        let serial = columns(1);
        for workers in [2usize, 8] {
            prop_assert_eq!(&serial, &columns(workers), "workers={}", workers);
        }
    }
}

#[test]
fn par_matches_serial_with_sampling_enabled() {
    // The streaming sampler must be a pure observer: with metrics
    // recording on and the sampler thread snapshotting the registry at an
    // aggressive cadence into a status file, parallel results stay
    // bit-for-bit identical to serial.
    use std::time::Duration;
    let expected = serial_reference(2014, 24);
    selfheal_telemetry::metrics::set_enabled(true);
    let status =
        std::env::temp_dir().join(format!("selfheal-determinism-{}.prom", std::process::id()));
    let sampler = selfheal_telemetry::Sampler::start(status.clone(), Duration::from_millis(1))
        .expect("sampler starts");
    for workers in [2usize, 8] {
        let pool = Pool::new(workers);
        let seeds = SeedSequence::new(2014);
        let parallel =
            pool.par_map_indexed(vec![(); 24], move |i, ()| stressed_device(&seeds, i as u64));
        assert_eq!(expected, parallel, "workers={workers} with sampler running");
    }
    sampler.stop();
    std::fs::remove_file(&status).ok();
}

#[test]
fn derived_streams_are_pinned() {
    // Compatibility contract: these constants must never change. They
    // pin the SplitMix64 derivation (golden-gamma index spacing) that
    // every parallel sampling site builds its RNG streams from.
    let seeds = SeedSequence::new(2014);
    assert_eq!(seeds.derive(0), 0x2fba_78c1_bf16_9c2e);
    assert_eq!(seeds.derive(1), 0xcbff_b808_8df4_fa89);
    assert_eq!(seeds.derive(2), 0xf43c_e23a_0b3a_20d8);
    assert_eq!(SeedSequence::new(2015).derive(0), 0x9f70_7a87_4442_f0c1);

    // Streams separate: sibling indices and sibling bases never collide.
    assert_ne!(seeds.derive(0), seeds.derive(1));
    assert_ne!(seeds.derive(0), SeedSequence::new(2015).derive(0));

    // The first draws of each derived StdRng stream are themselves
    // stable — the RNG consumes the derived value as its seed.
    let mut s0 = seeds.rng(0);
    let mut s0_again = StdRng::seed_from_u64(seeds.derive(0));
    assert_eq!(s0.next_u64(), s0_again.next_u64());
}

#[test]
fn child_sequences_branch_independently() {
    let root = SeedSequence::new(7);
    let child_a = root.child(0);
    let child_b = root.child(1);
    // A child's stream differs from its sibling's and from the parent's
    // stream at the same index.
    assert_ne!(child_a.derive(0), child_b.derive(0));
    assert_ne!(child_a.derive(0), root.derive(0));
    // Rebuilding the same child reproduces the same streams.
    assert_eq!(root.child(0).derive(5), child_a.derive(5));
}

#[test]
fn par_chunks_reassembles_in_input_order() {
    let pool = Pool::new(4);
    let items: Vec<u64> = (0..257).collect();
    let doubled = pool.par_chunks(items.clone(), 10, |_start, chunk| {
        chunk.into_iter().map(|x| x * 2).collect()
    });
    let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
    assert_eq!(doubled, expected);
}
