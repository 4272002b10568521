//! Device-population operations on top of the execution runtime.
//!
//! Monte Carlo figures (Fig. 5/6 ensembles, variation studies) work on
//! *populations* of independently sampled devices. These helpers run the
//! per-device work through `selfheal-runtime`'s deterministic pool:
//! every device gets an RNG stream derived from `(seed, device index)`
//! alone, so the population is bit-for-bit identical whether it was
//! sampled serially or across any number of workers.

use selfheal_runtime::{self as runtime, SeedSequence};
use selfheal_telemetry as telemetry;
use selfheal_units::Seconds;

use crate::condition::DeviceCondition;

use super::ensemble::{TrapEnsemble, TrapEnsembleParams};
use super::kernel::PhaseRates;

/// Samples `count` independent devices on the global pool.
///
/// Device `i` draws from the RNG stream `SeedSequence::new(seed).rng(i)`,
/// which makes the population a pure function of `(params, count, seed)`
/// — the determinism property the runtime test suite pins.
///
/// # Panics
///
/// Panics if `params` fails [`TrapEnsembleParams::validate`] (as
/// [`TrapEnsemble::sample`] does).
#[must_use]
pub fn sample_population(
    params: &TrapEnsembleParams,
    count: usize,
    seed: u64,
) -> Vec<TrapEnsemble> {
    // Caller-side root span: keeps the pool's internal spans nested, so
    // manifests list the same phases at any worker count.
    let _span = telemetry::span!("bti.population_sample", devices = count);
    let params = params.clone();
    let seeds = SeedSequence::new(seed);
    runtime::par_map_indexed(vec![(); count], move |i, ()| {
        TrapEnsemble::sample(&params, &mut seeds.rng(i as u64))
    })
}

/// Advances every device by `dt` under a shared condition, in parallel.
///
/// Trap kinetics are deterministic given the state (no RNG), so the
/// result is identical to a serial loop; the pool only buys wall-clock.
#[must_use]
pub fn advance_population(
    devices: Vec<TrapEnsemble>,
    cond: DeviceCondition,
    dt: Seconds,
) -> Vec<TrapEnsemble> {
    let _span = telemetry::span!("bti.population_advance", devices = devices.len());
    // Hoist the condition's rate multipliers out of the fan-out: every
    // device shares the same condition, so the transcendentals are paid
    // once here rather than once per device (or, before the kernel
    // rewrite, once per trap).
    let rates = PhaseRates::for_condition(cond);
    runtime::par_map(devices, move |mut device| {
        device.advance_with_rates(&rates, dt);
        device
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Environment;
    use selfheal_units::{Celsius, Hours, Volts};

    fn stress() -> DeviceCondition {
        DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)))
    }

    #[test]
    fn population_is_a_pure_function_of_seed() {
        let p = TrapEnsembleParams::default();
        let a = sample_population(&p, 40, 7);
        let b = sample_population(&p, 40, 7);
        assert_eq!(a, b);
        let c = sample_population(&p, 40, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_sampling_matches_manual_serial_loop() {
        let p = TrapEnsembleParams::default();
        let seeds = SeedSequence::new(2014);
        let serial: Vec<TrapEnsemble> = (0..50)
            .map(|i| TrapEnsemble::sample(&p, &mut seeds.rng(i)))
            .collect();
        let parallel = sample_population(&p, 50, 2014);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_advance_matches_serial_advance() {
        let p = TrapEnsembleParams::default();
        let devices = sample_population(&p, 30, 99);
        let dt: Seconds = Hours::new(24.0).into();
        let mut serial = devices.clone();
        for device in &mut serial {
            device.advance(stress(), dt);
        }
        let parallel = advance_population(devices, stress(), dt);
        assert_eq!(serial, parallel);
    }
}
