//! Metrics recorded inside pool jobs must not depend on how the jobs
//! were scheduled: a batch run on one worker and on eight leaves the
//! same `fpga.*` and `bti.*` registry entries. Histograms and gauges
//! must match bit for bit. Counters are f64 running sums, and a
//! fractional counter (`bti.td.trap_captures`) rounds differently when
//! its jobs add in another order, so counters match to 1e-12 relative.
//!
//! The registry is process-global, so this file holds a single test and
//! runs in its own process.

use selfheal_bti::analytic::AnalyticBti;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_fpga::{Chip, ChipId, RoMode};
use selfheal_runtime::{Pool, SeedSequence};
use selfheal_telemetry::metrics::{self, Metric};
use selfheal_units::{Celsius, Hours, Volts};

/// One job: sample chip `i`, age it a day under DC stress, read its ring
/// oscillator, and age an analytic device alongside it.
fn age_and_measure(seeds: &SeedSequence, i: usize) {
    let hot = Environment::new(Volts::new(1.2), Celsius::new(110.0));
    let mut rng = seeds.rng(i as u64);
    let id = ChipId::new(u32::try_from(i).expect("small batch") + 1);
    let mut chip = Chip::commercial_40nm(id, &mut rng);
    chip.advance(RoMode::Static, hot, Hours::new(24.0).into());
    chip.measure(&mut rng);
    let mut device = AnalyticBti::default();
    device.advance(
        DeviceCondition::dc_stress(hot),
        Hours::new(f64::from(id.get())).into(),
    );
}

/// Runs the batch on a fresh registry and returns its `fpga.*` and
/// `bti.*` entries.
fn pooled_metrics(workers: usize) -> Vec<(String, Metric)> {
    metrics::reset();
    let seeds = SeedSequence::new(2014);
    Pool::new(workers).par_map_indexed(vec![(); 24], move |i, ()| age_and_measure(&seeds, i));
    metrics::snapshot()
        .metrics
        .into_iter()
        .filter(|(name, _)| name.starts_with("fpga.") || name.starts_with("bti."))
        .collect()
}

#[test]
fn pooled_metrics_do_not_depend_on_the_worker_count() {
    metrics::set_enabled(true);
    let serial = pooled_metrics(1);
    for name in [
        "fpga.chip.ro_frequency_mhz",
        "fpga.chip.cut_delay_ns",
        "bti.td.expected_occupied",
        "bti.analytic.delta_vth_mv",
    ] {
        assert!(
            serial
                .iter()
                .any(|(n, m)| n == name && matches!(m, Metric::Histogram(_))),
            "{name} is recorded as a histogram"
        );
    }
    for _ in 0..4 {
        let pooled = pooled_metrics(8);
        assert_eq!(pooled.len(), serial.len());
        for ((name, got), (want_name, want)) in pooled.iter().zip(&serial) {
            assert_eq!(name, want_name);
            match (got, want) {
                (Metric::Counter(got), Metric::Counter(want)) => assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "{name}: {got} vs {want}"
                ),
                _ => assert_eq!(got, want, "{name}"),
            }
        }
    }
}
