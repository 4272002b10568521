//! End-to-end reproduction checks: every headline claim of the paper,
//! exercised through the public API exactly as a downstream user would.

use selfheal::experiment::{ExperimentOutputs, PaperExperiment};
use selfheal::MarginBudget;
use selfheal_fpga::ChipId;
use selfheal_units::Nanoseconds;
use std::sync::OnceLock;

/// One shared campaign for all claims (the run dominates test time).
fn outputs() -> &'static ExperimentOutputs {
    static OUTPUTS: OnceLock<ExperimentOutputs> = OnceLock::new();
    OUTPUTS.get_or_init(|| PaperExperiment::quick(2014).run())
}

#[test]
fn abstract_claim_quarter_time_deep_rejuvenation() {
    // "we bring stressed chips back to within 90% of their original
    // margin by actively rejuvenating for only 1/4 of the stress time"
    let o = outputs();
    let budget = MarginBudget::typical();
    for name in ["AR20N6", "AR110Z6", "AR110N6"] {
        let rec = o.recovery(name).expect("case ran");
        // α = 4 by construction:
        let alpha = rec.stress_duration.get() / rec.case.duration.to_seconds().get();
        assert!((alpha - 4.0).abs() < 1e-9, "{name}: α = {alpha}");
        // Margin check on the nominal ~90 ns path with a 10 % guardband.
        let fresh = Nanoseconds::new(90.0);
        let current = fresh + rec.assessment.remaining();
        assert!(
            budget.within_90_percent(fresh, current),
            "{name}: available = {}",
            budget.available_fraction(fresh, current)
        );
    }
}

#[test]
fn headline_margin_relaxed_is_near_724() {
    let o = outputs();
    let relaxed = o.recovery("AR110N6").unwrap().margin_relaxed().get();
    assert!(
        (relaxed - 72.4).abs() < 10.0,
        "AR110N6 margin relaxed = {relaxed} % (paper: 72.4 %)"
    );
}

#[test]
fn knob_ordering_matches_figures_6_to_8() {
    let o = outputs();
    let relaxed = |name: &str| o.recovery(name).unwrap().margin_relaxed().get();
    let passive = relaxed("R20Z6");
    let neg = relaxed("AR20N6");
    let heat = relaxed("AR110Z6");
    let both = relaxed("AR110N6");
    assert!(
        passive < neg && passive < heat,
        "both knobs beat passive gating"
    );
    assert!(both > neg && both > heat, "combined beats single knobs");
    assert!(passive < 45.0, "passive recovery is weak (§2.2): {passive}");
    assert!(both > 60.0, "deep rejuvenation is strong: {both}");
}

#[test]
fn ac_stress_is_roughly_half_of_dc() {
    let o = outputs();
    let ac = o.stress("AS110AC24").unwrap().total_degradation().get();
    let dc = o
        .stress_on("AS110DC24", ChipId::new(2))
        .unwrap()
        .total_degradation()
        .get();
    let ratio = ac / dc;
    assert!(
        ratio > 0.3 && ratio < 0.75,
        "AC/DC = {ratio} (paper: about half)"
    );
}

#[test]
fn temperature_accelerates_wearout_modestly() {
    let o = outputs();
    let hot = o
        .stress_on("AS110DC24", ChipId::new(5))
        .unwrap()
        .total_degradation()
        .get();
    let warm = o.stress("AS100DC24").unwrap().total_degradation().get();
    assert!(warm < hot);
    assert!(warm / hot > 0.6, "the Fig. 5 gap is modest: {}", warm / hot);
    // Magnitudes in the paper's ballpark (≈ 1.9–2.3 %).
    assert!(hot > 1.0 && hot < 4.0, "110 °C: {hot} %");
    assert!(warm > 0.8 && warm < 3.5, "100 °C: {warm} %");
}

#[test]
fn degradation_is_fast_then_slow() {
    // "In the first 3 hours ... relatively fast and then becomes slower."
    let o = outputs();
    let dc = o.stress_on("AS110DC24", ChipId::new(2)).unwrap();
    let total = dc.total_degradation().get();
    let at_4h = dc
        .series
        .iter()
        .find(|p| p.elapsed.to_hours().get() >= 4.0)
        .unwrap()
        .frequency_degradation
        .get();
    assert!(
        at_4h > 0.45 * total,
        "first 4 of 24 hours already inflict {at_4h} of {total}"
    );
}

#[test]
fn alpha_ratio_governs_not_absolute_time() {
    // Table 5: same α, different stress lengths, same margin relaxation.
    let o = outputs();
    let short = o.recovery("AR110N6").unwrap().margin_relaxed().get();
    let long = o.recovery("AR110N12").unwrap().margin_relaxed().get();
    assert!(
        (short - long).abs() < 10.0,
        "AR110N6 {short} % vs AR110N12 {long} %"
    );
}

#[test]
fn model_tracks_measurement_for_every_case() {
    // §5: "test results match the modeling results well."
    let o = outputs();
    for s in &o.stresses {
        let fit = s.fit.as_ref().expect("stress fit extracted");
        let rel = fit.rmse_ns / s.total_shift().get().max(0.1);
        assert!(rel < 0.35, "{}: relative RMSE {rel}", s.case.name);
    }
    for r in &o.recoveries {
        let fit = r.fit.as_ref().expect("recovery fit extracted");
        let scale = r.assessment.recovered.get().max(0.1);
        assert!(
            fit.rmse_ns / scale < 0.35,
            "{}: relative RMSE {}",
            r.case.name,
            fit.rmse_ns / scale
        );
    }
}

#[test]
fn recovered_delay_metric_cancels_chip_baselines() {
    // Different chips have different fresh frequencies (process
    // variation), yet the RD-based outcomes are comparable — the paper's
    // §5.2 rationale. Verify the fresh baselines really differ.
    let o = outputs();
    let starts: Vec<f64> = o.stresses.iter().map(|s| s.start_delay.get()).collect();
    let min = starts.iter().cloned().fold(f64::MAX, f64::min);
    let max = starts.iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        max - min > 0.2,
        "chips must differ at birth (spread = {} ns)",
        max - min
    );
}

#[test]
fn campaign_is_deterministic_and_seed_sensitive() {
    let a = PaperExperiment::quick(1).run();
    let b = PaperExperiment::quick(1).run();
    let c = PaperExperiment::quick(2).run();
    assert_eq!(a, b, "same seed, same campaign");
    assert_ne!(a, c, "different seed, different chips");
}
