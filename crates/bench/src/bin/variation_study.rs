//! Chip-to-chip variation study: re-run the whole Table 1 campaign across
//! independent chip populations and report the spread of every headline
//! metric — the §7 gap ("the effects of chip to chip variations on aging
//! are also ignored for now") filled in.
//!
//! Run with `cargo run -p selfheal-bench --release --bin variation_study`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal::study::VariationStudy;
use selfheal_bench::{fmt, paper, BenchRun, Table};

fn main() {
    let mut run = BenchRun::start("variation_study");
    let runs = 10;
    run.say(format!(
        "Variation study: {runs} independent five-chip populations (quick cadence)\n"
    ));

    let outcome = {
        let _phase = run.phase("study");
        VariationStudy {
            runs,
            base_seed: 2014,
        }
        .run()
    };

    run.say("Margin relaxed (%) per recovery condition:\n");
    let mut table = Table::new(&["case", "mean", "std dev", "min", "max"]);
    for (name, stats) in &outcome.margin_relaxed {
        table.row(&[
            name,
            &fmt(stats.mean, 1),
            &fmt(stats.std_dev, 1),
            &fmt(stats.min, 1),
            &fmt(stats.max, 1),
        ]);
    }
    run.table(&table);

    run.say("\nStress metrics:\n");
    let mut stress = Table::new(&["metric", "mean", "std dev", "min", "max"]);
    let d = &outcome.dc110_degradation;
    stress.row(&[
        "24 h DC @110 degC degradation (%)",
        &fmt(d.mean, 2),
        &fmt(d.std_dev, 2),
        &fmt(d.min, 2),
        &fmt(d.max, 2),
    ]);
    let r = &outcome.ac_over_dc;
    stress.row(&[
        "AC/DC ratio",
        &fmt(r.mean, 2),
        &fmt(r.std_dev, 2),
        &fmt(r.min, 2),
        &fmt(r.max, 2),
    ]);
    run.table(&stress);

    let headline = outcome
        .margin_relaxed
        .iter()
        .find(|(n, _)| n == "AR110N6")
        .map(|(_, s)| s)
        .expect("headline case present");
    run.say(format!(
        "\nthe paper's single-population 72.4 % headline sits {} the simulated\n\
         chip-to-chip spread ({} +/- {}): within-2-sigma = {}.",
        if headline.contains_within_sigma(paper::AR110N6_MARGIN_RELAXED_PERCENT, 2.0) {
            "inside"
        } else {
            "outside"
        },
        fmt(headline.mean, 1),
        fmt(headline.std_dev, 1),
        headline.contains_within_sigma(paper::AR110N6_MARGIN_RELAXED_PERCENT, 2.0),
    ));

    run.value("runs", runs as f64);
    run.value("ar110n6_margin_relaxed_mean_pct", headline.mean);
    run.value("ar110n6_margin_relaxed_std_pct", headline.std_dev);
    run.value("dc110_degradation_mean_pct", d.mean);
    run.value("ac_over_dc_mean", r.mean);
    run.finish("runs=10 base_seed=2014 cadence=quick");
}
