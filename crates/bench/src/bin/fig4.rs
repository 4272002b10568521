//! Fig. 4 — AC vs DC stress: 24 h at 110 °C, frequency degradation over
//! time; AC lands at about half of DC.
//!
//! Run with `cargo run -p selfheal-bench --release --bin fig4`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{campaign, fmt, paper, sparkline, BenchRun, Table};
use selfheal_fpga::ChipId;

fn main() {
    let mut run = BenchRun::start("fig4");
    run.say("Fig. 4: AC/DC stress test results (24 h @ 110 degC)\n");
    let outputs = {
        let _phase = run.phase("campaign");
        campaign()
    };

    let ac = outputs.stress("AS110AC24").expect("AC case ran");
    let dc = outputs
        .stress_on("AS110DC24", ChipId::new(2))
        .expect("DC case ran");

    let mut table = Table::new(&["t (h)", "AC deg (%)", "DC deg (%)"]);
    // Print hourly rows (the campaign samples every 20 min).
    for (a, d) in ac.series.iter().zip(&dc.series).step_by(3) {
        table.row(&[
            &fmt(a.elapsed.to_hours().get(), 0),
            &fmt(a.frequency_degradation.get(), 3),
            &fmt(d.frequency_degradation.get(), 3),
        ]);
    }
    run.table(&table);

    let ac_curve: Vec<f64> = ac
        .series
        .iter()
        .map(|p| p.frequency_degradation.get())
        .collect();
    let dc_curve: Vec<f64> = dc
        .series
        .iter()
        .map(|p| p.frequency_degradation.get())
        .collect();
    run.say(format!("\nAC shape: {}", sparkline(&ac_curve)));
    run.say(format!("DC shape: {}", sparkline(&dc_curve)));

    let ratio = ac.total_degradation().get() / dc.total_degradation().get();
    let onset = dc
        .series
        .iter()
        .find(|p| p.elapsed.to_hours().get() >= 3.0)
        .map(|p| p.frequency_degradation.get())
        .unwrap_or(0.0)
        / dc.total_degradation().get();
    run.say("\n--- paper vs measured ---");
    let mut cmp = Table::new(&["quantity", "paper", "measured"]);
    cmp.row(&[
        "AC/DC final degradation ratio",
        &format!("~{}", fmt(paper::AC_OVER_DC_RATIO, 2)),
        &fmt(ratio, 2),
    ]);
    cmp.row(&["fast-then-slow onset (3 h / 24 h)", "> 0.4", &fmt(onset, 2)]);
    run.table(&cmp);
    run.say(
        "\npaper: \"AC stress can be viewed as a symmetric stress and recovery process\n\
         ... which is about half of that in the DC stress case.\"",
    );

    run.value("ac_over_dc_ratio", ratio);
    run.value("onset_fraction_3h", onset);
    run.value("ac_final_degradation_pct", ac.total_degradation().get());
    run.value("dc_final_degradation_pct", dc.total_degradation().get());
    run.finish("campaign seed=2014 cases=AS110AC24,AS110DC24@chip2");
}
