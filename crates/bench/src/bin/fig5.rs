//! Fig. 5 — accelerated wearout at 100 °C and 110 °C over 24 h, measured
//! delay change with the fitted Eq. (10) model curves.
//!
//! Run with `cargo run -p selfheal-bench --release --bin fig5`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{campaign, fmt, paper, sparkline, BenchRun, Table};
use selfheal_fpga::ChipId;

fn main() {
    let mut run = BenchRun::start("fig5");
    run.say("Fig. 5: Accelerated wearout at 110 degC and 100 degC for 1 day\n");
    let outputs = {
        let _phase = run.phase("campaign");
        campaign()
    };

    let hot = outputs
        .stress_on("AS110DC24", ChipId::new(5))
        .expect("110 degC case ran");
    let warm = outputs.stress("AS100DC24").expect("100 degC case ran");
    let hot_fit = hot.fit.as_ref().expect("110 degC fit extracted");
    let warm_fit = warm.fit.as_ref().expect("100 degC fit extracted");

    let mut table = Table::new(&[
        "t (h)",
        "110C meas (ns)",
        "110C model (ns)",
        "100C meas (ns)",
        "100C model (ns)",
    ]);
    for (h, w) in hot.series.iter().zip(&warm.series).step_by(6) {
        table.row(&[
            &fmt(h.elapsed.to_hours().get(), 0),
            &fmt(h.delay_shift.get(), 3),
            &fmt(hot_fit.predict(h.elapsed).get(), 3),
            &fmt(w.delay_shift.get(), 3),
            &fmt(warm_fit.predict(w.elapsed).get(), 3),
        ]);
    }
    run.table(&table);

    let hot_curve: Vec<f64> = hot.series.iter().map(|p| p.delay_shift.get()).collect();
    run.say(format!("\n110 degC shape: {}", sparkline(&hot_curve)));

    run.say("\n--- paper vs measured ---");
    let mut cmp = Table::new(&["quantity", "paper", "measured"]);
    cmp.row(&[
        "24 h degradation @110 degC (%)",
        &format!("~{}", fmt(paper::DC110_DEGRADATION_PERCENT, 1)),
        &fmt(hot.total_degradation().get(), 2),
    ]);
    cmp.row(&[
        "24 h degradation @100 degC (%)",
        &format!("~{}", fmt(paper::DC100_DEGRADATION_PERCENT, 1)),
        &fmt(warm.total_degradation().get(), 2),
    ]);
    cmp.row(&[
        "model RMSE @110 degC (ns)",
        "(tracks measurement)",
        &fmt(hot_fit.rmse_ns, 3),
    ]);
    run.table(&cmp);
    run.say(
        "\npaper: \"initially, frequency degrades fast and then slower. High temperature\n\
         accelerates the degradation.\"",
    );

    run.value("dc110_degradation_pct", hot.total_degradation().get());
    run.value("dc100_degradation_pct", warm.total_degradation().get());
    run.value("model_rmse_110c_ns", hot_fit.rmse_ns);
    run.finish("campaign seed=2014 cases=AS110DC24@chip5,AS100DC24");
}
