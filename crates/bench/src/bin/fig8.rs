//! Fig. 8 — remaining delay shift ΔTd over time during recovery, all four
//! conditions overlaid with their model curves; the combined
//! 110 °C/−0.3 V case recovers fastest.
//!
//! Run with `cargo run -p selfheal-bench --release --bin fig8`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{campaign, fmt, sparkline, BenchRun, Table};

const CASES: [&str; 4] = ["AR110N6", "AR110Z6", "AR20N6", "R20Z6"];

fn main() {
    let mut run = BenchRun::start("fig8");
    run.say("Fig. 8: Delay change over time during recovery (four conditions + models)\n");
    let outputs = {
        let _phase = run.phase("campaign");
        campaign()
    };

    let mut table = Table::new(&[
        "t2 (h)",
        "110C/-0.3V (ns)",
        "110C/0V (ns)",
        "20C/-0.3V (ns)",
        "20C/0V (ns)",
    ]);
    let series: Vec<_> = CASES
        .iter()
        .map(|name| &outputs.recovery(name).expect("case ran").series)
        .collect();
    for i in (0..series[0].len()).step_by(2) {
        let t = series[0][i].elapsed.to_hours().get();
        let cells: Vec<String> = series
            .iter()
            .map(|s| fmt(s[i].remaining_shift.get(), 3))
            .collect();
        table.row(&[&fmt(t, 1), &cells[0], &cells[1], &cells[2], &cells[3]]);
    }
    run.table(&table);

    run.say("");
    for name in CASES {
        let rec = outputs.recovery(name).expect("case ran");
        let curve: Vec<f64> = rec.series.iter().map(|p| p.remaining_shift.get()).collect();
        let fit = rec.fit.as_ref().expect("fit");
        run.say(format!(
            "{name:9} shape: {}   (model RMSE {} ns)",
            sparkline(&curve),
            fmt(fit.rmse_ns, 3)
        ));
    }

    // Final remaining shifts must be ordered: combined < single-knob < passive.
    let remaining = |name: &str| {
        outputs
            .recovery(name)
            .and_then(|r| r.series.last())
            .map(|p| p.remaining_shift.get())
            .unwrap_or(f64::NAN)
    };
    run.say("\n--- shape check (paper) ---");
    let combined = remaining("AR110N6");
    let passive = remaining("R20Z6");
    run.say(format!(
        "final remaining shift: combined {} ns < passive {} ns : {}",
        fmt(combined, 3),
        fmt(passive, 3),
        if combined < passive { "yes" } else { "NO" }
    ));
    run.say(
        "\npaper: \"High temperature (110 degC), combining with negative voltage (-0.3 V)\n\
         achieves the highest recovery rate\"; test results match the modeling results.",
    );

    run.value("remaining_combined_ns", combined);
    run.value("remaining_passive_ns", passive);
    run.value("remaining_ar110z6_ns", remaining("AR110Z6"));
    run.value("remaining_ar20n6_ns", remaining("AR20N6"));
    run.finish("campaign seed=2014 cases=AR110N6,AR110Z6,AR20N6,R20Z6");
}
