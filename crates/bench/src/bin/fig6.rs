//! Fig. 6 — recovered delay over 6 h of sleep at (a) 20 °C and
//! (b) 110 °C, comparing 0 V gating against the −0.3 V reverse bias, with
//! model curves.
//!
//! Run with `cargo run -p selfheal-bench --release --bin fig6`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{campaign, fmt, sparkline, BenchRun, Table};

fn main() {
    let mut run = BenchRun::start("fig6");
    run.say("Fig. 6: Recovery at (a) 20 degC and (b) 110 degC, 0 V vs -0.3 V\n");
    let outputs = {
        let _phase = run.phase("campaign");
        campaign()
    };

    for (panel, zero_case, neg_case) in [
        ("(a) 20 degC", "R20Z6", "AR20N6"),
        ("(b) 110 degC", "AR110Z6", "AR110N6"),
    ] {
        let zero = outputs.recovery(zero_case).expect("case ran");
        let neg = outputs.recovery(neg_case).expect("case ran");
        let zero_fit = zero.fit.as_ref().expect("fit");
        let neg_fit = neg.fit.as_ref().expect("fit");

        run.say(format!("{panel}:"));
        let mut table = Table::new(&[
            "t2 (h)",
            &format!("{zero_case} RD (ns)"),
            "model (ns)",
            &format!("{neg_case} RD (ns)"),
            "model (ns)",
        ]);
        for (z, n) in zero.series.iter().zip(&neg.series).step_by(2) {
            table.row(&[
                &fmt(z.elapsed.to_hours().get(), 1),
                &fmt(z.recovered_delay.get(), 3),
                &fmt(zero_fit.predict(z.elapsed).get(), 3),
                &fmt(n.recovered_delay.get(), 3),
                &fmt(neg_fit.predict(n.elapsed).get(), 3),
            ]);
        }
        run.table(&table);
        let neg_curve: Vec<f64> = neg.series.iter().map(|p| p.recovered_delay.get()).collect();
        run.say(format!("{neg_case} shape: {}\n", sparkline(&neg_curve)));
    }

    run.say("--- shape checks (paper) ---");
    let rd = |name: &str| {
        outputs
            .recovery(name)
            .and_then(|r| r.series.last())
            .map(|p| p.recovered_delay.get())
            .unwrap_or(0.0)
    };
    let mut cmp = Table::new(&["claim", "holds?", "values"]);
    cmp.row(&[
        "-0.3 V beats 0 V at 20 degC",
        if rd("AR20N6") > rd("R20Z6") {
            "yes"
        } else {
            "NO"
        },
        &format!("{} vs {}", fmt(rd("AR20N6"), 2), fmt(rd("R20Z6"), 2)),
    ]);
    cmp.row(&[
        "-0.3 V beats 0 V at 110 degC",
        if rd("AR110N6") > rd("AR110Z6") {
            "yes"
        } else {
            "NO"
        },
        &format!("{} vs {}", fmt(rd("AR110N6"), 2), fmt(rd("AR110Z6"), 2)),
    ]);
    run.table(&cmp);
    run.say(
        "\npaper: \"stressed chips rejuvenate faster with a negative supply voltage for\n\
         both temperatures ... the recovery is significantly accelerated even at room\n\
         temperature.\"",
    );

    run.value("recovered_delay_ar20n6_ns", rd("AR20N6"));
    run.value("recovered_delay_r20z6_ns", rd("R20Z6"));
    run.value("recovered_delay_ar110n6_ns", rd("AR110N6"));
    run.value("recovered_delay_ar110z6_ns", rd("AR110Z6"));
    run.finish("campaign seed=2014 cases=R20Z6,AR20N6,AR110Z6,AR110N6");
}
