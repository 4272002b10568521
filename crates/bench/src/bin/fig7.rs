//! Fig. 7 — the same four recovery runs sliced the other way: recovery
//! under (a) 0 V and (b) −0.3 V, comparing 20 °C against 110 °C.
//!
//! Run with `cargo run -p selfheal-bench --release --bin fig7`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{campaign, fmt, BenchRun, Table};

fn main() {
    let mut run = BenchRun::start("fig7");
    run.say("Fig. 7: Recovery under (a) 0 V and (b) -0.3 V, 20 degC vs 110 degC\n");
    let outputs = {
        let _phase = run.phase("campaign");
        campaign()
    };

    for (panel, cold_case, hot_case) in [
        ("(a) 0 V", "R20Z6", "AR110Z6"),
        ("(b) -0.3 V", "AR20N6", "AR110N6"),
    ] {
        let cold = outputs.recovery(cold_case).expect("case ran");
        let hot = outputs.recovery(hot_case).expect("case ran");

        run.say(format!("{panel}:"));
        let mut table = Table::new(&[
            "t2 (h)",
            &format!("{cold_case} RD (ns)"),
            &format!("{hot_case} RD (ns)"),
        ]);
        for (c, h) in cold.series.iter().zip(&hot.series).step_by(2) {
            table.row(&[
                &fmt(c.elapsed.to_hours().get(), 1),
                &fmt(c.recovered_delay.get(), 3),
                &fmt(h.recovered_delay.get(), 3),
            ]);
        }
        run.table(&table);
        run.say("");
    }

    let rd = |name: &str| {
        outputs
            .recovery(name)
            .and_then(|r| r.series.last())
            .map(|p| p.recovered_delay.get())
            .unwrap_or(0.0)
    };
    run.say("--- shape checks (paper) ---");
    let mut cmp = Table::new(&["claim", "holds?", "values"]);
    cmp.row(&[
        "heat accelerates recovery at 0 V",
        if rd("AR110Z6") > rd("R20Z6") {
            "yes"
        } else {
            "NO"
        },
        &format!("{} vs {}", fmt(rd("AR110Z6"), 2), fmt(rd("R20Z6"), 2)),
    ]);
    cmp.row(&[
        "heat accelerates recovery at -0.3 V",
        if rd("AR110N6") > rd("AR20N6") {
            "yes"
        } else {
            "NO"
        },
        &format!("{} vs {}", fmt(rd("AR110N6"), 2), fmt(rd("AR20N6"), 2)),
    ]);
    run.table(&cmp);
    run.say(
        "\npaper: \"High temperature not only accelerates wearout, but also accelerates\n\
         recovery ... in both cases, high temperature accelerates recovery.\"",
    );

    run.value("recovered_delay_ar110z6_ns", rd("AR110Z6"));
    run.value("recovered_delay_r20z6_ns", rd("R20Z6"));
    run.value("recovered_delay_ar110n6_ns", rd("AR110N6"));
    run.value("recovered_delay_ar20n6_ns", rd("AR20N6"));
    run.finish("campaign seed=2014 cases=R20Z6,AR110Z6,AR20N6,AR110N6");
}
