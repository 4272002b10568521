//! Table 4 — the design-margin-relaxed parameter per recovery condition,
//! plus the "within 90 % of original margin" headline check.
//!
//! Run with `cargo run -p selfheal-bench --release --bin table4`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal::MarginBudget;
use selfheal_bench::{campaign, fmt, paper, BenchRun, Table};

fn main() {
    let mut run = BenchRun::start("table4");
    run.say("Table 4: Design-margin-relaxed parameter per recovery condition\n");
    let outputs = {
        let _phase = run.phase("campaign");
        campaign(run.cache())
    };
    let budget = MarginBudget::typical();

    let mut table = Table::new(&[
        "Case",
        "T (degC)",
        "V (V)",
        "Inflicted (ns)",
        "Recovered (ns)",
        "Margin relaxed (%)",
        "Margin available (%)",
        "Within 90%?",
    ]);
    let mut all_within_90 = true;
    for rec in &outputs.recoveries {
        if rec.case.name == "AR110N12" {
            continue; // Table 5's row
        }
        let a = &rec.assessment;
        // Margin accounting against a 10 % guardband on a ~90 ns path.
        let fresh = selfheal_units::Nanoseconds::new(90.0);
        let current = fresh + a.remaining();
        let available = budget.available_fraction(fresh, current);
        let within = budget.within_90_percent(fresh, current);
        all_within_90 &= within || rec.case.name == "R20Z6";
        table.row(&[
            rec.case.name,
            &fmt(rec.case.temperature.get(), 0),
            &fmt(rec.case.supply.get(), 1),
            &fmt(a.inflicted.get(), 3),
            &fmt(a.recovered.get(), 3),
            &fmt(rec.margin_relaxed().get(), 1),
            &fmt(available.get() * 100.0, 1),
            if within { "yes" } else { "no" },
        ]);
    }
    run.table(&table);

    let headline = outputs
        .recovery("AR110N6")
        .expect("headline case ran")
        .margin_relaxed()
        .get();
    run.say("\n--- paper vs measured ---");
    let mut cmp = Table::new(&["quantity", "paper", "measured"]);
    cmp.row(&[
        "AR110N6 margin relaxed (%)",
        &fmt(paper::AR110N6_MARGIN_RELAXED_PERCENT, 1),
        &fmt(headline, 1),
    ]);
    run.table(&cmp);
    run.say(
        "\npaper: \"the design margin relaxed parameter is as high as 72.4 %, which means\n\
         we can bring the stressed chip back to 27.6 % of original design margin in only\n\
         1/4 of the stress time. In all accelerated cases, we can bring the stressed\n\
         chips back to within 90 % of their original margin.\"",
    );

    run.value("ar110n6_margin_relaxed_pct", headline);
    run.value(
        "paper_margin_relaxed_pct",
        paper::AR110N6_MARGIN_RELAXED_PERCENT,
    );
    run.value(
        "accelerated_cases_within_90pct",
        if all_within_90 { 1.0 } else { 0.0 },
    );
    run.finish("campaign seed=2014 fresh=90ns guardband=10pct");
}
