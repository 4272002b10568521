//! Table 2 — delay change (%) for the different temperature conditions.
//!
//! Run with `cargo run -p selfheal-bench --release --bin table2`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{campaign, fmt, BenchRun, Table};

fn main() {
    let mut run = BenchRun::start("table2");
    run.say("Table 2: Delay change (%) under different stress conditions (24 h)\n");
    let outputs = {
        let _phase = run.phase("campaign");
        campaign(run.cache())
    };

    let mut table = Table::new(&[
        "Case",
        "Chip",
        "T (degC)",
        "Activity",
        "Delay change (%)",
        "Freq. degradation (%)",
    ]);
    for stress in &outputs.stresses {
        let delay_change_percent = 100.0 * stress.total_shift().get() / stress.start_delay.get();
        let activity = match stress.case.kind {
            selfheal_testbench::PhaseKind::Stress { activity } => activity.code(),
            selfheal_testbench::PhaseKind::Recovery { .. } => "-",
        };
        table.row(&[
            stress.case.name,
            &stress.case.chip.get().to_string(),
            &fmt(stress.case.temperature.get(), 0),
            activity,
            &fmt(delay_change_percent, 3),
            &fmt(stress.total_degradation().get(), 3),
        ]);
    }
    run.table(&table);

    run.say(
        "\npaper shape: 110 degC DC > 100 degC DC > 110 degC AC; the 48 h case adds only\n\
         a little over the 24 h case (log-time wearout).",
    );

    let degradation = |name: &str| {
        outputs
            .stress(name)
            .map(|s| s.total_degradation().get())
            .unwrap_or(f64::NAN)
    };
    run.value("dc110_degradation_pct", degradation("AS110DC24"));
    run.value("dc100_degradation_pct", degradation("AS100DC24"));
    run.value("ac110_degradation_pct", degradation("AS110AC24"));
    run.finish("campaign seed=2014 window=24h");
}
