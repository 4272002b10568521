//! Table 1 — the test-case matrix (input to every other artefact).
//!
//! Run with `cargo run -p selfheal-bench --release --bin table1`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_testbench::cases;

fn main() {
    let mut run = BenchRun::start("table1");
    run.say("Table 1: Test cases for Accelerated Wearout and Self-Healing\n");
    let all = {
        let _phase = run.phase("case-matrix");
        cases::table1()
    };
    let mut table = Table::new(&[
        "Phase",
        "Case",
        "Chip",
        "T (degC)",
        "V (V)",
        "Time (h)",
        "Activity",
        "Active/Sleep",
    ]);
    let mut stress_count = 0usize;
    let mut recovery_count = 0usize;
    for case in &all {
        let (phase, activity, alpha) = match case.kind {
            cases::PhaseKind::Stress { activity } => {
                stress_count += 1;
                ("Active (Stress)", activity.code(), "-")
            }
            cases::PhaseKind::Recovery { .. } => {
                recovery_count += 1;
                ("Sleep (Recovery)", "-", "4")
            }
        };
        table.row(&[
            phase,
            case.name,
            &case.chip.get().to_string(),
            &fmt(case.temperature.get(), 0),
            &fmt(case.supply.get(), 1),
            &fmt(case.duration.get(), 0),
            activity,
            alpha,
        ]);
    }
    run.table(&table);
    run.say("\nBaseline: all chips stressed at 20 degC / 1.2 V for 2 h initially (burn-in).");

    run.value("cases_total", all.len() as f64);
    run.value("stress_cases", stress_count as f64);
    run.value("recovery_cases", recovery_count as f64);
    run.finish("cases=table1 alpha=4 burn_in=20C/1.2V/2h");
}
