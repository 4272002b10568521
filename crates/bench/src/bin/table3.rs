//! Table 3 — the extracted first-order model parameters.
//!
//! The paper extracts {β, A, C} per condition from its measurements; this
//! binary prints the equivalents extracted from the simulated campaign:
//! Eq. (10)'s β and C per stress case, Eq. (11)'s (a, b, c) per recovery
//! case.
//!
//! Run with `cargo run -p selfheal-bench --release --bin table3`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{campaign, fmt, BenchRun, Table};

fn main() {
    let mut run = BenchRun::start("table3");
    run.say("Table 3: Extracted model parameters\n");
    let outputs = {
        let _phase = run.phase("campaign");
        campaign()
    };

    run.say("Stress model: dTd(t) = beta * ln(1 + C*t)      (Eq. 10)\n");
    let mut stress = Table::new(&["Case", "Chip", "beta (ns)", "C (1/s)", "RMSE (ns)"]);
    let mut worst_stress_rmse = 0.0f64;
    for s in &outputs.stresses {
        if let Some(fit) = &s.fit {
            worst_stress_rmse = worst_stress_rmse.max(fit.rmse_ns);
            stress.row(&[
                s.case.name,
                &s.case.chip.get().to_string(),
                &fmt(fit.beta_ns, 4),
                &format!("{:.2e}", fit.c_per_s),
                &fmt(fit.rmse_ns, 4),
            ]);
        }
    }
    run.table(&stress);

    run.say("\nRecovery model: RD(t2) = a * ln(1+c*t2) / (1 + b*ln(1+c*(t1+t2)))   (Eq. 11)\n");
    let mut rec = Table::new(&["Case", "Chip", "a (ns)", "b", "c (1/s)", "RMSE (ns)"]);
    let mut worst_recovery_rmse = 0.0f64;
    for r in &outputs.recoveries {
        if let Some(fit) = &r.fit {
            worst_recovery_rmse = worst_recovery_rmse.max(fit.rmse_ns);
            rec.row(&[
                r.case.name,
                &r.case.chip.get().to_string(),
                &fmt(fit.a_ns, 4),
                &fmt(fit.b, 3),
                &format!("{:.2e}", fit.c_per_s),
                &fmt(fit.rmse_ns, 4),
            ]);
        }
    }
    run.table(&rec);

    run.say(
        "\npaper: \"beta, A and C are fitting parameters and can be extracted from\n\
         measurement results.\" The authors do not publish their values; the check here\n\
         is that one parameter set per condition reproduces its whole curve (low RMSE).",
    );

    run.value(
        "stress_fits",
        outputs.stresses.iter().filter(|s| s.fit.is_some()).count() as f64,
    );
    run.value(
        "recovery_fits",
        outputs
            .recoveries
            .iter()
            .filter(|r| r.fit.is_some())
            .count() as f64,
    );
    run.value("worst_stress_rmse_ns", worst_stress_rmse);
    run.value("worst_recovery_rmse_ns", worst_recovery_rmse);
    run.finish("campaign seed=2014 models=eq10,eq11");
}
