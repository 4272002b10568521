//! Runs the full reproduction and prints the paper-vs-measured summary as
//! markdown — the source of the repository's `EXPERIMENTS.md` numbers.
//!
//! Run with `cargo run -p selfheal-bench --release --bin all_experiments`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal::MarginBudget;
use selfheal_bench::{campaign, fmt, paper, BenchRun};
use selfheal_bti::analytic::{AnalyticBti, CycleModel};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_fpga::ChipId;
use selfheal_multicore::scheduler::{CircadianRotation, NaiveGating, Scheduler};
use selfheal_multicore::sim::{MulticoreSim, SimConfig};
use selfheal_multicore::workload::Workload;
use selfheal_units::{Celsius, Hours, Nanoseconds, Ratio, Volts};

fn main() {
    let mut run = BenchRun::start("all_experiments");
    run.say("# Experiment summary (generated by `all_experiments`)\n");
    run.say(format!(
        "Seed {}: five simulated chips, paper sampling cadence.\n",
        selfheal_bench::CAMPAIGN_SEED
    ));
    let outputs = {
        let _phase = run.phase("campaign");
        campaign()
    };

    run.say("| artefact | quantity | paper | measured | shape holds |");
    run.say("|---|---|---|---|---|");

    let mut shapes_held = 0usize;
    let mut shapes_total = 0usize;
    let mut tally = |b: bool| -> &'static str {
        shapes_total += 1;
        if b {
            shapes_held += 1;
            "yes"
        } else {
            "NO"
        }
    };

    // Fig. 4 — AC vs DC.
    let ac = outputs.stress("AS110AC24").unwrap();
    let dc2 = outputs.stress_on("AS110DC24", ChipId::new(2)).unwrap();
    let ratio = ac.total_degradation().get() / dc2.total_degradation().get();
    run.say(format!(
        "| Fig. 4 | AC/DC degradation ratio | ~{} | {} | {} |",
        fmt(paper::AC_OVER_DC_RATIO, 2),
        fmt(ratio, 2),
        tally(ratio > 0.3 && ratio < 0.75)
    ));

    // Fig. 5 / Table 2 — temperature.
    let hot = outputs.stress_on("AS110DC24", ChipId::new(5)).unwrap();
    let warm = outputs.stress("AS100DC24").unwrap();
    run.say(format!(
        "| Fig. 5 | 24 h degradation @110 degC (%) | ~{} | {} | {} |",
        fmt(paper::DC110_DEGRADATION_PERCENT, 1),
        fmt(hot.total_degradation().get(), 2),
        tally(hot.total_degradation().get() > 1.0 && hot.total_degradation().get() < 4.0)
    ));
    run.say(format!(
        "| Fig. 5 | 24 h degradation @100 degC (%) | ~{} | {} | {} |",
        fmt(paper::DC100_DEGRADATION_PERCENT, 1),
        fmt(warm.total_degradation().get(), 2),
        tally(warm.total_degradation().get() < hot.total_degradation().get())
    ));
    run.say(format!(
        "| Table 3 | model tracks measurement (RMSE @110 degC, ns) | low | {} | {} |",
        fmt(hot.fit.as_ref().unwrap().rmse_ns, 3),
        tally(hot.fit.as_ref().unwrap().rmse_ns < 0.3)
    ));

    // Figs. 6–8 / Table 4 — recovery knobs.
    let relaxed = |name: &str| outputs.recovery(name).unwrap().margin_relaxed().get();
    let (passive, neg, heat, both) = (
        relaxed("R20Z6"),
        relaxed("AR20N6"),
        relaxed("AR110Z6"),
        relaxed("AR110N6"),
    );
    run.say(format!(
        "| Fig. 6 | negative voltage accelerates recovery | yes | {} > {} (110C: {} > {}) | {} |",
        fmt(neg, 1),
        fmt(passive, 1),
        fmt(both, 1),
        fmt(heat, 1),
        tally(neg > passive && both > heat)
    ));
    run.say(format!(
        "| Fig. 7 | heat accelerates recovery | yes | {} > {} (at -0.3V: {} > {}) | {} |",
        fmt(heat, 1),
        fmt(passive, 1),
        fmt(both, 1),
        fmt(neg, 1),
        tally(heat > passive && both > neg)
    ));
    run.say(format!(
        "| Fig. 8 | combined condition recovers fastest | yes | {} % vs next best {} % | {} |",
        fmt(both, 1),
        fmt(neg.max(heat), 1),
        tally(both > neg && both > heat)
    ));
    run.say(format!(
        "| Table 4 | AR110N6 margin relaxed (%) | {} | {} | {} |",
        fmt(paper::AR110N6_MARGIN_RELAXED_PERCENT, 1),
        fmt(both, 1),
        tally((both - paper::AR110N6_MARGIN_RELAXED_PERCENT).abs() < 12.0)
    ));

    // Headline: within 90 % of original margin for accelerated cases.
    let budget = MarginBudget::typical();
    let fresh = Nanoseconds::new(90.0);
    let within = ["AR20N6", "AR110Z6", "AR110N6"].iter().all(|name| {
        let rec = outputs.recovery(name).unwrap();
        budget.within_90_percent(fresh, fresh + rec.assessment.remaining())
    });
    let within_str = tally(within);
    run.say(format!(
        "| headline | accelerated cases within {}% of original margin | yes | {} | {} |",
        fmt(paper::MARGIN_AVAILABLE_THRESHOLD * 100.0, 0),
        within_str,
        within_str
    ));

    // Table 5 — alpha generalisation.
    let short = relaxed("AR110N6");
    let long = relaxed("AR110N12");
    run.say(format!(
        "| Table 5 | alpha = 4 gives same relaxation at 24 h and 48 h | same | {} vs {} | {} |",
        fmt(short, 1),
        fmt(long, 1),
        tally((short - long).abs() < 12.0)
    ));

    // Fig. 9 — long-run cycles.
    let stress = DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
    let heal = DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)));
    let model = CycleModel {
        alpha: Ratio::PAPER_ALPHA,
        period: Hours::new(30.0).into(),
        active: stress,
        sleep: heal,
    };
    let (healed, base) = {
        let _phase = run.phase("long-run-cycles");
        let healed = model.final_delta_vth(8).get();
        let mut baseline = AnalyticBti::default();
        baseline.advance(stress, Hours::new(8.0 * 30.0).into());
        (healed, baseline.delta_vth().get())
    };
    run.say(format!(
        "| Fig. 9 | healing bounds long-run shift | bounded | {} vs {} mV ({}x) | {} |",
        fmt(healed, 1),
        fmt(base, 1),
        fmt(base / healed, 1),
        tally(healed < 0.8 * base)
    ));

    // Fig. 10 — multicore.
    let (naive, rotate) = {
        let _phase = run.phase("multicore-race");
        let race = |s: Box<dyn Scheduler>| {
            MulticoreSim::new(SimConfig::default(), s, Workload::constant(6)).run_days(180.0)
        };
        (
            race(Box::new(NaiveGating)),
            race(Box::new(CircadianRotation::paper_default())),
        )
    };
    run.say(format!(
        "| Fig. 10 | rotation+healing beats naive gating (worst core, mV) | better | {} vs {} | {} |",
        fmt(rotate.worst_delta_vth_mv.get(), 1),
        fmt(naive.worst_delta_vth_mv.get(), 1),
        tally(rotate.worst_delta_vth_mv < naive.worst_delta_vth_mv)
    ));

    run.say("\nPer-artefact detail: run the dedicated binaries (`fig1`, `fig4`..`fig10`, `table1`..`table5`).");

    run.value("shapes_held", shapes_held as f64);
    run.value("shapes_total", shapes_total as f64);
    run.value("ar110n6_margin_relaxed_pct", both);
    run.value("ac_over_dc_ratio", ratio);
    run.finish("campaign seed=2014 artefacts=fig4..fig10,table2..table5");
}
