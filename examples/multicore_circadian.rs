//! The §6.2 scenario: an 8-core server under a day/night workload for a
//! year, comparing conventional power gating against circadian
//! rejuvenation with on-chip heaters.
//!
//! Run with `cargo run --release --example multicore_circadian`.

use selfheal_multicore::scheduler::{CircadianRotation, HeaterAware, NaiveGating, Scheduler};
use selfheal_multicore::sim::{MulticoreSim, SimConfig, SystemReport};
use selfheal_multicore::workload::Workload;

fn race(scheduler: Box<dyn Scheduler>, days: f64) -> SystemReport {
    let mut sim = MulticoreSim::new(SimConfig::default(), scheduler, Workload::diurnal(2, 8));
    sim.run_days(days)
}

fn main() {
    let days = 365.0;
    println!("8-core server, diurnal demand 2–8 cores, {days} days\n");

    let reports = [
        race(Box::new(NaiveGating), days),
        race(Box::new(CircadianRotation::paper_default()), days),
        race(Box::new(HeaterAware::paper_default()), days),
    ];

    println!(
        "{:<20} {:>14} {:>12} {:>12} {:>14}",
        "scheduler", "worst dVth", "mean dVth", "spread", "margin used"
    );
    for r in &reports {
        println!(
            "{:<20} {:>11.2} mV {:>9.2} mV {:>9.2} mV {:>13.1} %",
            r.scheduler,
            r.worst_delta_vth_mv,
            r.mean_delta_vth_mv,
            r.wear_spread_mv(),
            r.worst_margin_consumed.get() * 100.0
        );
    }

    println!("\nper-core wear (mV):");
    for r in &reports {
        let cores: Vec<String> = r
            .per_core_mv
            .iter()
            .map(|v| format!("{:5.1}", v.get()))
            .collect();
        println!("  {:<20} [{}]", r.scheduler, cores.join(" "));
    }

    let naive = &reports[0];
    // total_cmp keeps the selection total even if a model ever emits NaN.
    let Some(best) = reports.iter().min_by(|a, b| {
        a.worst_delta_vth_mv
            .get()
            .total_cmp(&b.worst_delta_vth_mv.get())
    }) else {
        unreachable!("reports array is non-empty");
    };
    println!(
        "\n{} cuts the critical core's wear to {:.0} % of naive gating while serving\n\
         the identical demand — margin that a designer can hand back as frequency,\n\
         power, or years of extra lifetime (paper §6.2).",
        best.scheduler,
        100.0 * best.worst_delta_vth_mv / naive.worst_delta_vth_mv
    );
}
