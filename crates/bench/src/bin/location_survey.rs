//! The §4.2 die survey: "To pick this frequency, CUT is placed at
//! different locations on the FPGA, and a diagnostic program is run."
//!
//! Run with `cargo run -p selfheal-bench --release --bin location_survey`.
//! Pass `--json` for the run manifest instead of the human report, and
//! `--threads <n>` to size the pool — the survey runs every site through
//! `selfheal-runtime`, and its per-site seed streams make the readings
//! identical at any worker count.

use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_bti::Environment;
use selfheal_fpga::fabric::CutArray;
use selfheal_fpga::{Family, RoMode};
use selfheal_units::{Celsius, Hours, Millivolts, Volts};

fn main() {
    let mut run = BenchRun::start("location_survey");
    run.say("Die survey: CUT delay across a 4 x 3 placement grid\n");

    let mut array =
        CutArray::sample_seeded(&Family::commercial_40nm(), Millivolts::new(0.0), 4, 3, 2014);

    // Parallel per-site surveys; distinct survey seeds keep the fresh
    // and aged measurement-noise draws independent, as two real bench
    // sessions would be.
    let (fresh, fresh_outcome) = {
        let _phase = run.phase("fresh-survey");
        array.survey_cached(1, run.cache())
    };
    run.say(format!(
        "fresh survey (ns), spread {}:\n",
        array.fresh_delay_spread()
    ));
    let mut table = Table::new(&["site", "fresh (ns)", "aged (ns)", "shift (ns)"]);

    // Stress the whole fabric a day, then survey again.
    let (aged, aged_outcome) = {
        let _phase = run.phase("stress-and-resurvey");
        array.advance(
            RoMode::Static,
            Environment::new(Volts::new(1.2), Celsius::new(110.0)),
            Hours::new(24.0).into(),
        );
        array.survey_cached(2, run.cache())
    };
    run.say(format!(
        "result cache: fresh survey {fresh_outcome:?}, aged survey {aged_outcome:?}\n"
    ));

    let mut worst_site_shift = 0.0f64;
    for ((site, f), (_, a)) in fresh.iter().zip(&aged) {
        let (f, a) = (f.get(), a.get());
        worst_site_shift = worst_site_shift.max(a - f);
        table.row(&[&site.to_string(), &fmt(f, 3), &fmt(a, 3), &fmt(a - f, 3)]);
    }
    run.table(&table);

    let (slowest, delay) = array.slowest_site();
    run.say(format!(
        "\nslowest site after stress: {slowest} at {delay} — the survey's pick for a\n\
         worst-case CUT. Within-die spread comes from a systematic Vth gradient plus\n\
         local mismatch; every site ages by a comparable shift (same schedule), so the\n\
         relative ranking is stable — which is why the paper can measure one location\n\
         per chip and still compare chips through the Recovered Delay metric.",
    ));

    run.value("sites", fresh.len() as f64);
    run.value("fresh_spread_ns", array.fresh_delay_spread().get());
    run.value("slowest_site_delay_ns", delay.get());
    run.value("worst_site_shift_ns", worst_site_shift);
    run.finish("grid=4x3 family=commercial_40nm stress=1.2V/110C/24h seed=2014 survey_seeds=1,2");
}
