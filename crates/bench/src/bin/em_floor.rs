//! The §7 caveat quantified: self-healing recovers BTI, but
//! electromigration and hot-carrier damage keep ratcheting — over the
//! years the *irreversible* floor under the sawtooth rises, bounding what
//! any rejuvenation rhythm can buy back.
//!
//! Run with `cargo run -p selfheal-bench --release --bin em_floor`.
//! Pass `--json` for the run manifest instead of the human report.

use selfheal_bench::{fmt, BenchRun, Table};
use selfheal_bti::analytic::AnalyticBti;
use selfheal_bti::em::Electromigration;
use selfheal_bti::hci::HotCarrier;
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{Celsius, Hours, Seconds, Volts};

fn main() {
    let mut run = BenchRun::start("em_floor");
    run.say("EM floor: BTI self-healing vs irreversible interconnect drift\n");

    // A daily circadian rhythm at a hot operating point, for five years.
    let active = DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(90.0)));
    let sleep = DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)));
    let day_active: Seconds = Hours::new(19.2).into(); // α = 4
    let day_sleep: Seconds = Hours::new(4.8).into();

    // Path assumptions: 90 ns fresh delay, half of it interconnect RC.
    // BTI converts device mV to path ns through the fitted β ≈ 0.05 ns/mV
    // (Ns/LD = 0.5 over a 450-device path at 0.8 V overdrive).
    let beta_ns_per_mv = 0.056;
    let wire_delay_ns = 45.0;

    let mut bti = AnalyticBti::default();
    let mut em = Electromigration::new();
    let mut hci = HotCarrier::new();
    // HCI strikes the toggling subset of the logic; model its exposure as
    // half-duty switching while active.
    let toggling = selfheal_bti::DeviceCondition::ac_stress(active.env());

    let mut table = Table::new(&[
        "year",
        "BTI shift (ns)",
        "EM shift (ns)",
        "HCI shift (ns)",
        "total (ns)",
        "healable share (%)",
    ]);
    let mut final_total = 0.0;
    let mut final_healable_share = 0.0;
    {
        let _phase = run.phase("five-year-rhythm");
        for year in 1..=5u32 {
            for _ in 0..365 {
                bti.advance(active, day_active);
                em.advance(active, day_active);
                hci.advance(toggling, day_active);
                bti.advance(sleep, day_sleep);
                em.advance(sleep, day_sleep); // no-ops: gated wires carry no current,
                hci.advance(sleep, day_sleep); // gated logic does not switch
            }
            let bti_ns = bti.delta_vth().get() * beta_ns_per_mv;
            let em_ns = em.resistance_drift().get() * wire_delay_ns;
            let hci_ns = hci.delta_vth().get() * beta_ns_per_mv;
            let total = bti_ns + em_ns + hci_ns;
            let healable =
                (bti.delta_vth().get() - bti.permanent_delta_vth().get()) * beta_ns_per_mv;
            final_total = total;
            final_healable_share = 100.0 * healable / total;
            table.row(&[
                &year.to_string(),
                &fmt(bti_ns, 3),
                &fmt(em_ns, 3),
                &fmt(hci_ns, 3),
                &fmt(total, 3),
                &fmt(final_healable_share, 1),
            ]);
        }
    }
    run.table(&table);

    run.say(
        "\nreading: BTI saturates (log-time) and most of it stays healable, while the\n\
         EM term grows linearly, HCI grows as sqrt(t), and neither is touchable by\n\
         any sleep condition — the 'healable share' of total margin consumption\n\
         falls year over year. This is the quantified version of the paper's SS7\n\
         admission that its first-order model 'is optimistic in that it ignores\n\
         other aging effects, such as Electromigration'.",
    );

    run.value("year5_total_shift_ns", final_total);
    run.value("year5_healable_share_pct", final_healable_share);
    run.value(
        "year5_em_shift_ns",
        em.resistance_drift().get() * wire_delay_ns,
    );
    run.finish("years=5 rhythm=19.2h/4.8h active=1.2V/90C sleep=-0.3V/110C");
}
