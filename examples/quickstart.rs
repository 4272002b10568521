//! Quickstart: stress a simulated 40 nm FPGA for a day, then deeply
//! rejuvenate it for a quarter of that time — the paper's headline
//! experiment in ~40 lines.
//!
//! Run with `cargo run --release --example quickstart`.

use rand::SeedableRng;
use selfheal::metrics::RecoveryAssessment;
use selfheal::RejuvenationTechnique;
use selfheal_bti::Environment;
use selfheal_fpga::{Chip, ChipId, RoMode};
use selfheal_units::{Celsius, Hours, Volts};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // A fresh chip off the (simulated) shelf.
    let mut chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
    let fresh = chip.measure(&mut rng);
    println!("fresh:  {} ({})", fresh.cut_delay, fresh.frequency);

    // 24 h of accelerated DC stress at 110 °C / 1.2 V.
    let stress = Environment::new(Volts::new(1.2), Celsius::new(110.0));
    chip.advance(RoMode::Static, stress, Hours::new(24.0).into());
    let aged = chip.measure(&mut rng);
    println!("aged:   {} ({})", aged.cut_delay, aged.frequency);

    // 6 h of accelerated self-healing: −0.3 V at 110 °C (α = 4).
    let technique = RejuvenationTechnique::Combined;
    chip.advance(
        RoMode::Sleep,
        technique.environment(),
        Hours::new(6.0).into(),
    );
    let healed = chip.measure(&mut rng);
    println!("healed: {} ({})", healed.cut_delay, healed.frequency);

    let assessment = RecoveryAssessment::new(fresh.cut_delay, aged.cut_delay, healed.cut_delay);
    println!(
        "\n{technique} for 1/4 of the stress time relaxed {} of the inflicted margin",
        assessment.margin_relaxed()
    );
    println!("(the paper's best case reports 72.4 %)");
}
