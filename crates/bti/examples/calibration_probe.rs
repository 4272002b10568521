//! Calibration probe: prints the stochastic TD engine's headline numbers
//! against the paper's targets.
//!
//! Run with `cargo run -p selfheal-bti --example calibration_probe --release`.
//!
//! Paper targets (DAC'14, §5):
//! * 24 h DC stress @ 110 °C/1.2 V → ΔVth ≈ 35–40 mV (≈ 2.3 % RO slowdown)
//! * AC stress ≈ half of DC at the *path* level; since DC stresses only
//!   about half of the path devices, the per-device ratio printed here
//!   should be ≈ 0.25–0.3
//! * recovered fraction after 6 h: best case (110 °C/−0.3 V) ≈ 72 %,
//!   single-knob cases ≈ 55–65 %, passive (20 °C/0 V) ≈ 30–35 %
//! * 100 °C degradation ≈ 85–90 % of 110 °C (Fig. 5 gap)

use rand::SeedableRng;
use selfheal_bti::td::{PhaseRates, TrapBank, TrapEnsembleParams};
use selfheal_bti::{DeviceCondition, Environment};
use selfheal_units::{Celsius, Hours, Volts};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let params = TrapEnsembleParams::default();
    let n = 60;
    let devices: Vec<TrapBank> = (0..n)
        .map(|_| TrapBank::sample(&params, &mut rng))
        .collect();
    let shift = |device: &TrapBank| device.delta_vth().get();

    let stress = PhaseRates::for_condition(DeviceCondition::dc_stress(Environment::new(
        Volts::new(1.2),
        Celsius::new(110.0),
    )));

    println!("== recovery after 24 h DC stress @110 °C, 6 h sleep ==");
    let cases = [
        ("R20Z6   (passive)", 0.0, 20.0),
        ("AR20N6  (-0.3 V) ", -0.3, 20.0),
        ("AR110Z6 (110 C)  ", 0.0, 110.0),
        ("AR110N6 (both)   ", -0.3, 110.0),
    ];
    for (name, v, t) in cases {
        let mut recovered = 0.0;
        for device in &devices {
            let mut device = device.clone();
            device.advance_all(&stress, Hours::new(24.0).into());
            let aged = shift(&device);
            let sleep = PhaseRates::for_condition(DeviceCondition::recovery(Environment::new(
                Volts::new(v),
                Celsius::new(t),
            )));
            device.advance_all(&sleep, Hours::new(6.0).into());
            recovered += (aged - shift(&device)) / aged;
        }
        println!(
            "{name}: recovered fraction = {:.3}",
            recovered / f64::from(n)
        );
    }

    println!("== stress shape ==");
    let ac = PhaseRates::for_condition(DeviceCondition::ac_stress(Environment::new(
        Volts::new(1.2),
        Celsius::new(110.0),
    )));
    let s100 = PhaseRates::for_condition(DeviceCondition::dc_stress(Environment::new(
        Volts::new(1.2),
        Celsius::new(100.0),
    )));
    let (mut dc_sum, mut ac_sum, mut c100_sum, mut h3_sum) = (0.0, 0.0, 0.0, 0.0);
    for device in &devices {
        let mut x = device.clone();
        x.advance_all(&stress, Hours::new(24.0).into());
        dc_sum += shift(&x);
        let mut y = device.clone();
        y.advance_all(&ac, Hours::new(24.0).into());
        ac_sum += shift(&y);
        let mut z = device.clone();
        z.advance_all(&s100, Hours::new(24.0).into());
        c100_sum += shift(&z);
        let mut w = device.clone();
        w.advance_all(&stress, Hours::new(3.0).into());
        h3_sum += shift(&w);
    }
    println!(
        "mean dVth after 24 h DC @110 C = {:.1} mV",
        dc_sum / f64::from(n)
    );
    println!("per-device AC/DC ratio         = {:.3}", ac_sum / dc_sum);
    println!("100 C / 110 C ratio            = {:.3}", c100_sum / dc_sum);
    println!("3 h / 24 h shape ratio         = {:.3}", h3_sum / dc_sum);
}
