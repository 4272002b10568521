//! FPGA substrate for the accelerated self-healing reproduction.
//!
//! The paper demonstrates its techniques on commercial 40 nm LUT-based
//! FPGAs. No such hardware is available here, so this crate *is* the FPGA:
//! a transistor-level model of the structures the paper describes, built so
//! that the paper's two gate-level hypotheses (§3.2) hold by construction
//! and can be tested rather than assumed:
//!
//! * **Hypothesis 1** — under DC stress, once the inputs are fixed, the set
//!   of stressed transistors on the path of interest (POI) is fixed too.
//! * **Hypothesis 2** — recovery acts only on stressed transistors; fresh
//!   or fully-recovered devices are unaffected.
//!
//! Layered structure, bottom-up:
//!
//! * [`Transistor`] — a device with a fresh threshold (process variation
//!   included) and a BTI trap ensemble from [`selfheal_bti`].
//! * [`Lut`] — the Fig. 2 pass-transistor 2-input LUT: a 6-device pass
//!   tree plus a 2-device output buffer, with static stress analysis.
//! * [`RoutingBlock`] — the inter-LUT routing stage on the POI.
//! * [`InverterChain`] — LUT-mapped inverters + routing, the POI of Eq. 7.
//! * [`RingOscillator`] — the Fig. 3 test structure: 75 LUT inverters,
//!   an enable gate that switches between AC and DC stress modes.
//! * [`FrequencyCounter`] — the 16-bit counter and Eqs. (14)–(15).
//! * [`Chip`] — one simulated FPGA: fabric, variation corner, CUT and
//!   counter, with the paper's measurement pipeline.
//! * [`Odometer`] — a differential on-chip aging sensor (the paper's
//!   refs [7, 8]), the hardware a reactive policy would poll.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use selfheal_fpga::{Chip, ChipId, RoMode};
//! use selfheal_bti::Environment;
//! use selfheal_units::{Celsius, Hours, Volts};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut chip = Chip::commercial_40nm(ChipId::new(1), &mut rng);
//! let fresh = chip.measure(&mut rng);
//!
//! // 24 h of accelerated DC stress at 110 °C.
//! let stress = Environment::new(Volts::new(1.2), Celsius::new(110.0));
//! chip.advance(RoMode::Static, stress, Hours::new(24.0).into());
//! let aged = chip.measure(&mut rng);
//! assert!(aged.frequency < fresh.frequency, "stress slows the oscillator");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chip;
pub mod counter;
pub mod delay;
pub mod fabric;
pub mod family;
pub mod lut;
pub mod netlist;
pub mod odometer;
pub mod ring_oscillator;
pub mod routing;
pub mod transistor;

pub use chip::{Chip, ChipId, Measurement};
pub use counter::{CounterReading, FrequencyCounter};
pub use fabric::{CutArray, DieLocation};
pub use family::Family;
pub use lut::{Lut, LutConfig};
pub use netlist::InverterChain;
pub use odometer::Odometer;
pub use ring_oscillator::{RingOscillator, RoMode};
pub use routing::RoutingBlock;
pub use transistor::{Polarity, Transistor};
