//! Typed physical quantities for the accelerated self-healing reproduction.
//!
//! The DAC'14 paper manipulates a small set of physical quantities — supply
//! voltages (including *negative* rejuvenation voltages), chamber
//! temperatures, stress/recovery durations, ring-oscillator frequencies and
//! the active-vs-sleep ratio α. Mixing these up as bare `f64`s is exactly the
//! kind of bug a reliability study cannot afford, so each quantity gets a
//! newtype with the arithmetic that is physically meaningful for it and
//! nothing more ([C-NEWTYPE]).
//!
//! # Examples
//!
//! ```
//! use selfheal_units::{Celsius, Hours, Seconds, Volts};
//!
//! let stress_supply = Volts::new(1.2);
//! let rejuvenation_supply = Volts::new(-0.3);
//! assert!(rejuvenation_supply.is_negative());
//! assert!(!stress_supply.is_negative());
//!
//! let chamber = Celsius::new(110.0);
//! assert!((chamber.to_kelvin().get() - 383.15).abs() < 1e-9);
//!
//! let stress: Seconds = Hours::new(24.0).into();
//! assert_eq!(stress, Seconds::new(86_400.0));
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy;
pub mod float;
mod frequency;
mod ratio;
mod temperature;
mod time;
mod voltage;

pub use energy::ElectronVolts;
pub use frequency::{Hertz, Megahertz};
pub use ratio::{DutyCycle, Fraction, Percent, Ratio};
pub use temperature::{Celsius, Kelvin};
pub use time::{Hours, Minutes, Nanoseconds, PerSecond, Seconds};
pub use voltage::{Millivolts, PerVolt, Volts};

/// Boltzmann constant in electron-volts per kelvin.
///
/// The BTI rate equations in the paper (Eqs. 2, 4, 13) are written in terms
/// of `exp(-E0 / kT)` with the activation energy `E0` in eV, so the eV/K form
/// is the convenient one throughout this workspace.
pub const BOLTZMANN_EV_PER_K: f64 = 8.617_333_262e-5;
