//! Device-level Bias Temperature Instability (BTI) aging and recovery.
//!
//! This crate implements the physics layer of the DAC'14 accelerated
//! self-healing reproduction. It provides **two** models of the same
//! phenomenon, mirroring how the paper validates a first-order analytic
//! model against silicon measurements:
//!
//! 1. [`td`] — a **stochastic Trapping/Detrapping (TD) engine** in the
//!    spirit of Velamala et al. (the paper's ref \[15\]): every transistor
//!    owns an ensemble of two-state traps whose capture/emission time
//!    constants are drawn log-uniformly across many decades. Temperature
//!    accelerates both capture and emission through Arrhenius factors, the
//!    oxide field accelerates capture under stress and — crucially for this
//!    paper — a **negative** gate voltage accelerates emission during
//!    recovery. This engine stands in for the 40 nm FPGA silicon the
//!    authors measured and is the ground truth every "measurement" in the
//!    workspace derives from.
//! 2. [`analytic`] — the paper's **first-order closed-form model**
//!    (Eqs. 1–4 and 12–13): logarithmic `ΔVth` growth under stress,
//!    log-saturating partial recovery, and the duty-cycled α-ratio form
//!    used for long-horizon schedules.
//!
//! Two deliberately *irreversible* mechanisms live alongside them —
//! [`em`] (electromigration) and [`hci`] (hot-carrier injection): the
//! paper's §7 caveat made executable, so the limits of self-healing can
//! be quantified rather than footnoted.
//!
//! The two BTI models are deliberately independent implementations; the
//! `selfheal` crate fits the analytic model's parameters to stochastic
//! "measurements" exactly as the paper extracts its Table 3 parameters from
//! chamber runs.
//!
//! # Example: stress then accelerated recovery
//!
//! ```
//! use selfheal_bti::td::{PhaseRates, TrapBank, TrapEnsembleParams};
//! use selfheal_bti::{DeviceCondition, Environment};
//! use selfheal_units::{Celsius, Hours, Volts};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut device = TrapBank::sample(&TrapEnsembleParams::default(), &mut rng);
//!
//! // 24 h of DC stress at 110 °C / 1.2 V. A phase's rate multipliers
//! // are evaluated once, then every trap steps under them.
//! let stress = DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)));
//! device.advance_all(&PhaseRates::for_condition(stress), Hours::new(24.0).into());
//! let aged = device.delta_vth();
//!
//! // 6 h of accelerated self-healing at 110 °C / −0.3 V.
//! let heal = DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)));
//! device.advance_all(&PhaseRates::for_condition(heal), Hours::new(6.0).into());
//! assert!(device.delta_vth() < aged, "rejuvenation reduces the threshold shift");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod analytic;
pub mod condition;
pub mod constants;
pub mod em;
pub mod hci;
pub mod td;
pub mod variation;

pub use activity::SwitchingActivity;
pub use condition::{DeviceCondition, Environment, Phase};
