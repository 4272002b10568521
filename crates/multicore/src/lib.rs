//! Multi-core application of accelerated self-healing (paper §6.2).
//!
//! The paper sketches two ideas for multi-core systems and leaves them as
//! future work; this crate builds both:
//!
//! 1. **On-chip heaters** — a sleeping core surrounded by active
//!    neighbours is heated by them (Fig. 10's cores 3 and 7), so its
//!    recovery is thermally accelerated for free. The [`thermal`] module
//!    is the RC network that quantifies the effect.
//! 2. **Circadian scheduling** — rotate cores through rejuvenating sleep
//!    (negative bias plus neighbour heat) instead of parking the same
//!    spare cores forever. The [`scheduler`] module implements the
//!    baselines (always-on, naive power gating) and the healing-aware
//!    rotations, and [`sim`] races them over months of simulated time.
//!
//! # Example
//!
//! ```
//! use selfheal_multicore::scheduler::CircadianRotation;
//! use selfheal_multicore::sim::{MulticoreSim, SimConfig};
//! use selfheal_multicore::workload::Workload;
//! use selfheal_units::Millivolts;
//!
//! let mut sim = MulticoreSim::new(
//!     SimConfig::default(),
//!     Box::new(CircadianRotation::paper_default()),
//!     Workload::constant(6),
//! );
//! let report = sim.run_days(10.0);
//! assert!(report.worst_delta_vth_mv > Millivolts::ZERO, "cores age under load");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod floorplan;
pub mod lifetime;
pub mod scheduler;
pub mod sim;
pub mod thermal;
pub mod workload;

pub use floorplan::{CoreId, Floorplan};
pub use lifetime::{estimate_lifetime, LifetimeEstimate};
pub use sim::{MulticoreSim, SimConfig, SystemReport};
pub use thermal::ThermalGrid;
pub use workload::Workload;
