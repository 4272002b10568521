//! Accelerated self-healing techniques for electronic systems.
//!
//! This is the primary-contribution crate of the DAC'14 reproduction: the
//! paper's thesis is that *sleep should be an active recovery period* —
//! scheduled ahead of need (proactively), reversed in bias (negative
//! supply) and accelerated (high temperature) — so that wearout margins
//! can be relaxed instead of merely tolerated.
//!
//! What lives here:
//!
//! * [`technique`] — the rejuvenation techniques themselves: passive
//!   gating, negative voltage, high temperature and their combination
//!   (§4.1's "knobs").
//! * [`policy`] — *when* to heal: proactive and reactive scheduling,
//!   with the §2.2 trade-offs executable through [`closed_loop`].
//! * [`metrics`] — *how much* healing happened: frequency degradation,
//!   the Recovered Delay `RD` of Eq. (16), the design-margin-relaxed
//!   parameter of Table 4 and the "within 90 % of original margin"
//!   headline predicate.
//! * [`fitting`] — model extraction: fits the first-order Eq. (10)/(11)
//!   forms to measurement series, reproducing the paper's Table 3
//!   parameter extraction and the model curves of Figs. 4–8.
//! * [`experiment`] — the full paper run: five simulated chips through
//!   the Table 1 matrix, chronologically, producing every series the
//!   evaluation section plots.
//! * [`margin`] — design-margin budgeting and lifetime arithmetic.
//! * [`planner`] — the §7 "virtual circadian rhythm": solve for the least
//!   sleep that holds a wear budget.
//! * [`mitigation`] — the related-work baselines of §1 (guardbanding,
//!   GNOMO overdrive) made executable for comparison.
//! * [`study`] — Monte-Carlo chip-to-chip variation study (the §7 gap).
//! * [`closed_loop`] — policies driving a simulated chip through its
//!   on-chip odometer sensor.
//!
//! # Quickstart
//!
//! ```
//! use selfheal::experiment::PaperExperiment;
//!
//! // Run a scaled-down version of the paper's full Table 1 campaign.
//! let outputs = PaperExperiment::quick(42).run();
//! let headline = outputs.recovery("AR110N6").expect("case exists");
//! assert!(headline.margin_relaxed().get() > 50.0, "deep rejuvenation works");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_loop;
pub mod experiment;
pub mod fitting;
pub mod margin;
pub mod metrics;
pub mod mitigation;
pub mod planner;
pub mod policy;
pub mod study;
pub mod technique;

pub use experiment::{ExperimentOutputs, PaperExperiment};
pub use margin::MarginBudget;
pub use metrics::{recovered_delay, DegradationPoint, RecoveryPoint};
pub use planner::{RejuvenationPlan, SchedulePlanner};
pub use technique::RejuvenationTechnique;
