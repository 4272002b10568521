//! Recovery scheduling policies: *when* to put a circuit to sleep.
//!
//! §2.2 contrasts two philosophies. **Reactive** recovery waits until a
//! measured threshold of wearout — "potentially more economic", but
//! unpredictable, and the circuit spends more of its life in an aged
//! state. **Proactive** recovery schedules sleep ahead of any sign of
//! stress — simpler, predictable, and the system runs "refreshed" for more
//! of its lifetime.
//!
//! [`crate::closed_loop::run_closed_loop`] drives a policy against a
//! simulated chip through its odometer.

mod proactive;
mod reactive;

pub use proactive::ProactivePolicy;
pub use reactive::ReactivePolicy;

use selfheal_units::{Fraction, Seconds};

use crate::technique::RejuvenationTechnique;

/// What a policy wants to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyDecision {
    /// Keep working.
    StayActive,
    /// Enter a rejuvenation sleep.
    Sleep {
        /// The sleep treatment to apply.
        technique: RejuvenationTechnique,
        /// How long to sleep.
        duration: Seconds,
    },
}

/// A recovery-scheduling policy.
///
/// Policies are polled at every simulation step with the current time and
/// the measured margin consumption; they answer with a decision. They may
/// keep internal state (the proactive timer, the reactive hysteresis).
pub trait RecoveryPolicy {
    /// Decide what to do at time `now` given the measured fraction of the
    /// aging margin already consumed.
    fn decide(&mut self, now: Seconds, margin_consumed: Fraction) -> PolicyDecision;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}
