//! Core-sleep schedulers: who works, who heals.
//!
//! Baselines:
//!
//! * [`AlwaysOn`] — every core active all the time (no energy management,
//!   no healing; the margin-hungriest possible system).
//! * [`NaiveGating`] — the pre-paper status quo: meet demand with a fixed
//!   preference order and power-gate the rest at 0 V. Idle cores recover
//!   only passively, and the preferred cores never rest at all.
//!
//! The paper's proposals (§6.2):
//!
//! * [`CircadianRotation`] — rotate the active window on a fixed rhythm so
//!   every core takes regular rejuvenation sleep at the on-chip negative
//!   bias.
//! * [`HeaterAware`] — additionally choose *which* cores sleep: the most
//!   worn ones first, placed so their neighbours stay active and serve as
//!   on-chip heaters.

mod baseline;
mod healing;

pub use baseline::{AlwaysOn, NaiveGating};
pub use healing::{CircadianRotation, HeaterAware};

use selfheal_units::{Millivolts, Seconds, Volts};

use crate::floorplan::Floorplan;

/// A scheduling policy for one interval.
pub trait Scheduler {
    /// Picks the active set (one flag per core) for the interval starting
    /// at `now`, given the demanded number of active cores and each
    /// core's accumulated threshold shift.
    ///
    /// Implementations must activate at least `min(demand, len)` cores.
    fn assign(
        &mut self,
        now: Seconds,
        demand: usize,
        plan: &Floorplan,
        wear: &[Millivolts],
    ) -> Vec<bool>;

    /// The supply applied to sleeping cores (0 V for gating baselines,
    /// −0.3 V for the healing schedulers).
    fn sleep_supply(&self) -> Volts;

    /// Short name for reports.
    fn name(&self) -> &str;
}

/// Shared helper: mark `ids` active in a fresh flag vector.
pub(crate) fn flags_from_active(len: usize, ids: impl IntoIterator<Item = usize>) -> Vec<bool> {
    let mut flags = vec![false; len];
    for id in ids {
        if id < len {
            flags[id] = true;
        }
    }
    flags
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Every scheduler must serve demand exactly (except AlwaysOn, which
    /// over-serves); shared contract check.
    pub fn assert_serves_demand(scheduler: &mut dyn Scheduler, over_serves: bool) {
        let plan = Floorplan::eight_core();
        let wear = vec![Millivolts::new(0.0); 8];
        for demand in 0..=8 {
            for hour in [0, 7, 13, 100] {
                let now = Seconds::new(3600.0 * f64::from(hour));
                let flags = scheduler.assign(now, demand, &plan, &wear);
                assert_eq!(flags.len(), 8);
                let active = flags.iter().filter(|f| **f).count();
                if over_serves {
                    assert!(
                        active >= demand,
                        "{}: {active} < {demand}",
                        scheduler.name()
                    );
                } else {
                    assert_eq!(active, demand, "{} at demand {demand}", scheduler.name());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_helper_ignores_out_of_range() {
        let flags = flags_from_active(4, [0, 2, 9]);
        assert_eq!(flags, vec![true, false, true, false]);
    }
}
