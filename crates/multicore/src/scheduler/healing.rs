//! Healing-aware schedulers: the paper's §6.2 proposals.

use selfheal_units::{Hours, Millivolts, Seconds, Volts};

use crate::floorplan::Floorplan;

use super::{flags_from_active, Scheduler};

/// Rotates the active window on a fixed circadian period so every core
/// takes regular rejuvenation sleep at the on-chip negative bias.
///
/// With period `P` and `n` cores, the active window shifts by one core
/// every `P`; a core therefore sleeps `(n − demand)/n` of the time in
/// steady state, spread as regular naps rather than one long retirement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircadianRotation {
    period: Seconds,
    sleep_supply: Volts,
}

impl CircadianRotation {
    /// Creates a rotation with the given period and sleep bias.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive period.
    #[must_use]
    pub fn new(period: Seconds, sleep_supply: Volts) -> Self {
        assert!(period.get() > 0.0, "rotation period must be positive");
        CircadianRotation {
            period,
            sleep_supply,
        }
    }

    /// The paper's flavour: rotate every 6 h (so with an 8-core die and
    /// demand 6, each core sleeps 6 h out of every 24 h — α = 3 per core,
    /// near the paper's α = 4) with the −0.3 V on-chip reverse bias.
    #[must_use]
    pub fn paper_default() -> Self {
        CircadianRotation::new(Hours::new(6.0).into(), Volts::new(-0.3))
    }

    fn offset(&self, now: Seconds, n: usize) -> usize {
        ((now.get() / self.period.get()).floor() as usize) % n.max(1)
    }
}

impl Scheduler for CircadianRotation {
    fn assign(
        &mut self,
        now: Seconds,
        demand: usize,
        plan: &Floorplan,
        _wear: &[Millivolts],
    ) -> Vec<bool> {
        let n = plan.len();
        let demand = demand.min(n);
        let offset = self.offset(now, n);
        flags_from_active(n, (0..demand).map(|i| (offset + i) % n))
    }

    fn sleep_supply(&self) -> Volts {
        self.sleep_supply
    }

    fn name(&self) -> &str {
        "circadian-rotation"
    }
}

/// Chooses *which* cores sleep: the most worn first, placed so that their
/// neighbours stay active and work as on-chip heaters (§6.2's first
/// method).
///
/// Greedy selection: walk cores in decreasing wear order and put a core
/// to sleep if none of its neighbours is already sleeping (so every
/// sleeper is surrounded by heaters); if the no-adjacent-sleepers rule
/// cannot fill the quota, relax it for the remainder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeaterAware {
    sleep_supply: Volts,
}

impl HeaterAware {
    /// Creates the scheduler with the given sleep bias.
    #[must_use]
    pub fn new(sleep_supply: Volts) -> Self {
        HeaterAware { sleep_supply }
    }

    /// The paper's on-chip −0.3 V reverse bias.
    #[must_use]
    pub fn paper_default() -> Self {
        HeaterAware::new(Volts::new(-0.3))
    }
}

impl Scheduler for HeaterAware {
    fn assign(
        &mut self,
        _now: Seconds,
        demand: usize,
        plan: &Floorplan,
        wear: &[Millivolts],
    ) -> Vec<bool> {
        let n = plan.len();
        let demand = demand.min(n);
        let quota = n - demand;

        // Most-worn first; total_cmp keeps the sort deterministic even
        // for NaN wear readings, and the core index breaks exact ties so
        // the rotation never depends on sort-internal ordering.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let wa = wear.get(a).map_or(0.0, |m| m.get());
            let wb = wear.get(b).map_or(0.0, |m| m.get());
            wb.total_cmp(&wa).then_with(|| a.cmp(&b))
        });

        let mut sleeping = vec![false; n];
        let mut chosen = 0usize;
        // First pass: no two sleepers adjacent — every sleeper keeps all
        // its neighbours as heaters.
        for &core in &order {
            if chosen == quota {
                break;
            }
            let has_sleeping_neighbour = plan
                .neighbours(crate::floorplan::CoreId::new(core))
                .into_iter()
                .any(|nb| sleeping[nb.index()]);
            if !has_sleeping_neighbour {
                sleeping[core] = true;
                chosen += 1;
            }
        }
        // Second pass: fill any remaining quota regardless of adjacency.
        for &core in &order {
            if chosen == quota {
                break;
            }
            if !sleeping[core] {
                sleeping[core] = true;
                chosen += 1;
            }
        }

        sleeping.iter().map(|s| !s).collect()
    }

    fn sleep_supply(&self) -> Volts {
        self.sleep_supply
    }

    fn name(&self) -> &str {
        "heater-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::CoreId;
    use crate::scheduler::test_util::assert_serves_demand;

    #[test]
    fn both_serve_demand_exactly() {
        assert_serves_demand(&mut CircadianRotation::paper_default(), false);
        assert_serves_demand(&mut HeaterAware::paper_default(), false);
    }

    #[test]
    fn rotation_shifts_by_one_core_per_period() {
        let mut s = CircadianRotation::paper_default();
        let plan = Floorplan::eight_core();
        let wear = [Millivolts::new(0.0); 8];
        let mut at = |hours: f64| s.assign(Seconds::new(hours * 3600.0), 6, &plan, &wear);
        let first = at(0.0);
        let second = at(6.0);
        assert_ne!(first, second, "the window moved");
        // At t=0 cores 0..6 are active; after one period cores 1..7.
        assert_eq!(
            first,
            vec![true, true, true, true, true, true, false, false]
        );
        assert_eq!(
            second,
            vec![false, true, true, true, true, true, true, false]
        );
        // Full lap: 8 periods later we are back.
        assert_eq!(at(48.0), first);
    }

    #[test]
    fn rotation_gives_every_core_sleep_over_a_lap() {
        let mut s = CircadianRotation::paper_default();
        let plan = Floorplan::eight_core();
        let wear = [Millivolts::new(0.0); 8];
        let mut slept = [false; 8];
        for period in 0..8 {
            let flags = s.assign(
                Seconds::new(6.0 * 3600.0 * f64::from(period)),
                6,
                &plan,
                &wear,
            );
            for (i, active) in flags.iter().enumerate() {
                if !active {
                    slept[i] = true;
                }
            }
        }
        assert!(slept.iter().all(|s| *s), "every core napped: {slept:?}");
    }

    #[test]
    fn heater_aware_sleeps_the_most_worn_cores() {
        let mut s = HeaterAware::paper_default();
        let plan = Floorplan::eight_core();
        let mut wear = [Millivolts::new(1.0); 8];
        wear[5] = Millivolts::new(30.0);
        wear[2] = Millivolts::new(20.0);
        let flags = s.assign(Seconds::ZERO, 6, &plan, &wear);
        assert!(!flags[5], "most worn core sleeps");
        assert!(!flags[2], "second most worn core sleeps");
    }

    #[test]
    fn heater_aware_keeps_sleepers_apart_when_possible() {
        let mut s = HeaterAware::paper_default();
        let plan = Floorplan::eight_core();
        // Two adjacent cores are the most worn; the scheduler should not
        // sleep both (that would rob each of a heater) while a spread-out
        // assignment is possible.
        let mut wear = [Millivolts::new(1.0); 8];
        wear[2] = Millivolts::new(30.0);
        wear[6] = Millivolts::new(29.0); // directly below core 2
        let flags = s.assign(Seconds::ZERO, 6, &plan, &wear);
        assert!(!flags[2], "the single most worn core sleeps");
        assert!(flags[6], "its adjacent runner-up keeps heating it");
        // Every sleeper has all neighbours active.
        for (i, active) in flags.iter().enumerate() {
            if !active {
                let neighbours = plan.neighbours(CoreId::new(i));
                assert!(neighbours.iter().all(|n| flags[n.index()]));
            }
        }
    }

    #[test]
    fn heater_aware_relaxes_adjacency_when_quota_demands() {
        let mut s = HeaterAware::paper_default();
        let plan = Floorplan::eight_core();
        let wear = [Millivolts::new(1.0); 8];
        // Demand 2 ⇒ 6 sleepers; adjacency-free placement is impossible.
        let flags = s.assign(Seconds::ZERO, 2, &plan, &wear);
        assert_eq!(flags.iter().filter(|f| **f).count(), 2);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn rotation_rejects_zero_period() {
        let _ = CircadianRotation::new(Seconds::ZERO, Volts::new(-0.3));
    }
}
