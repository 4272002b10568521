//! Synthetic workloads: how many cores the system needs active at each
//! scheduling interval.

use selfheal_units::Seconds;

/// A demand generator: maps elapsed time to the number of cores that must
/// be active.
///
/// # Examples
///
/// ```
/// use selfheal_multicore::Workload;
/// use selfheal_units::Seconds;
///
/// let diurnal = Workload::diurnal(2, 8);
/// let noon = diurnal.demand(Seconds::new(12.0 * 3600.0), 8);
/// let midnight = diurnal.demand(Seconds::new(0.0), 8);
/// assert!(noon > midnight, "daytime peak");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A constant demand of `n` cores.
    Constant {
        /// Cores needed.
        cores: usize,
    },
    /// A day/night sinusoid between `min` (at midnight) and `max` (at
    /// noon) with a 24 h period — the natural partner for circadian
    /// scheduling.
    Diurnal {
        /// Night-time trough.
        min: usize,
        /// Daytime peak.
        max: usize,
    },
}

impl Workload {
    /// Constant demand.
    #[must_use]
    pub fn constant(cores: usize) -> Self {
        Workload::Constant { cores }
    }

    /// Day/night sinusoid.
    #[must_use]
    pub fn diurnal(min: usize, max: usize) -> Self {
        Workload::Diurnal { min, max }
    }

    /// Demand at time `now`, clamped to the machine's `total` cores.
    #[must_use]
    pub fn demand(&self, now: Seconds, total: usize) -> usize {
        let raw = match *self {
            Workload::Constant { cores } => cores,
            Workload::Diurnal { min, max } => {
                let day = 24.0 * 3600.0;
                let phase = (now.get() % day) / day * std::f64::consts::TAU;
                // Minimum at t = 0 (midnight), maximum at noon.
                let level = 0.5 - 0.5 * phase.cos();
                let span = max.saturating_sub(min) as f64;
                min + (level * span).round() as usize
            }
        };
        raw.min(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant_and_clamped() {
        let w = Workload::constant(12);
        assert_eq!(w.demand(Seconds::ZERO, 8), 8, "clamped to machine size");
        assert_eq!(w.demand(Seconds::new(1e6), 8), 8);
        assert_eq!(Workload::constant(3).demand(Seconds::new(55.0), 8), 3);
    }

    #[test]
    fn diurnal_peaks_at_noon_troughs_at_midnight() {
        let w = Workload::diurnal(2, 8);
        assert_eq!(w.demand(Seconds::ZERO, 8), 2);
        assert_eq!(w.demand(Seconds::new(12.0 * 3600.0), 8), 8);
        // Quarter-day is midway.
        let morning = w.demand(Seconds::new(6.0 * 3600.0), 8);
        assert!(morning > 2 && morning < 8);
        // Periodicity.
        assert_eq!(
            w.demand(Seconds::new(36.0 * 3600.0), 8),
            w.demand(Seconds::new(12.0 * 3600.0), 8)
        );
    }
}
