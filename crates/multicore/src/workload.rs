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
    /// Deterministic pseudo-random bursts: demand switches between low
    /// and high every `hold` seconds based on a hash of the interval
    /// index (no RNG state to thread through the simulation).
    Bursty {
        /// Demand during quiet intervals.
        low: usize,
        /// Demand during bursts.
        high: usize,
        /// Interval length in seconds.
        hold: f64,
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

    /// Bursty demand with a 2 h hold time.
    #[must_use]
    pub fn bursty(low: usize, high: usize) -> Self {
        Workload::Bursty {
            low,
            high,
            hold: 2.0 * 3600.0,
        }
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
            Workload::Bursty { low, high, hold } => {
                let slot = (now.get() / hold.max(1e-9)) as u64;
                // Cheap deterministic hash of the slot index.
                let h = slot
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(31)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                if h & 1 == 0 {
                    low
                } else {
                    high
                }
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

    #[test]
    fn bursty_is_deterministic_and_two_level() {
        let w = Workload::bursty(1, 7);
        let mut lows = 0;
        let mut highs = 0;
        for i in 0..200 {
            let t = Seconds::new(7200.0 * f64::from(i) + 10.0);
            let d = w.demand(t, 8);
            assert!(d == 1 || d == 7);
            if d == 1 {
                lows += 1;
            } else {
                highs += 1;
            }
            assert_eq!(d, w.demand(t, 8), "deterministic");
        }
        assert!(lows > 40 && highs > 40, "both levels occur: {lows}/{highs}");
    }
}
