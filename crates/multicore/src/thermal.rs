//! Steady-state thermal network for the die.
//!
//! Each core's temperature is ambient plus a self-heating term plus
//! lateral coupling from its neighbours:
//!
//! ```text
//! T_i = T_amb + R_self·P_i + R_couple·Σ_{j ∈ N(i)} P_j
//! ```
//!
//! A full transient RC solve is unnecessary at the hours-to-months time
//! scale of aging: die thermal time constants are milliseconds, so each
//! scheduling interval sees its steady state. The coupling term is the
//! entire §6.2 "on-chip heaters" effect — an idle core's temperature is
//! set by how many of its neighbours are burning power.

use selfheal_units::Celsius;

use crate::floorplan::{CoreId, Floorplan};

/// The die's thermal model.
///
/// # Examples
///
/// ```
/// use selfheal_multicore::{Floorplan, ThermalGrid};
///
/// let grid = ThermalGrid::default_package(Floorplan::eight_core());
/// // Fig. 10: cores 3 and 7 asleep, everything else at full power.
/// let powers = [10.0, 10.0, 0.0, 10.0, 10.0, 10.0, 0.0, 10.0];
/// let temps = grid.temperatures(&powers);
/// // The sleeping core is much warmer than ambient thanks to neighbours.
/// assert!(temps[2].get() > grid.ambient().get() + 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalGrid {
    floorplan: Floorplan,
    ambient: Celsius,
    r_self: f64,
    r_couple: f64,
}

impl ThermalGrid {
    /// Creates a thermal model.
    ///
    /// `r_self` and `r_couple` are thermal resistances in °C/W.
    ///
    /// # Panics
    ///
    /// Panics on negative resistances.
    #[must_use]
    pub fn new(floorplan: Floorplan, ambient: Celsius, r_self: f64, r_couple: f64) -> Self {
        assert!(
            r_self >= 0.0 && r_couple >= 0.0,
            "thermal resistances must be non-negative"
        );
        ThermalGrid {
            floorplan,
            ambient,
            r_self,
            r_couple,
        }
    }

    /// A typical server package: 45 °C in-package ambient, 3.5 °C/W
    /// self-heating (a 10 W core runs at 80 °C), 1.2 °C/W lateral
    /// coupling (three 10 W neighbours heat a sleeping core to ≈ 81 °C —
    /// the free accelerated-recovery condition of §6.2).
    #[must_use]
    pub fn default_package(floorplan: Floorplan) -> Self {
        ThermalGrid::new(floorplan, Celsius::new(45.0), 3.5, 1.2)
    }

    /// The floorplan.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The in-package ambient temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Steady-state temperature of every core given per-core power draw
    /// in watts.
    ///
    /// # Panics
    ///
    /// Panics if `powers` does not match the floorplan size.
    #[must_use]
    pub fn temperatures(&self, powers: &[f64]) -> Vec<Celsius> {
        assert_eq!(
            powers.len(),
            self.floorplan.len(),
            "one power entry per core"
        );
        self.floorplan
            .cores()
            .map(|core| self.temperature_of(core, powers))
            .collect()
    }

    /// Steady-state temperature of one core.
    #[must_use]
    pub fn temperature_of(&self, core: CoreId, powers: &[f64]) -> Celsius {
        let own = self.r_self * powers[core.index()];
        let coupled: f64 = self
            .floorplan
            .neighbours(core)
            .into_iter()
            .map(|n| self.r_couple * powers[n.index()])
            .sum();
        self.ambient.offset(own + coupled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ThermalGrid {
        ThermalGrid::default_package(Floorplan::eight_core())
    }

    #[test]
    fn idle_die_sits_at_ambient() {
        let temps = grid().temperatures(&[0.0; 8]);
        for t in temps {
            assert_eq!(t, Celsius::new(45.0));
        }
    }

    #[test]
    fn active_core_runs_hot() {
        let g = grid();
        let mut powers = [0.0; 8];
        powers[0] = 10.0;
        let temps = g.temperatures(&powers);
        assert!((temps[0].get() - 80.0).abs() < 1e-9, "45 + 3.5×10 = 80 °C");
    }

    #[test]
    fn sleeping_core_is_heated_by_neighbours() {
        let g = grid();
        // Fig. 10 pattern: cores 3 and 7 asleep.
        let powers = [10.0, 10.0, 0.0, 10.0, 10.0, 10.0, 0.0, 10.0];
        let temps = g.temperatures(&powers);
        // Core 3 (index 2) has active neighbours 2 and 4 (core 7 below is
        // also asleep): 45 + 1.2×20 = 69 °C.
        assert!((temps[2].get() - 69.0).abs() < 1e-9, "{}", temps[2]);
        // An isolated idle die corner without heaters stays at ambient.
        let lonely = g.temperatures(&[0.0; 8]);
        assert!(temps[2].get() > lonely[2].get() + 20.0);
    }

    #[test]
    fn heater_count_raises_temperature_monotonically() {
        let g = grid();
        let mut previous = 0.0;
        for heaters in 0..=2 {
            let mut powers = [0.0; 8];
            // Heat core 0 from its up-to-two neighbours (cores 1 and 4).
            if heaters >= 1 {
                powers[1] = 10.0;
            }
            if heaters >= 2 {
                powers[4] = 10.0;
            }
            let t = g.temperature_of(CoreId::new(0), &powers).get();
            assert!(t >= previous, "more heaters, more heat");
            previous = t;
        }
        assert!((previous - 45.0 - 2.0 * 12.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one power entry per core")]
    fn rejects_mismatched_power_vector() {
        let _ = grid().temperatures(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_resistance() {
        let _ = ThermalGrid::new(Floorplan::eight_core(), Celsius::new(45.0), -1.0, 0.5);
    }
}
