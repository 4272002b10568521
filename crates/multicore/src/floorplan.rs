//! The Fig. 10 floorplan: an 8-core grid above a shared L3.

/// A core's index on the die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core id.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Core {}", self.0 + 1)
    }
}

/// A rectangular grid of cores (the paper's illustration is 4 × 2).
///
/// Adjacency is 4-connected: lateral heat flows between cores sharing an
/// edge, which is what makes active neighbours useful as "on-chip
/// heaters" for a sleeping core.
///
/// # Examples
///
/// ```
/// use selfheal_multicore::{CoreId, Floorplan};
///
/// let plan = Floorplan::eight_core();
/// assert_eq!(plan.len(), 8);
/// // Fig. 10's core 3 (index 2, top row) touches cores 2, 4 and 7.
/// let neighbours = plan.neighbours(CoreId::new(2));
/// assert_eq!(neighbours.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floorplan {
    columns: usize,
    rows: usize,
}

impl Floorplan {
    /// Creates a `columns × rows` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn grid(columns: usize, rows: usize) -> Self {
        assert!(columns > 0 && rows > 0, "floorplan must be non-empty");
        Floorplan { columns, rows }
    }

    /// The paper's 8-core illustration: cores 1–4 across the top row,
    /// cores 5–8 across the bottom, shared L3 below.
    #[must_use]
    pub fn eight_core() -> Self {
        Floorplan::grid(4, 2)
    }

    /// Number of cores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns * self.rows
    }

    /// Whether the floorplan has no cores (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All core ids, row-major.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.len()).map(CoreId::new)
    }

    /// The `(column, row)` position of a core.
    #[must_use]
    pub fn position(&self, core: CoreId) -> (usize, usize) {
        (core.index() % self.columns, core.index() / self.columns)
    }

    /// The edge-sharing neighbours of a core.
    #[must_use]
    pub fn neighbours(&self, core: CoreId) -> Vec<CoreId> {
        let (c, r) = self.position(core);
        let mut out = Vec::with_capacity(4);
        if c > 0 {
            out.push(CoreId::new(core.index() - 1));
        }
        if c + 1 < self.columns {
            out.push(CoreId::new(core.index() + 1));
        }
        if r > 0 {
            out.push(CoreId::new(core.index() - self.columns));
        }
        if r + 1 < self.rows {
            out.push(CoreId::new(core.index() + self.columns));
        }
        out
    }
}

impl Default for Floorplan {
    fn default() -> Self {
        Floorplan::eight_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_core_dimensions() {
        let plan = Floorplan::eight_core();
        assert_eq!(plan.len(), 8);
        assert!(!plan.is_empty());
        assert_eq!(plan.cores().count(), 8);
    }

    #[test]
    fn corner_edge_and_inner_neighbour_counts() {
        let plan = Floorplan::eight_core();
        // Top-left corner (core 1): right + below.
        assert_eq!(plan.neighbours(CoreId::new(0)).len(), 2);
        // Top inner (core 2): left, right, below.
        assert_eq!(plan.neighbours(CoreId::new(1)).len(), 3);
        // In a 4×2 grid every core is on the boundary; a 3×3 grid has a
        // true inner core with 4 neighbours.
        let plan3 = Floorplan::grid(3, 3);
        assert_eq!(plan3.neighbours(CoreId::new(4)).len(), 4);
    }

    #[test]
    fn neighbourhood_is_symmetric() {
        let plan = Floorplan::eight_core();
        for a in plan.cores() {
            for b in plan.neighbours(a) {
                assert!(
                    plan.neighbours(b).contains(&a),
                    "{a} neighbours {b} but not vice versa"
                );
            }
        }
    }

    #[test]
    fn fig10_sleeping_cores_have_active_neighbours() {
        // Fig. 10: cores 3 and 7 sleep (indices 2 and 6), all others are
        // active; both sleepers are fully surrounded by heaters.
        let plan = Floorplan::eight_core();
        let mut active = [true; 8];
        active[2] = false;
        active[6] = false;
        let heaters = |core| {
            plan.neighbours(CoreId::new(core))
                .iter()
                .filter(|n| active[n.index()])
                .count()
        };
        assert_eq!(heaters(2), 2);
        assert_eq!(heaters(6), 2);
        // Core 3 and core 7 are vertical neighbours of each other — they
        // do not heat each other while both sleep.
        assert!(plan.neighbours(CoreId::new(2)).contains(&CoreId::new(6)));
    }

    #[test]
    fn position_round_trip() {
        let plan = Floorplan::eight_core();
        assert_eq!(plan.position(CoreId::new(0)), (0, 0));
        assert_eq!(plan.position(CoreId::new(3)), (3, 0));
        assert_eq!(plan.position(CoreId::new(4)), (0, 1));
        assert_eq!(plan.position(CoreId::new(7)), (3, 1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_grid() {
        let _ = Floorplan::grid(0, 2);
    }

    #[test]
    fn display_is_one_based_like_the_paper() {
        assert_eq!(CoreId::new(2).to_string(), "Core 3");
    }
}
