//! Design-margin budgeting and lifetime arithmetic.
//!
//! "Without proactive accelerated rejuvenation, electronic systems need to
//! be designed to cope with aging over the lifetime of the product ...
//! This means increased design margins" (§2.2). This module makes that
//! budget concrete: a guardband as a fraction of fresh delay and how much
//! of it stress has consumed.

use selfheal_units::{Fraction, Nanoseconds};

/// A timing guardband budget.
///
/// # Examples
///
/// ```
/// use selfheal::MarginBudget;
/// use selfheal_units::Nanoseconds;
///
/// let budget = MarginBudget::typical();
/// let fresh = Nanoseconds::new(90.0);
/// // A 2.3 ns shift consumes about a quarter of a 10 % guardband.
/// let available = budget.available_fraction(fresh, Nanoseconds::new(92.3));
/// assert!(available.get() > 0.7 && available.get() < 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginBudget {
    guardband: Fraction,
}

impl MarginBudget {
    /// Creates a budget with the given guardband fraction of fresh delay.
    #[must_use]
    pub fn new(guardband: Fraction) -> Self {
        MarginBudget { guardband }
    }

    /// The 10 % timing guardband typical of aging-margined designs; used
    /// as the denominator for the paper's "within 90 % of original margin"
    /// headline.
    #[must_use]
    pub fn typical() -> Self {
        MarginBudget::new(Fraction::new(0.10))
    }

    /// The guardband fraction.
    #[must_use]
    pub fn guardband(&self) -> Fraction {
        self.guardband
    }

    /// The absolute margin a chip with `fresh` delay is budgeted.
    #[must_use]
    pub fn margin(&self, fresh: Nanoseconds) -> Nanoseconds {
        fresh * self.guardband.get()
    }

    /// Fraction of the margin consumed by the current delay shift
    /// (clamped to `[0, 1]`; a shift beyond the budget means timing
    /// failure and reads as fully consumed).
    #[must_use]
    pub fn consumed_fraction(&self, fresh: Nanoseconds, current: Nanoseconds) -> Fraction {
        let margin = self.margin(fresh).get();
        if margin <= 0.0 {
            return Fraction::ONE;
        }
        Fraction::new((current - fresh).get().max(0.0) / margin)
    }

    /// Fraction of the margin still available.
    #[must_use]
    pub fn available_fraction(&self, fresh: Nanoseconds, current: Nanoseconds) -> Fraction {
        self.consumed_fraction(fresh, current).complement()
    }

    /// The paper's headline predicate: is the chip back "within 90 % of
    /// its original margin"?
    #[must_use]
    pub fn within_90_percent(&self, fresh: Nanoseconds, current: Nanoseconds) -> bool {
        self.available_fraction(fresh, current).get() >= 0.90
    }
}

impl Default for MarginBudget {
    fn default() -> Self {
        MarginBudget::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_of_90ns_at_10_percent() {
        let b = MarginBudget::typical();
        assert!((b.margin(Nanoseconds::new(90.0)).get() - 9.0).abs() < 1e-12);
        assert!((b.guardband().get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn consumed_and_available_are_complements() {
        let b = MarginBudget::typical();
        let fresh = Nanoseconds::new(90.0);
        let current = Nanoseconds::new(92.3);
        let c = b.consumed_fraction(fresh, current).get();
        let a = b.available_fraction(fresh, current).get();
        assert!((c + a - 1.0).abs() < 1e-12);
        assert!((c - 2.3 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn within_90_percent_predicate() {
        let b = MarginBudget::typical();
        let fresh = Nanoseconds::new(90.0);
        assert!(b.within_90_percent(fresh, Nanoseconds::new(90.6)));
        assert!(!b.within_90_percent(fresh, Nanoseconds::new(92.3)));
        // Healing AR110N6-style (72 % of 2.3 ns healed) gets back inside.
        assert!(b.within_90_percent(fresh, Nanoseconds::new(90.0 + 2.3 * 0.28)));
    }

    #[test]
    fn overconsumed_margin_clamps() {
        let b = MarginBudget::typical();
        let fresh = Nanoseconds::new(90.0);
        let blown = Nanoseconds::new(110.0);
        assert_eq!(b.consumed_fraction(fresh, blown).get(), 1.0);
        assert_eq!(b.available_fraction(fresh, blown).get(), 0.0);
    }

    #[test]
    fn improvement_below_fresh_is_not_negative_consumption() {
        let b = MarginBudget::typical();
        let fresh = Nanoseconds::new(90.0);
        assert_eq!(
            b.consumed_fraction(fresh, Nanoseconds::new(89.0)).get(),
            0.0
        );
    }
}
