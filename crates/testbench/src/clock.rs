//! The external clock generator providing the counter reference (§4.3:
//! "A clock generator provides the external clock source for the
//! counter").

use selfheal_units::{Hertz, Seconds};

/// A fixed-frequency clock source.
///
/// # Examples
///
/// ```
/// use selfheal_testbench::ClockGenerator;
///
/// let clk = ClockGenerator::paper_reference();
/// assert_eq!(clk.frequency(), selfheal_units::Hertz::new(500.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockGenerator {
    frequency: Hertz,
}

impl ClockGenerator {
    /// Creates a clock source.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive frequency (configuration bug).
    #[must_use]
    pub fn new(frequency: Hertz) -> Self {
        assert!(frequency.get() > 0.0, "clock frequency must be positive");
        ClockGenerator { frequency }
    }

    /// The paper's 500 Hz counter reference.
    #[must_use]
    pub fn paper_reference() -> Self {
        ClockGenerator::new(Hertz::new(500.0))
    }

    /// The output frequency.
    #[must_use]
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// One gate window of the frequency counter: half the reference
    /// period (the counter accumulates for `1/(2·fref)`, which is where
    /// Eq. 14's factor of two comes from).
    #[must_use]
    pub fn gate_window(&self) -> Seconds {
        Seconds::new(1.0 / (2.0 * self.frequency.get()))
    }
}

impl Default for ClockGenerator {
    fn default() -> Self {
        ClockGenerator::paper_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_window_of_paper_reference() {
        let clk = ClockGenerator::paper_reference();
        assert!((clk.gate_window().get() - 1e-3).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_dc_clock() {
        let _ = ClockGenerator::new(Hertz::new(0.0));
    }
}
