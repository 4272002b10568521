//! The external clock generator providing the counter reference (§4.3:
//! "A clock generator provides the external clock source for the
//! counter").

use selfheal_units::Hertz;

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
    #[should_panic(expected = "positive")]
    fn rejects_dc_clock() {
        let _ = ClockGenerator::new(Hertz::new(0.0));
    }
}
