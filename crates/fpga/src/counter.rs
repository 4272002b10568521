//! The 16-bit frequency counter of Fig. 3 and the Eq. (14)/(15) metric
//! pipeline.
//!
//! The counter accumulates ring-oscillator edges over one half-period of
//! the reference clock, so `fosc = 2·Cout·fref` (Eq. 14) and the CUT delay
//! is `Td = 1/(2·fosc) = 1/(4·Cout·fref)` (Eq. 15). The paper reports the
//! reading as repeatable "within ±5 counts"; we add exactly that jitter.

use rand::Rng;
use selfheal_units::{Hertz, Nanoseconds};

/// A single counter capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterReading {
    /// The captured count `Cout`.
    pub count: u32,
    /// Whether the counter hit its maximum value (an overflow means the
    /// reference clock is too slow for this oscillator).
    pub saturated: bool,
}

/// The counter peripheral: width plus reference clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyCounter {
    bits: u32,
    fref: Hertz,
    jitter_counts: u32,
}

impl FrequencyCounter {
    /// The paper's repeatability bound: readings vary within ±5 counts.
    pub const PAPER_JITTER_COUNTS: u32 = 5;

    /// Creates a counter.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31, or if the reference clock
    /// is not positive — both are configuration bugs.
    #[must_use]
    pub fn new(bits: u32, fref: Hertz) -> Self {
        assert!(
            (1..=31).contains(&bits),
            "counter width must be 1..=31 bits"
        );
        assert!(fref.get() > 0.0, "reference clock must be positive");
        FrequencyCounter {
            bits,
            fref,
            jitter_counts: Self::PAPER_JITTER_COUNTS,
        }
    }

    /// The paper's setup: 16 bits, 500 Hz reference.
    #[must_use]
    pub fn paper_setup() -> Self {
        FrequencyCounter::new(16, Hertz::new(500.0))
    }

    /// The reference clock.
    #[must_use]
    pub fn reference_clock(&self) -> Hertz {
        self.fref
    }

    /// Maximum representable count.
    #[must_use]
    pub fn max_count(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Captures a reading of an oscillator running at `fosc`.
    ///
    /// The ideal count is `fosc / (2·fref)`; a uniform jitter of up to
    /// ±`jitter` counts models the paper's observed repeatability.
    pub fn read<R: Rng + ?Sized>(&self, fosc: Hertz, rng: &mut R) -> CounterReading {
        let ideal = fosc.get() / (2.0 * self.fref.get());
        let jitter = if self.jitter_counts == 0 {
            0i64
        } else {
            let j = i64::from(self.jitter_counts);
            rng.gen_range(-j..=j)
        };
        let noisy = (ideal.round() as i64 + jitter).max(0) as u64;
        let max = u64::from(self.max_count());
        CounterReading {
            count: noisy.min(max) as u32,
            saturated: noisy >= max,
        }
    }

    /// Reads the counter `n` times and returns the mean count — the
    /// paper's diagnostic program reads "from a certain time range that
    /// has stable values" (§4.2), i.e. it averages out the ±5-count
    /// jitter. Returns the mean as a fraction for full resolution.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn read_averaged<R: Rng + ?Sized>(&self, fosc: Hertz, n: usize, rng: &mut R) -> f64 {
        assert!(n > 0, "averaging window must be non-empty");
        let total: u64 = (0..n).map(|_| u64::from(self.read(fosc, rng).count)).sum();
        total as f64 / n as f64
    }

    /// Eq. (14) applied to a fractional (averaged) count.
    #[must_use]
    pub fn frequency_of_count(&self, count: f64) -> Hertz {
        Hertz::new(2.0 * count * self.fref.get())
    }

    /// Eq. (15) applied to a fractional (averaged) count.
    #[must_use]
    pub fn delay_of_count(&self, count: f64) -> Nanoseconds {
        if count <= 0.0 {
            return Nanoseconds::new(f64::INFINITY);
        }
        Nanoseconds::new(1e9 / (4.0 * count * self.fref.get()))
    }
}

impl Default for FrequencyCounter {
    fn default() -> Self {
        FrequencyCounter::paper_setup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's counter with its jitter off, for exact readings.
    fn noise_free() -> FrequencyCounter {
        let mut c = FrequencyCounter::paper_setup();
        c.jitter_counts = 0;
        c
    }

    #[test]
    fn paper_setup_dimensions() {
        let c = FrequencyCounter::paper_setup();
        assert_eq!(c.max_count(), 65_535);
        assert_eq!(c.reference_clock(), Hertz::new(500.0));
    }

    #[test]
    fn exact_round_trip_without_jitter() {
        let c = noise_free();
        let mut rng = StdRng::seed_from_u64(1);
        let fosc = Hertz::new(5_555_000.0);
        let reading = c.read(fosc, &mut rng);
        assert_eq!(reading.count, 5555);
        assert!(!reading.saturated);
        // Td = 1/(2·fosc) ≈ 90.01 ns.
        let td = c.delay_of_count(f64::from(reading.count));
        assert!((td.get() - 90.009).abs() < 0.01, "{td}");
    }

    #[test]
    fn jitter_stays_within_bound() {
        let c = FrequencyCounter::paper_setup();
        let mut rng = StdRng::seed_from_u64(2);
        let fosc = Hertz::new(5_555_000.0);
        for _ in 0..500 {
            let reading = c.read(fosc, &mut rng);
            let delta = i64::from(reading.count) - 5555;
            assert!(delta.abs() <= i64::from(FrequencyCounter::PAPER_JITTER_COUNTS));
        }
    }

    #[test]
    fn jitter_actually_varies() {
        let c = FrequencyCounter::paper_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let fosc = Hertz::new(5_555_000.0);
        let first = c.read(fosc, &mut rng).count;
        let varies = (0..50).any(|_| c.read(fosc, &mut rng).count != first);
        assert!(varies);
    }

    #[test]
    fn saturation_flag() {
        let c = noise_free();
        let mut rng = StdRng::seed_from_u64(4);
        // 500 Hz reference: max measurable fosc = 2·65535·500 ≈ 65.5 MHz.
        let reading = c.read(Hertz::new(100e6), &mut rng);
        assert!(reading.saturated);
        assert_eq!(reading.count, 65_535);
    }

    #[test]
    fn stopped_oscillator_reads_zero() {
        let c = noise_free();
        let mut rng = StdRng::seed_from_u64(5);
        let reading = c.read(Hertz::new(0.0), &mut rng);
        assert_eq!(reading.count, 0);
        assert!(c
            .delay_of_count(f64::from(reading.count))
            .get()
            .is_infinite());
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn rejects_zero_width() {
        let _ = FrequencyCounter::new(0, Hertz::new(500.0));
    }

    #[test]
    #[should_panic(expected = "reference clock")]
    fn rejects_nonpositive_reference() {
        let _ = FrequencyCounter::new(16, Hertz::new(0.0));
    }
}
