//! Splittable RNG seeding.
//!
//! Deterministic parallelism needs each work item's randomness to be a
//! pure function of **what** the item is (its index), never of **where**
//! or **when** it runs. [`SeedSequence`] derives an independent `u64`
//! seed per index from a base seed using the `SplitMix64` finalizer — the
//! same mixer the vendored `StdRng::seed_from_u64` uses for state
//! expansion — so sibling streams are statistically decorrelated even
//! for adjacent indices, and the mapping is pinned by unit tests below
//! (changing it invalidates every golden value derived from it).

use rand::{rngs::StdRng, SeedableRng};

/// 2^64 / φ — the `SplitMix64` increment; also used here to separate the
/// base-seed domain from the raw-index domain.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The `SplitMix64` finalizer: a bijective avalanche mixer on `u64`.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives per-index RNG seeds from one base seed.
///
/// Two sequences with different base seeds produce unrelated streams;
/// one sequence produces unrelated streams across indices. The derived
/// value depends on nothing but `(base, index)`, which is what makes
/// `par_map` + per-item RNGs bit-for-bit reproducible at any worker
/// count.
///
/// # Examples
///
/// ```
/// use selfheal_runtime::SeedSequence;
/// use rand::Rng;
///
/// let seq = SeedSequence::new(2014);
/// let mut rng = seq.rng(7);
/// let x: f64 = rng.gen();
/// // Same (base, index) -> same stream, regardless of execution order.
/// assert_eq!(seq.rng(7).gen::<f64>(), x);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    base: u64,
}

impl SeedSequence {
    /// A sequence rooted at `base`.
    #[must_use]
    pub fn new(base: u64) -> SeedSequence {
        // Pre-mix so that small consecutive base seeds (0, 1, 2, ...)
        // land far apart before per-index derivation.
        SeedSequence {
            base: splitmix64_mix(base ^ GOLDEN_GAMMA),
        }
    }

    /// The base seed this sequence was constructed from is not
    /// recoverable; this is the mixed root state (stable across runs).
    #[must_use]
    pub fn root(&self) -> u64 {
        self.base
    }

    /// The derived `u64` seed for `index`.
    #[must_use]
    pub fn derive(&self, index: u64) -> u64 {
        splitmix64_mix(self.base ^ index.wrapping_mul(GOLDEN_GAMMA).wrapping_add(1))
    }

    /// A [`StdRng`] seeded for `index`.
    #[must_use]
    pub fn rng(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive(index))
    }

    /// A child sequence rooted at `index` — for nested structure
    /// (e.g. per-chip sequences each deriving per-device streams).
    #[must_use]
    pub fn child(&self, index: u64) -> SeedSequence {
        SeedSequence {
            base: self.derive(index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The derivation function is part of the reproducibility contract:
    /// these constants may only change together with every golden value
    /// that depends on derived streams.
    #[test]
    fn derived_seeds_are_pinned() {
        let seq = SeedSequence::new(2014);
        assert_eq!(seq.derive(0), 0x2fba_78c1_bf16_9c2e);
        assert_eq!(seq.derive(1), 0xcbff_b808_8df4_fa89);
        assert_eq!(seq.derive(2), 0xf43c_e23a_0b3a_20d8);
        let other = SeedSequence::new(2015);
        assert_eq!(other.derive(0), 0x9f70_7a87_4442_f0c1);
    }

    #[test]
    fn indices_give_distinct_streams() {
        let seq = SeedSequence::new(7);
        let a: Vec<u64> = (0..4).map(|_| seq.rng(0).gen()).collect();
        let b: Vec<u64> = (0..4).map(|_| seq.rng(1).gen()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn same_index_is_reproducible() {
        let seq = SeedSequence::new(42);
        let mut x = seq.rng(13);
        let mut y = seq.rng(13);
        for _ in 0..32 {
            assert_eq!(x.gen::<u64>(), y.gen::<u64>());
        }
    }

    #[test]
    fn children_are_independent_of_parent_streams() {
        let seq = SeedSequence::new(99);
        let child = seq.child(3);
        assert_ne!(child.derive(0), seq.derive(0));
        assert_ne!(child.derive(0), seq.derive(3));
        // A child is itself deterministic.
        assert_eq!(child.derive(5), seq.child(3).derive(5));
    }
}
