//! Deterministic seed derivation for reproducible experiments.
//!
//! Monte-Carlo runs fan thousands of trials across threads; each trial
//! must get an *independent* RNG stream that does not depend on thread
//! scheduling. [`SeedSequence`] derives child seeds from a root seed
//! with splitmix64 — the construction SplitMix was designed for — so
//! trial `i` always sees the same randomness no matter where or when it
//! executes.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hash::mix64;

/// A stream of independent child seeds derived from one root seed.
///
/// ```rust
/// use tagwatch_sim::SeedSequence;
///
/// let root = SeedSequence::new(42);
/// let a = root.seed_for(0);
/// let b = root.seed_for(1);
/// assert_ne!(a, b);
/// // Stable: the same (root, index) always yields the same seed.
/// assert_eq!(a, SeedSequence::new(42).seed_for(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Golden-ratio increment used by splitmix64 to decorrelate indices.
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Creates a sequence rooted at `root`.
    #[must_use]
    pub const fn new(root: u64) -> Self {
        SeedSequence { root }
    }

    /// The root seed.
    #[must_use]
    pub const fn root(self) -> u64 {
        self.root
    }

    /// The `index`-th child seed.
    #[must_use]
    pub fn seed_for(self, index: u64) -> u64 {
        mix64(
            self.root
                .wrapping_add(Self::GAMMA)
                .wrapping_add(index.wrapping_mul(Self::GAMMA)),
        )
    }

    /// A ready-to-use RNG for the `index`-th trial.
    #[must_use]
    pub fn rng_for(self, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed_for(index))
    }

    /// A child sequence for a named sub-experiment, so nested fan-outs
    /// (experiment → trial → phase) stay independent.
    #[must_use]
    pub fn child(self, label: u64) -> SeedSequence {
        SeedSequence {
            root: mix64(self.root ^ mix64(label.wrapping_add(Self::GAMMA))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeds_are_stable() {
        let s = SeedSequence::new(7);
        assert_eq!(s.seed_for(123), SeedSequence::new(7).seed_for(123));
    }

    #[test]
    fn seeds_differ_across_indices() {
        let s = SeedSequence::new(7);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(s.seed_for(i)), "collision at index {i}");
        }
    }

    #[test]
    fn seeds_differ_across_roots() {
        assert_ne!(
            SeedSequence::new(1).seed_for(0),
            SeedSequence::new(2).seed_for(0)
        );
    }

    #[test]
    fn child_sequences_are_independent() {
        let s = SeedSequence::new(99);
        let a = s.child(1);
        let b = s.child(2);
        assert_ne!(a.seed_for(0), b.seed_for(0));
        assert_ne!(a.root(), s.root());
    }

    #[test]
    fn rng_for_produces_matching_streams() {
        let s = SeedSequence::new(5);
        let x: u64 = s.rng_for(3).gen();
        let y: u64 = s.rng_for(3).gen();
        assert_eq!(x, y);
        let z: u64 = s.rng_for(4).gen();
        assert_ne!(x, z);
    }

    #[test]
    fn zero_root_is_not_degenerate() {
        // mix64(0) == 0, but the gamma offsets keep a zero root usable.
        let s = SeedSequence::new(0);
        assert_ne!(s.seed_for(0), 0);
        assert_ne!(s.seed_for(0), s.seed_for(1));
    }
}
