//! Pre-committed nonce sequences for UTRP.
//!
//! In UTRP the server issues the frame size together with `f` random
//! numbers, `(f, r₁, …, r_f)` (Alg. 5 line 1). The reader must consume
//! them *in order*, one per re-seed; since every re-seed is triggered by
//! a reply slot and a frame has `f` slots, `f` nonces always suffice.
//! Because the sequence is fixed by the server in advance, a dishonest
//! reader cannot steer the re-randomization — it can only follow the
//! script or return a wrong bitstring.

use rand::Rng;

use tagwatch_sim::{FrameSize, Nonce};

use crate::error::CoreError;

/// An ordered, server-chosen sequence of nonces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NonceSequence {
    nonces: Vec<Nonce>,
}

impl NonceSequence {
    /// Draws a sequence of `len` nonces from `rng`.
    pub fn generate<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        NonceSequence {
            nonces: (0..len).map(|_| Nonce::new(rng.gen())).collect(),
        }
    }

    /// A sequence sized for one UTRP round over frame `f` (one nonce per
    /// potential re-seed plus the initial announcement).
    pub fn for_frame<R: Rng + ?Sized>(f: FrameSize, rng: &mut R) -> Self {
        NonceSequence::generate(f.as_usize(), rng)
    }

    /// Builds a sequence from explicit nonces (tests, replay analysis).
    #[must_use]
    pub fn from_nonces(nonces: Vec<Nonce>) -> Self {
        NonceSequence { nonces }
    }

    /// Number of nonces in the sequence.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nonces.len()
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nonces.is_empty()
    }

    /// The `k`-th nonce (0-based), if present.
    #[must_use]
    pub fn get(&self, k: usize) -> Option<Nonce> {
        self.nonces.get(k).copied()
    }

    /// Iterates over the nonces in order.
    pub fn iter(&self) -> impl Iterator<Item = Nonce> + '_ {
        self.nonces.iter().copied()
    }

    /// An in-order consumer over this sequence.
    #[must_use]
    pub fn cursor(&self) -> NonceCursor<'_> {
        self.cursor_at(0)
    }

    /// An in-order consumer whose first nonce is the `next`-th (0-based):
    /// a round replay resumed mid-round.
    pub(crate) fn cursor_at(&self, next: usize) -> NonceCursor<'_> {
        NonceCursor {
            sequence: self,
            next,
        }
    }
}

/// An in-order consumer over a [`NonceSequence`].
///
/// Protocol code takes nonces only through a cursor, which makes
/// "use each random number only once, in the given order" (paper §5.3)
/// a structural property rather than a convention.
#[derive(Debug, Clone)]
pub struct NonceCursor<'a> {
    sequence: &'a NonceSequence,
    next: usize,
}

impl NonceCursor<'_> {
    /// Takes the next nonce in order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] when the sequence
    /// has run out — which a protocol-following reader can never hit.
    pub fn next_nonce(&mut self) -> Result<Nonce, CoreError> {
        let nonce = self
            .sequence
            .get(self.next)
            .ok_or(CoreError::NonceSequenceExhausted)?;
        self.next += 1;
        Ok(nonce)
    }

    /// How many nonces have been consumed.
    #[must_use]
    pub fn consumed(&self) -> usize {
        self.next
    }

    /// How many nonces remain.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.sequence.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_produces_requested_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let seq = NonceSequence::generate(10, &mut rng);
        assert_eq!(seq.len(), 10);
        assert!(!seq.is_empty());
    }

    #[test]
    fn for_frame_sizes_one_nonce_per_slot() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = FrameSize::new(37).unwrap();
        assert_eq!(NonceSequence::for_frame(f, &mut rng).len(), 37);
    }

    #[test]
    fn generation_is_seed_reproducible() {
        let a = NonceSequence::generate(8, &mut StdRng::seed_from_u64(7));
        let b = NonceSequence::generate(8, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = NonceSequence::generate(8, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn nonces_are_distinct_with_overwhelming_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let seq = NonceSequence::generate(1000, &mut rng);
        let distinct: std::collections::HashSet<_> = seq.iter().collect();
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn cursor_consumes_in_order() {
        let seq = NonceSequence::from_nonces(vec![Nonce::new(5), Nonce::new(9)]);
        let mut cur = seq.cursor();
        assert_eq!(cur.remaining(), 2);
        assert_eq!(cur.next_nonce().unwrap(), Nonce::new(5));
        assert_eq!(cur.next_nonce().unwrap(), Nonce::new(9));
        assert_eq!(cur.consumed(), 2);
        assert_eq!(
            cur.next_nonce().unwrap_err(),
            CoreError::NonceSequenceExhausted
        );
    }

    #[test]
    fn independent_cursors_do_not_interfere() {
        let seq = NonceSequence::from_nonces(vec![Nonce::new(1), Nonce::new(2)]);
        let mut a = seq.cursor();
        let mut b = seq.cursor();
        assert_eq!(a.next_nonce().unwrap(), Nonce::new(1));
        assert_eq!(b.next_nonce().unwrap(), Nonce::new(1));
    }

    #[test]
    fn get_is_bounds_checked() {
        let seq = NonceSequence::from_nonces(vec![Nonce::new(1)]);
        assert_eq!(seq.get(0), Some(Nonce::new(1)));
        assert_eq!(seq.get(1), None);
    }
}
