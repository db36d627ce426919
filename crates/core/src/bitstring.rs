//! The presence bitstring `bs`.
//!
//! The reader's entire report to the server is one bit per slot: did
//! anybody answer? (Paper §4.1: the reader turns per-slot observations
//! into `bs = {… 1 0 1 1 0 …}`.) [`Bitstring`] is a compact, fixed-length
//! bit vector over `u64` words with exactly the operations the protocols
//! and attacks need: set/get, popcount, bitwise OR (the TRP collusion
//! attack merges bitstrings with `bss1 ∨ bss2`, Alg. 4), XOR/AND for
//! verification diffs, and mismatch enumeration for evidence reporting.

use std::fmt;

use crate::error::CoreError;

const WORD_BITS: usize = 64;

/// A fixed-length bit vector.
///
/// ```rust
/// use tagwatch_core::Bitstring;
///
/// let mut bs = Bitstring::zeros(8);
/// bs.set(2, true)?;
/// bs.set(5, true)?;
/// assert_eq!(bs.count_ones(), 2);
/// assert_eq!(bs.to_string(), "00100100");
/// # Ok::<(), tagwatch_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Bitstring {
    len: usize,
    words: Vec<u64>,
}

impl Bitstring {
    /// An all-zero bitstring of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Bitstring {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Reinitializes this bitstring to `len` all-zero bits, reusing the
    /// existing word allocation when it is large enough.
    ///
    /// This is the buffer-reuse primitive behind the zero-allocation
    /// round engine: a [`crate::engine::RoundScratch`] resets one
    /// bitstring per round instead of allocating a fresh one.
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Builds a bitstring from booleans.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bs = Bitstring::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bs.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        bs
    }

    /// Length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitstring has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BitOutOfRange`] if `index >= len`.
    pub fn get(&self, index: usize) -> Result<bool, CoreError> {
        if index >= self.len {
            return Err(CoreError::BitOutOfRange {
                index,
                len: self.len,
            });
        }
        Ok((self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1)
    }

    /// Writes bit `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BitOutOfRange`] if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) -> Result<(), CoreError> {
        if index >= self.len {
            return Err(CoreError::BitOutOfRange {
                index,
                len: self.len,
            });
        }
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
        Ok(())
    }

    /// Sets bit `index`, which the caller has reduced into the frame:
    /// the occupancy writer's store, without [`Bitstring::set`]'s
    /// `Result`.
    #[inline]
    pub(crate) fn insert(&mut self, index: usize) {
        debug_assert!(index < self.len, "bit {index} outside {} bits", self.len);
        self.words[index / WORD_BITS] |= 1u64 << (index % WORD_BITS);
    }

    /// The first set bit at or after `from`, scanning whole words: the
    /// next occupied slot a replayed round must reproduce.
    pub(crate) fn next_one(&self, from: usize) -> Option<usize> {
        let mut wi = from / WORD_BITS;
        let mut bits = self.words.get(wi)? & (u64::MAX << (from % WORD_BITS));
        while bits == 0 {
            wi += 1;
            bits = *self.words.get(wi)?;
        }
        Some(wi * WORD_BITS + bits.trailing_zeros() as usize)
    }

    /// Number of set bits (occupied slots).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits (empty slots).
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Bitwise OR — the colluding readers' merge step (Alg. 4 line 3).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if lengths differ.
    pub fn or(&self, other: &Bitstring) -> Result<Bitstring, CoreError> {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise AND.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if lengths differ.
    pub fn and(&self, other: &Bitstring) -> Result<Bitstring, CoreError> {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise XOR — the verification diff.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if lengths differ.
    pub fn xor(&self, other: &Bitstring) -> Result<Bitstring, CoreError> {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Number of positions where the two bitstrings disagree.
    ///
    /// Computed word-at-a-time (XOR + popcount per `u64`) with no
    /// intermediate allocation — this is the verdict comparison on the
    /// per-round hot path, so it must not churn the allocator or walk
    /// bits one by one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if lengths differ.
    pub fn hamming_distance(&self, other: &Bitstring) -> Result<usize, CoreError> {
        self.check_len(other)?;
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// Index of the first position where the two bitstrings disagree,
    /// or `None` when they are identical.
    ///
    /// Scans whole `u64` words and only inspects bits inside the first
    /// differing word (via trailing-zeros), so agreement over long
    /// prefixes costs one compare per 64 slots.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if lengths differ.
    pub fn first_mismatch(&self, other: &Bitstring) -> Result<Option<usize>, CoreError> {
        self.check_len(other)?;
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let diff = a ^ b;
            if diff != 0 {
                return Ok(Some(wi * WORD_BITS + diff.trailing_zeros() as usize));
            }
        }
        Ok(None)
    }

    /// Indices of all disagreeing positions, ascending — the server's
    /// evidence when a verification fails.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if lengths differ.
    pub fn mismatch_indices(&self, other: &Bitstring) -> Result<Vec<usize>, CoreError> {
        self.check_len(other)?;
        let mut out = Vec::new();
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut diff = a ^ b;
            while diff != 0 {
                out.push(wi * WORD_BITS + diff.trailing_zeros() as usize);
                diff &= diff - 1;
            }
        }
        Ok(out)
    }

    fn check_len(&self, other: &Bitstring) -> Result<(), CoreError> {
        if self.len != other.len {
            return Err(CoreError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        Ok(())
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * WORD_BITS;
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(base + tz)
                }
            })
        })
    }

    /// Iterates over all bits as booleans, ascending.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1)
    }

    /// Converts to a boolean vector.
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    fn zip_words<F: Fn(u64, u64) -> u64>(
        &self,
        other: &Bitstring,
        op: F,
    ) -> Result<Bitstring, CoreError> {
        if self.len != other.len {
            return Err(CoreError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| op(a, b))
            .collect::<Vec<_>>();
        let mut out = Bitstring {
            len: self.len,
            words,
        };
        out.mask_tail();
        Ok(out)
    }

    /// Clears any bits beyond `len` in the last word, preserving the
    /// invariant that unused bits are zero (required for `Eq`/`Hash` and
    /// popcounts to be well defined).
    fn mask_tail(&mut self) {
        let used = self.len % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }
}

impl fmt::Display for Bitstring {
    /// Renders as a `0`/`1` string, slot 0 first. Strings longer than
    /// 256 bits are elided in the middle.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const LIMIT: usize = 256;
        if self.len <= LIMIT {
            for b in self.iter() {
                write!(f, "{}", if b { '1' } else { '0' })?;
            }
        } else {
            for i in 0..(LIMIT / 2) {
                let b = (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1;
                write!(f, "{}", if b { '1' } else { '0' })?;
            }
            write!(f, "…({} bits)…", self.len - LIMIT)?;
            for i in (self.len - LIMIT / 2)..self.len {
                let b = (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1;
                write!(f, "{}", if b { '1' } else { '0' })?;
            }
        }
        Ok(())
    }
}

impl FromIterator<bool> for Bitstring {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Bitstring::from_bools(&bits)
    }
}

impl From<&[bool]> for Bitstring {
    fn from(bits: &[bool]) -> Self {
        Bitstring::from_bools(bits)
    }
}

impl From<Vec<bool>> for Bitstring {
    fn from(bits: Vec<bool>) -> Self {
        Bitstring::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(pattern: &str) -> Bitstring {
        pattern.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn zeros_has_no_set_bits() {
        let b = Bitstring::zeros(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.count_zeros(), 130);
    }

    #[test]
    fn set_get_round_trip_across_word_boundaries() {
        let mut b = Bitstring::zeros(200);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            b.set(i, true).unwrap();
            assert!(b.get(i).unwrap(), "bit {i}");
        }
        assert_eq!(b.count_ones(), 8);
        b.set(64, false).unwrap();
        assert!(!b.get(64).unwrap());
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    fn out_of_range_access_errors() {
        let mut b = Bitstring::zeros(10);
        assert!(matches!(
            b.get(10),
            Err(CoreError::BitOutOfRange { index: 10, len: 10 })
        ));
        assert!(b.set(11, true).is_err());
    }

    #[test]
    fn or_merges_like_colluding_readers() {
        // Alg. 4: b̂s = bss1 ∨ bss2 reconstructs the honest bitstring.
        let s1 = bs("10010");
        let s2 = bs("01010");
        assert_eq!(s1.or(&s2).unwrap(), bs("11010"));
    }

    #[test]
    fn xor_and_hamming_measure_disagreement() {
        let a = bs("110010");
        let b = bs("100011");
        assert_eq!(a.xor(&b).unwrap(), bs("010001"));
        assert_eq!(a.hamming_distance(&b).unwrap(), 2);
        assert_eq!(a.mismatch_indices(&b).unwrap(), vec![1, 5]);
    }

    #[test]
    fn and_intersects() {
        let a = bs("1101");
        let b = bs("1011");
        assert_eq!(a.and(&b).unwrap(), bs("1001"));
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let a = Bitstring::zeros(5);
        let b = Bitstring::zeros(6);
        assert!(matches!(
            a.or(&b),
            Err(CoreError::LengthMismatch { left: 5, right: 6 })
        ));
        assert!(a.xor(&b).is_err());
        assert!(a.and(&b).is_err());
        assert!(a.hamming_distance(&b).is_err());
    }

    #[test]
    fn iter_ones_lists_indices_in_order() {
        let b = bs("0100100001");
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![1, 4, 9]);
    }

    #[test]
    fn iter_ones_handles_multiword() {
        let mut b = Bitstring::zeros(150);
        for i in [3usize, 64, 100, 149] {
            b.set(i, true).unwrap();
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 64, 100, 149]);
    }

    #[test]
    fn bools_round_trip() {
        let pattern: Vec<bool> = (0..97).map(|i| i % 3 == 0).collect();
        let b = Bitstring::from_bools(&pattern);
        assert_eq!(b.to_bools(), pattern);
        let c: Bitstring = pattern.clone().into();
        assert_eq!(b, c);
    }

    #[test]
    fn display_small_and_elided() {
        assert_eq!(bs("10110").to_string(), "10110");
        let big = Bitstring::zeros(1000);
        let text = big.to_string();
        assert!(text.contains("…(744 bits)…"));
    }

    #[test]
    fn equality_ignores_tail_garbage() {
        // Constructing through ops must keep tail bits masked so Eq and
        // Hash stay structural.
        let a = bs("101");
        let complement_src = bs("010");
        let ored = a.or(&complement_src).unwrap();
        assert_eq!(ored, bs("111"));
        assert_eq!(ored.count_ones(), 3);
    }

    #[test]
    fn empty_bitstring_behaves() {
        let e = Bitstring::zeros(0);
        assert!(e.is_empty());
        assert_eq!(e.count_ones(), 0);
        assert_eq!(e.to_string(), "");
        assert_eq!(e.or(&Bitstring::zeros(0)).unwrap(), e);
    }

    #[test]
    fn from_iterator_collects() {
        let b: Bitstring = [true, false, true].into_iter().collect();
        assert_eq!(b.to_string(), "101");
    }

    #[test]
    fn reset_reuses_buffer_and_clears_bits() {
        let mut b = Bitstring::zeros(200);
        for i in [0usize, 63, 64, 199] {
            b.set(i, true).unwrap();
        }
        b.reset(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        // Growing again must also come up all-zero.
        b.set(129, true).unwrap();
        b.reset(300);
        assert_eq!(b.len(), 300);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b, Bitstring::zeros(300));
    }

    #[test]
    fn first_mismatch_finds_earliest_disagreement() {
        let a = bs("110010");
        let b = bs("100011");
        assert_eq!(a.first_mismatch(&b).unwrap(), Some(1));
        assert_eq!(a.first_mismatch(&a).unwrap(), None);
        // Across a word boundary: identical first word, diff at bit 70.
        let mut x = Bitstring::zeros(100);
        let mut y = Bitstring::zeros(100);
        x.set(3, true).unwrap();
        y.set(3, true).unwrap();
        x.set(70, true).unwrap();
        assert_eq!(x.first_mismatch(&y).unwrap(), Some(70));
        assert!(Bitstring::zeros(5)
            .first_mismatch(&Bitstring::zeros(6))
            .is_err());
    }

    #[test]
    fn word_level_hamming_matches_bitwise_count() {
        // Cross-check the word-at-a-time hamming against a per-bit loop
        // on multiword strings with dense tails.
        let a: Bitstring = (0..193).map(|i| i % 3 == 0).collect();
        let b: Bitstring = (0..193).map(|i| i % 5 == 0).collect();
        let naive = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        assert_eq!(a.hamming_distance(&b).unwrap(), naive);
        assert_eq!(a.mismatch_indices(&b).unwrap().len(), naive);
        let first = a.first_mismatch(&b).unwrap().unwrap();
        assert_eq!(first, a.mismatch_indices(&b).unwrap()[0]);
    }

    #[test]
    fn next_one_finds_the_first_set_bit_at_or_after() {
        let mut b = Bitstring::zeros(140);
        for i in [5usize, 64, 139] {
            b.set(i, true).unwrap();
        }
        assert_eq!(b.next_one(0), Some(5));
        assert_eq!(b.next_one(5), Some(5));
        // Across the word boundary, and up to the last bit.
        assert_eq!(b.next_one(6), Some(64));
        assert_eq!(b.next_one(65), Some(139));
        assert_eq!(b.next_one(140), None);
        assert_eq!(Bitstring::zeros(140).next_one(0), None);
        assert_eq!(Bitstring::zeros(0).next_one(0), None);
    }
}
