//! The deterministic slot-pick hash `h(·)`.
//!
//! The protocols hinge on one observation (paper §4.1): a low-cost tag
//! picks its reply slot **deterministically** from its ID and the
//! broadcast nonce, `sn = h(id ⊕ r) mod f` — so a server that knows all
//! IDs can predict the entire frame. UTRP additionally folds the tag's
//! monotone counter in: `sn = h(id ⊕ r ⊕ ct) mod f`.
//!
//! The paper leaves `h` abstract; any uniform hash preserves the
//! analysis. We implement a splitmix64-style avalanche finalizer
//! in-repo (rather than `std::collections::hash_map::DefaultHasher`,
//! whose algorithm is explicitly not stable across Rust releases) so
//! that simulated tags and the server agree bit-for-bit and experiment
//! results are reproducible on any platform, forever.

use crate::ident::{FrameSize, Nonce, TagId};
use crate::tag::Counter;

/// One round of the splitmix64 avalanche finalizer.
///
/// This is the `mix` function from Steele, Lea & Flood's SplitMix
/// generator: two xor-shift-multiply rounds and a final xor-shift. It is
/// bijective on `u64` and passes avalanche tests, which is all the slot
/// hash requires.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Maps a 64-bit hash uniformly onto `[0, f)`.
///
/// Plain `h % f` is what the paper writes and its bias is at most
/// `f / 2⁶⁴` — utterly negligible for frames of a few thousand slots —
/// but we route every reduction through this one function so the choice
/// is documented and swappable.
#[inline]
#[must_use]
pub fn reduce(hash: u64, f: FrameSize) -> u64 {
    hash % f.get()
}

/// The slot a tag picks in a plain (TRP-style) frame:
/// `sn = h(id ⊕ r) mod f`, zero-based.
///
/// ```rust
/// use tagwatch_sim::{slot_for, FrameSize, Nonce, TagId};
///
/// let f = FrameSize::new(100)?;
/// let sn = slot_for(TagId::new(7), Nonce::new(42), f);
/// assert!(sn < 100);
/// // Determinism: the server can recompute the very same slot.
/// assert_eq!(sn, slot_for(TagId::new(7), Nonce::new(42), f));
/// # Ok::<(), tagwatch_sim::SimError>(())
/// ```
#[inline]
#[must_use]
pub fn slot_for(id: TagId, r: Nonce, f: FrameSize) -> u64 {
    reduce(mix64(id.fold64() ^ r.as_u64()), f)
}

/// The slot a tag picks in a counter-mixed (UTRP-style) frame:
/// `sn = h(id ⊕ r ⊕ ct) mod f`, zero-based.
///
/// The counter is diffused with one extra [`mix64`] round before the
/// XOR so that `ct` and `ct + 1` produce unrelated slots even though
/// they differ in a single low bit.
#[inline]
#[must_use]
pub fn slot_for_counted(id: TagId, r: Nonce, ct: Counter, f: FrameSize) -> u64 {
    reduce(mix64(id.fold64() ^ r.as_u64() ^ mix64(ct.get())), f)
}

/// A precomputed divisor that evaluates `x % f` without a hardware
/// divide, bit-identical to the `%` operator.
///
/// The round engines evaluate [`reduce`] once per active tag per
/// announcement — millions of times per large round — and a 64-bit
/// integer divide by a runtime divisor is the single slowest ALU op on
/// that path (tens of cycles, not pipelined). `FastMod` hoists the
/// divisor work out of the loop using Lemire's exact remainder method
/// (Lemire, Kaser & Kurz, *"Faster remainders when the divisor is a
/// constant"*, 2019): precompute `M = ⌈2¹²⁸ / f⌉` once per frame, then
///
/// ```text
/// x mod f = (((M · x) mod 2¹²⁸) · f) >> 128
/// ```
///
/// which is three 64×64→128 multiplies per evaluation. The identity is
/// *exact* for every `x: u64` and every divisor `f ≥ 1` — this is not an
/// approximate multiply-shift reduction — so bitstrings, soak digests,
/// and every recorded experiment stay byte-identical to the plain `%`
/// path. The `f = 1` edge case falls out naturally: `M` wraps to 0, the
/// product is 0, and the remainder is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastMod {
    divisor: u64,
    magic: u128,
}

impl FastMod {
    /// Precomputes the magic constant for reductions modulo `f`.
    #[must_use]
    pub const fn new(f: FrameSize) -> Self {
        Self::from_divisor(f.get())
    }

    /// Precomputes the magic constant for an arbitrary non-zero divisor.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0` (a frame always has at least one slot).
    #[must_use]
    pub const fn from_divisor(divisor: u64) -> Self {
        assert!(divisor != 0, "FastMod divisor must be non-zero");
        // ⌈2¹²⁸ / d⌉ = ⌊(2¹²⁸ − 1) / d⌋ + 1 for d > 1; for d = 1 the
        // `+ 1` wraps to 0, which the multiply then annihilates — the
        // correct remainder (always 0) with no branch.
        let magic = (u128::MAX / divisor as u128).wrapping_add(1);
        FastMod { divisor, magic }
    }

    /// The divisor this reducer was built for.
    #[must_use]
    pub const fn divisor(self) -> u64 {
        self.divisor
    }

    /// Computes `x % divisor`, bit-identical to the `%` operator.
    #[inline]
    #[must_use]
    pub const fn rem(self, x: u64) -> u64 {
        self.rem_of_frac(self.frac(x))
    }

    /// The Lemire fraction `(M · x) mod 2¹²⁸` — the intermediate of
    /// [`FastMod::rem`], exposed so hot loops can split the reduction:
    /// compute the fraction (two multiplies), test it against
    /// [`FastMod::candidate_threshold`], and only finish with
    /// [`FastMod::rem_of_frac`] (two more multiplies) when the value can
    /// still matter.
    #[inline]
    #[must_use]
    pub const fn frac(self, x: u64) -> u128 {
        self.magic.wrapping_mul(x as u128)
    }

    /// Completes a reduction started by [`FastMod::frac`]:
    /// `rem_of_frac(frac(x)) == x % divisor` for every `x`.
    #[inline]
    #[must_use]
    pub const fn rem_of_frac(self, frac: u128) -> u64 {
        // ⌊(frac · d) / 2¹²⁸⌋ with d: u64, via two 64×64→128 limbs:
        // frac = hi·2⁶⁴ + lo ⇒ (frac·d) >> 128 = (hi·d + ((lo·d) >> 64)) >> 64.
        let d = self.divisor as u128;
        let lo_prod = (frac as u64 as u128 * d) >> 64;
        let hi_prod = (frac >> 64) * d;
        ((hi_prod + lo_prod) >> 64) as u64
    }

    /// The largest Lemire fraction that can still reduce to a remainder
    /// `≤ bound`: if `frac(x) > candidate_threshold(bound)` then
    /// `x % divisor > bound`, **guaranteed**. The converse does not hold
    /// — a fraction at or below the threshold may still reduce above
    /// `bound` — so callers must treat sub-threshold values as
    /// *candidates* and verify them with [`FastMod::rem_of_frac`]. Used
    /// as a conservative pre-filter, the split is therefore bit-identical
    /// to calling [`FastMod::rem`] on every value.
    ///
    /// Soundness: `M ≥ 2¹²⁸ / d`, so `frac ≥ (bound+1) · M` implies
    /// `frac · d ≥ (bound+1) · 2¹²⁸`, i.e. `rem = ⌊frac · d / 2¹²⁸⌋ ≥
    /// bound + 1`. The threshold is `(bound+1) · M − 1`, so `frac >
    /// threshold` is exactly that condition. When every remainder is
    /// trivially `≤ bound` (`bound ≥ d − 1`, including `d = 1` where `M`
    /// wrapped to 0) the threshold is `u128::MAX`, which no fraction
    /// exceeds — everything stays a candidate.
    #[inline]
    #[must_use]
    pub const fn candidate_threshold(self, bound: u64) -> u128 {
        if self.magic == 0 || bound >= self.divisor - 1 {
            return u128::MAX;
        }
        // bound + 1 ≤ d − 1 and M·(d−1) < 2¹²⁸ for every u64 divisor
        // (since (d−1)² < 2¹²⁸), so the product cannot overflow; the
        // checked form guards the argument anyway — an overflow would
        // silently truncate the threshold and drop true candidates.
        match self.magic.checked_mul(bound as u128 + 1) {
            Some(t) => t - 1,
            None => u128::MAX,
        }
    }
}

/// The short random burst a tag transmits to claim a slot (paper
/// Alg. 2 line 5: "return some random bits").
///
/// Ten bits, per the RN16-style short replies of Gen-2 inventories
/// truncated to the paper's "much shorter than an ID" requirement. The
/// bits are derived from the tag's ID and nonce so that reruns are
/// reproducible; the *monitor never interprets them* — only their
/// presence in a slot matters.
#[inline]
#[must_use]
pub fn short_reply_bits(id: TagId, r: Nonce) -> u16 {
    (mix64(id.fold64().rotate_left(17) ^ r.as_u64()) & 0x3ff) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_avalanches() {
        assert_eq!(mix64(0x1234), mix64(0x1234));
        // Flipping one input bit flips roughly half the output bits.
        let a = mix64(0x5555_5555);
        let b = mix64(0x5555_5554);
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "poor avalanche: {flipped} bits"
        );
    }

    #[test]
    fn mix64_zero_fixed_point_and_injectivity_sample() {
        // splitmix64's finalizer maps 0 to 0 (every step preserves 0);
        // protocol code therefore always XORs a non-zero constant or
        // nonce before mixing. Also spot-check injectivity on a range —
        // the finalizer is bijective, so no two inputs may collide.
        assert_eq!(mix64(0), 0);
        let mut seen = std::collections::BTreeSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(mix64(x)), "collision at {x}");
        }
    }

    #[test]
    fn slot_is_stable_for_same_inputs() {
        let f = FrameSize::new(977).unwrap();
        let id = TagId::new(0xfeed_face);
        let r = Nonce::new(31337);
        assert_eq!(slot_for(id, r, f), slot_for(id, r, f));
    }

    #[test]
    fn slot_changes_with_nonce() {
        // The defence against replay: a fresh r re-randomizes every slot.
        let f = FrameSize::new(1024).unwrap();
        let id = TagId::new(99);
        let mut distinct = std::collections::BTreeSet::new();
        for r in 0..64u64 {
            distinct.insert(slot_for(id, Nonce::new(r), f));
        }
        assert!(distinct.len() > 32, "nonce barely moves the slot");
    }

    #[test]
    fn slot_within_frame_bounds() {
        for f_raw in [1u64, 2, 3, 10, 127, 1 << 20] {
            let f = FrameSize::new(f_raw).unwrap();
            for i in 0..200u64 {
                let sn = slot_for(TagId::from(i), Nonce::new(7), f);
                assert!(sn < f_raw);
            }
        }
    }

    #[test]
    fn counter_changes_slot() {
        // UTRP's anti-rewind property: advancing ct re-randomizes slots.
        let f = FrameSize::new(512).unwrap();
        let id = TagId::new(4242);
        let r = Nonce::new(1);
        let s0 = slot_for_counted(id, r, Counter::new(0), f);
        let mut moved = 0;
        for ct in 1..=32u64 {
            if slot_for_counted(id, r, Counter::new(ct), f) != s0 {
                moved += 1;
            }
        }
        assert!(moved >= 28, "counter barely moves the slot: {moved}/32");
    }

    #[test]
    fn slot_distribution_is_roughly_uniform() {
        // Chi-square-style sanity check: 100k tags into 100 slots.
        let f = FrameSize::new(100).unwrap();
        let n = 100_000u64;
        let mut counts = vec![0u64; 100];
        for i in 0..n {
            let sn = slot_for(TagId::from(i), Nonce::new(0xabcd), f) as usize;
            counts[sn] += 1;
        }
        let expected = (n / 100) as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 99 degrees of freedom: mean 99, std ~14; 200 is ~7 sigma.
        assert!(chi2 < 200.0, "chi-square too large: {chi2}");
    }

    #[test]
    fn short_reply_fits_ten_bits() {
        for i in 0..1000u64 {
            let bits = short_reply_bits(TagId::from(i), Nonce::new(3));
            assert!(bits < 1024);
        }
    }

    #[test]
    fn single_slot_frame_always_slot_zero() {
        let one = FrameSize::new(1).unwrap();
        assert_eq!(slot_for(TagId::new(123), Nonce::new(9), one), 0);
    }

    #[test]
    fn fastmod_matches_operator_on_edge_divisors() {
        let divisors = [
            1u64,
            2,
            3,
            4,
            5,
            7,
            8,
            16,
            255,
            256,
            257,
            977,
            1 << 20,
            (1 << 20) + 1,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let xs = [
            0u64,
            1,
            2,
            3,
            255,
            256,
            977,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &d in &divisors {
            let fm = FastMod::from_divisor(d);
            assert_eq!(fm.divisor(), d);
            for &x in &xs {
                assert_eq!(fm.rem(x), x % d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn fastmod_matches_operator_on_random_pairs() {
        // Deterministic pseudo-random sweep: every (x, d) pair drawn from
        // the avalanche hash, including divisors near powers of two where
        // approximate reductions break.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for i in 0..200_000u64 {
            state = mix64(state ^ i);
            let x = state;
            state = mix64(state ^ 0x9e37_79b9_7f4a_7c15);
            let mut d = state;
            if i % 3 == 0 {
                // Cluster around powers of two ±1.
                let shift = (state % 63) as u32 + 1;
                d = (1u64 << shift).wrapping_add((state >> 32) % 3).max(1);
            }
            if d == 0 {
                d = 1;
            }
            assert_eq!(FastMod::from_divisor(d).rem(x), x % d, "x={x} d={d}");
        }
    }

    #[test]
    fn frac_and_rem_of_frac_compose_to_rem() {
        let mut state = 0x1bd1_1bda_a9fc_1a22u64;
        for _ in 0..20_000 {
            state = mix64(state ^ 0x9e37_79b9_7f4a_7c15);
            let x = state;
            state = mix64(state);
            let d = state.max(1);
            let fm = FastMod::from_divisor(d);
            assert_eq!(fm.rem_of_frac(fm.frac(x)), x % d, "x={x} d={d}");
        }
    }

    #[test]
    fn candidate_threshold_never_skips_a_true_candidate() {
        // The load-bearing guarantee: frac > threshold(bound) must imply
        // rem > bound, for every (x, d, bound). Equivalently no value
        // with rem <= bound may exceed the threshold. Sweep small
        // divisors exhaustively-ish and large ones pseudo-randomly.
        let mut state = 0x8cb9_2ba7_2f3d_8dd7u64;
        for _ in 0..50_000 {
            state = mix64(state ^ 1);
            let x = state;
            state = mix64(state ^ 2);
            let d = (state % 3000).max(1);
            state = mix64(state ^ 3);
            let bound = state % d.max(2);
            let fm = FastMod::from_divisor(d);
            if fm.frac(x) > fm.candidate_threshold(bound) {
                assert!(x % d > bound, "skipped x={x} d={d} bound={bound}");
            }
        }
        // Huge divisors (overflow-adjacent thresholds).
        for d in [u64::MAX, u64::MAX - 1, 1u64 << 63, (1 << 63) + 1] {
            let fm = FastMod::from_divisor(d);
            for i in 0..2_000u64 {
                let x = mix64(i ^ d);
                let bound = mix64(i) % d;
                if fm.frac(x) > fm.candidate_threshold(bound) {
                    assert!(x % d > bound, "skipped x={x} d={d} bound={bound}");
                }
            }
        }
    }

    #[test]
    fn candidate_threshold_degenerate_cases_keep_everything_candidate() {
        // d = 1: every remainder is 0 <= bound, so nothing may be
        // skipped; magic wrapped to 0 makes the threshold MAX.
        assert_eq!(FastMod::from_divisor(1).candidate_threshold(0), u128::MAX);
        // bound >= d - 1: remainders are always <= bound.
        assert_eq!(FastMod::from_divisor(64).candidate_threshold(63), u128::MAX);
        assert_eq!(FastMod::from_divisor(64).candidate_threshold(99), u128::MAX);
        // The filter still prunes for a meaningful bound.
        let fm = FastMod::from_divisor(1024);
        assert!(fm.candidate_threshold(0) < u128::MAX / 512);
    }

    #[test]
    fn fastmod_agrees_with_reduce_for_frame_sizes() {
        for f_raw in [1u64, 2, 3, 10, 127, 977, 1 << 20] {
            let f = FrameSize::new(f_raw).unwrap();
            let fm = FastMod::new(f);
            for i in 0..500u64 {
                let h = mix64(i ^ 0xdead_beef);
                assert_eq!(fm.rem(h), reduce(h, f));
            }
        }
    }
}
