//! Identity and protocol-parameter newtypes shared by all crates.
//!
//! * [`TagId`] — a 96-bit EPC-style tag identifier.
//! * [`Nonce`] — the per-frame random number `r` broadcast by the reader.
//! * [`FrameSize`] — a validated framed-slotted-ALOHA frame size `f`.

use std::fmt;
use std::num::NonZeroU64;
use std::str::FromStr;

use crate::error::SimError;

/// A 96-bit EPC-style tag identifier.
///
/// EPC Class-1 Gen-2 tags carry a 96-bit Electronic Product Code; we
/// store it in the low 96 bits of a `u128`. The monitoring protocols
/// never transmit this ID over the air — that is the point of the paper —
/// but the *server* hashes it to predict slot choices.
///
/// ```rust
/// use tagwatch_sim::TagId;
///
/// let id = TagId::new(0xABCD_0123);
/// assert_eq!(id.as_u128(), 0xABCD_0123);
/// assert_eq!(id.to_string(), "epc:000000000000000abcd0123");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TagId(u128);

impl TagId {
    /// Number of significant bits in an EPC-96 identifier.
    pub const BITS: u32 = 96;

    /// Mask of the valid 96 ID bits.
    pub const MASK: u128 = (1u128 << 96) - 1;

    /// Creates a tag ID from a raw value.
    ///
    /// Bits above the 96th are silently masked off so that every
    /// constructed `TagId` is a valid EPC-96 code.
    #[must_use]
    pub const fn new(raw: u128) -> Self {
        TagId(raw & Self::MASK)
    }

    /// The identifier as an unsigned integer (96 significant bits).
    #[must_use]
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// Folds the 96-bit ID into 64 bits for hashing.
    ///
    /// The fold XORs the high and low halves, which preserves uniformity
    /// of uniformly random IDs and keeps sequential IDs distinct.
    #[must_use]
    pub const fn fold64(self) -> u64 {
        (self.0 as u64) ^ ((self.0 >> 64) as u64)
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epc:{:023x}", self.0)
    }
}

impl From<u64> for TagId {
    fn from(raw: u64) -> Self {
        TagId::new(raw as u128)
    }
}

impl FromStr for TagId {
    type Err = std::num::ParseIntError;

    /// Parses either the canonical `epc:<hex>` form produced by
    /// [`Display`](fmt::Display) or a bare hexadecimal string.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex = s.strip_prefix("epc:").unwrap_or(s);
        u128::from_str_radix(hex, 16).map(TagId::new)
    }
}

/// The per-frame random number `r` chosen by the server and broadcast by
/// the reader along with the frame size.
///
/// Tags mix the nonce into their slot hash: `sn = h(id ⊕ r) mod f`.
/// In UTRP the server pre-commits a whole *sequence* of nonces
/// `(r₁, …, r_f)`, one for each potential re-seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Nonce(u64);

impl Nonce {
    /// Creates a nonce from a raw value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Nonce(raw)
    }

    /// The raw nonce value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r:{:016x}", self.0)
    }
}

impl From<u64> for Nonce {
    fn from(raw: u64) -> Self {
        Nonce(raw)
    }
}

/// A validated framed-slotted-ALOHA frame size `f` (number of slots).
///
/// Always at least 1 and at most [`FrameSize::MAX`]; the protocol math
/// indexes slots with `u64` and allocates `f`-slot vectors, so the cap
/// keeps a typo from allocating terabytes.
///
/// ```rust
/// use tagwatch_sim::FrameSize;
///
/// let f = FrameSize::new(128)?;
/// assert_eq!(f.get(), 128);
/// assert!(FrameSize::new(0).is_err());
/// # Ok::<(), tagwatch_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FrameSize(NonZeroU64);

impl FrameSize {
    /// Largest supported frame: 2²⁴ slots (~16.7 million), far above any
    /// frame the sizing math produces for realistic populations.
    pub const MAX: u64 = 1 << 24;

    /// The single-slot frame.
    pub const ONE: FrameSize = FrameSize(match NonZeroU64::new(1) {
        Some(v) => v,
        None => unreachable!(),
    });

    /// Creates a validated frame size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyFrame`] if `slots == 0`, or
    /// [`SimError::FrameTooLarge`] if `slots > FrameSize::MAX`.
    pub fn new(slots: u64) -> Result<Self, SimError> {
        if slots > Self::MAX {
            return Err(SimError::FrameTooLarge { requested: slots });
        }
        NonZeroU64::new(slots)
            .map(FrameSize)
            .ok_or(SimError::EmptyFrame)
    }

    /// The number of slots in the frame.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0.get()
    }

    /// The number of slots as a `usize` for indexing.
    ///
    /// Infallible because [`FrameSize::MAX`] fits in `usize` on all
    /// supported platforms (64-bit and 32-bit).
    #[must_use]
    pub fn as_usize(self) -> usize {
        // Lossless: construction caps the value at MAX = 2^24, which
        // fits usize on every supported (32/64-bit) platform.
        self.0.get() as usize
    }
}

impl fmt::Display for FrameSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} slots", self.0)
    }
}

impl TryFrom<u64> for FrameSize {
    type Error = SimError;

    fn try_from(slots: u64) -> Result<Self, Self::Error> {
        FrameSize::new(slots)
    }
}

impl From<FrameSize> for u64 {
    fn from(f: FrameSize) -> u64 {
        f.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_id_masks_to_96_bits() {
        let id = TagId::new(u128::MAX);
        assert_eq!(id.as_u128(), TagId::MASK);
        assert_eq!(id.as_u128() >> 96, 0);
    }

    #[test]
    fn tag_id_display_parse_round_trip() {
        for raw in [0u128, 1, 0xdead_beef, TagId::MASK] {
            let id = TagId::new(raw);
            let parsed: TagId = id.to_string().parse().unwrap();
            assert_eq!(parsed, id);
        }
    }

    #[test]
    fn tag_id_parses_bare_hex() {
        let id: TagId = "ff".parse().unwrap();
        assert_eq!(id.as_u128(), 0xff);
    }

    #[test]
    fn tag_id_rejects_garbage() {
        assert!("not-hex".parse::<TagId>().is_err());
    }

    #[test]
    fn fold64_keeps_sequential_ids_distinct() {
        let a = TagId::new(1).fold64();
        let b = TagId::new(2).fold64();
        assert_ne!(a, b);
    }

    #[test]
    fn fold64_xors_halves() {
        let id = TagId::new((3u128 << 64) | 5u128);
        assert_eq!(id.fold64(), 3 ^ 5);
    }

    #[test]
    fn frame_size_validates_bounds() {
        assert_eq!(FrameSize::new(0).unwrap_err(), SimError::EmptyFrame);
        assert!(FrameSize::new(1).is_ok());
        assert!(FrameSize::new(FrameSize::MAX).is_ok());
        assert_eq!(
            FrameSize::new(FrameSize::MAX + 1).unwrap_err(),
            SimError::FrameTooLarge {
                requested: FrameSize::MAX + 1
            }
        );
    }

    #[test]
    fn frame_size_conversions() {
        let f = FrameSize::try_from(64u64).unwrap();
        assert_eq!(u64::from(f), 64);
        assert_eq!(f.as_usize(), 64);
        assert_eq!(f.to_string(), "64 slots");
    }

    #[test]
    fn nonce_round_trip() {
        let r = Nonce::new(0x0123_4567_89ab_cdef);
        assert_eq!(r.as_u64(), 0x0123_4567_89ab_cdef);
        assert_eq!(Nonce::from(5u64), Nonce::new(5));
        assert_eq!(r.to_string(), "r:0123456789abcdef");
    }

    #[test]
    fn frame_size_one_constant() {
        assert_eq!(FrameSize::ONE.get(), 1);
    }
}
