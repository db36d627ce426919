//! SGTIN-96 EPC encoding — realistic identities for simulated tags.
//!
//! The paper's scenario tags every item in a store; real deployments
//! use GS1's *Serialized Global Trade Item Number* in its 96-bit EPC
//! binary encoding. This module implements the SGTIN-96 layout so
//! examples and tests can exercise the monitor with identities shaped
//! like production data (structured, highly non-uniform bit patterns —
//! a good stress for the slot hash, which must randomize them anyway).
//!
//! Layout (96 bits, most significant first):
//!
//! | field | bits | meaning |
//! |---|---|---|
//! | header | 8 | `0x30` for SGTIN-96 |
//! | filter | 3 | packaging level (0–7) |
//! | partition | 3 | split between company prefix and item reference |
//! | company prefix | 20–40 | GS1 company prefix |
//! | item reference | 24–4 | item class within the company |
//! | serial | 38 | per-item serial number |
//!
//! The partition table follows the EPC Tag Data Standard: partition `p`
//! gives the company prefix `40 − 3.29p…` — encoded exactly per the
//! standard's table below.

use std::fmt;

use crate::error::SimError;
use crate::ident::TagId;

/// The SGTIN-96 header byte.
pub const SGTIN96_HEADER: u8 = 0x30;

/// Partition table from the EPC Tag Data Standard §14.5.1.1:
/// `(company_prefix_bits, item_reference_bits)` for partitions 0–6.
const PARTITIONS: [(u32, u32); 7] = [
    (40, 4),
    (37, 7),
    (34, 10),
    (30, 14),
    (27, 17),
    (24, 20),
    (20, 24),
];

/// Bits in the serial field.
const SERIAL_BITS: u32 = 38;

/// A decoded SGTIN-96 identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Sgtin96 {
    /// Packaging-level filter value (0–7).
    pub filter: u8,
    /// Partition index (0–6), fixing the field split below.
    pub partition: u8,
    /// GS1 company prefix (width set by `partition`).
    pub company_prefix: u64,
    /// Item reference / class (width set by `partition`).
    pub item_reference: u64,
    /// Per-item serial (38 bits).
    pub serial: u64,
}

impl Sgtin96 {
    /// Validates field ranges and builds an identity.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SgtinOutOfRange`] naming the offending field
    /// when any value exceeds its partition-determined width.
    pub fn new(
        filter: u8,
        partition: u8,
        company_prefix: u64,
        item_reference: u64,
        serial: u64,
    ) -> Result<Self, SimError> {
        if filter > 7 {
            return Err(SimError::SgtinOutOfRange {
                field: "filter",
                value: u128::from(filter),
                max_bits: 3,
            });
        }
        let Some(&(cp_bits, ir_bits)) = PARTITIONS.get(partition as usize) else {
            return Err(SimError::SgtinOutOfRange {
                field: "partition",
                value: u128::from(partition),
                max_bits: 3,
            });
        };
        if company_prefix >= 1u64 << cp_bits {
            return Err(SimError::SgtinOutOfRange {
                field: "company_prefix",
                value: u128::from(company_prefix),
                max_bits: cp_bits,
            });
        }
        if item_reference >= 1u64 << ir_bits {
            return Err(SimError::SgtinOutOfRange {
                field: "item_reference",
                value: u128::from(item_reference),
                max_bits: ir_bits,
            });
        }
        if serial >= 1u64 << SERIAL_BITS {
            return Err(SimError::SgtinOutOfRange {
                field: "serial",
                value: u128::from(serial),
                max_bits: SERIAL_BITS,
            });
        }
        Ok(Sgtin96 {
            filter,
            partition,
            company_prefix,
            item_reference,
            serial,
        })
    }

    /// Encodes to the 96-bit EPC binary form.
    #[must_use]
    pub fn encode(&self) -> TagId {
        let (cp_bits, ir_bits) = PARTITIONS[self.partition as usize];
        let mut bits: u128 = u128::from(SGTIN96_HEADER); // 8
        bits = (bits << 3) | u128::from(self.filter); // 3
        bits = (bits << 3) | u128::from(self.partition); // 3
        bits = (bits << cp_bits) | u128::from(self.company_prefix);
        bits = (bits << ir_bits) | u128::from(self.item_reference);
        bits = (bits << SERIAL_BITS) | u128::from(self.serial);
        TagId::new(bits)
    }

    /// Decodes a 96-bit EPC, verifying the SGTIN-96 header.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotSgtin`] for a wrong header or an invalid
    /// partition value.
    // lint:allow(u1-dead-pub): oracle: the inverse of encode; tests/extensions.rs::sgtin_identities_flow_through_trp_unchanged reads the tags back with it
    pub fn decode(id: TagId) -> Result<Self, SimError> {
        let bits = id.as_u128();
        let header = (bits >> 88) as u8;
        if header != SGTIN96_HEADER {
            return Err(SimError::NotSgtin { header });
        }
        let filter = ((bits >> 85) & 0x7) as u8;
        let partition = ((bits >> 82) & 0x7) as u8;
        let Some(&(cp_bits, ir_bits)) = PARTITIONS.get(partition as usize) else {
            return Err(SimError::NotSgtin { header });
        };
        let serial = (bits & ((1u128 << SERIAL_BITS) - 1)) as u64;
        let ir_shift = SERIAL_BITS;
        let item_reference = ((bits >> ir_shift) & ((1u128 << ir_bits) - 1)) as u64;
        let cp_shift = ir_shift + ir_bits;
        let company_prefix = ((bits >> cp_shift) & ((1u128 << cp_bits) - 1)) as u64;
        Ok(Sgtin96 {
            filter,
            partition,
            company_prefix,
            item_reference,
            serial,
        })
    }
}

impl fmt::Display for Sgtin96 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sgtin:{}.{}.{}.{}",
            self.filter, self.company_prefix, self.item_reference, self.serial
        )
    }
}

/// Generates `count` sequential-serial SGTIN-96 IDs for one item class —
/// the shape of a real pallet: same company, same product, serials
/// `serial_start..`.
///
/// # Errors
///
/// Propagates field-range validation.
pub fn sgtin_batch(
    company_prefix: u64,
    item_reference: u64,
    serial_start: u64,
    count: u64,
) -> Result<Vec<TagId>, SimError> {
    (0..count)
        .map(|k| {
            Sgtin96::new(1, 5, company_prefix, item_reference, serial_start + k).map(|s| s.encode())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sgtin96 {
        Sgtin96::new(1, 5, 0x12_3456, 0x0F_00BA, 42).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample();
        let id = s.encode();
        assert_eq!(Sgtin96::decode(id).unwrap(), s);
    }

    #[test]
    fn round_trip_across_all_partitions() {
        for p in 0..7u8 {
            let (cp_bits, ir_bits) = PARTITIONS[p as usize];
            let s = Sgtin96::new(
                7,
                p,
                (1u64 << cp_bits) - 1,
                (1u64 << ir_bits) - 1,
                (1u64 << SERIAL_BITS) - 1,
            )
            .unwrap();
            assert_eq!(Sgtin96::decode(s.encode()).unwrap(), s, "partition {p}");
        }
    }

    #[test]
    fn header_is_sgtin() {
        let id = sample().encode();
        assert_eq!((id.as_u128() >> 88) as u8, SGTIN96_HEADER);
    }

    #[test]
    fn field_ranges_are_validated() {
        assert!(Sgtin96::new(8, 0, 0, 0, 0).is_err()); // filter
        assert!(Sgtin96::new(0, 7, 0, 0, 0).is_err()); // partition
        assert!(Sgtin96::new(0, 6, 1 << 20, 0, 0).is_err()); // company
        assert!(Sgtin96::new(0, 6, 0, 1 << 24, 0).is_err()); // item ref
        assert!(Sgtin96::new(0, 0, 0, 0, 1 << 38).is_err()); // serial
    }

    #[test]
    fn decode_rejects_non_sgtin() {
        let err = Sgtin96::decode(TagId::new(0)).unwrap_err();
        assert!(matches!(err, SimError::NotSgtin { header: 0 }));
    }

    #[test]
    fn decode_rejects_invalid_partition() {
        // Header right, partition 7 (undefined).
        let bits: u128 = (u128::from(SGTIN96_HEADER) << 88) | (7u128 << 82);
        assert!(Sgtin96::decode(TagId::new(bits)).is_err());
    }

    #[test]
    fn batch_produces_distinct_sequential_ids() {
        let ids = sgtin_batch(0x12_3456, 7, 1_000, 500).unwrap();
        assert_eq!(ids.len(), 500);
        let distinct: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 500);
        let first = Sgtin96::decode(ids[0]).unwrap();
        let last = Sgtin96::decode(ids[499]).unwrap();
        assert_eq!(first.serial, 1_000);
        assert_eq!(last.serial, 1_499);
        assert_eq!(first.company_prefix, last.company_prefix);
    }

    #[test]
    fn batch_ids_hash_uniformly_despite_structure() {
        // Sequential serials share 90+ bits; the slot hash must still
        // spread them. (This is why mix64 avalanches matter.)
        use crate::hash::slot_for;
        use crate::ident::{FrameSize, Nonce};
        let ids = sgtin_batch(0x12_3456, 7, 0, 2_000).unwrap();
        let f = FrameSize::new(64).unwrap();
        let mut counts = vec![0u32; 64];
        for id in ids {
            counts[slot_for(id, Nonce::new(5), f) as usize] += 1;
        }
        let expected = 2_000.0 / 64.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = f64::from(c) - expected;
                d * d / expected
            })
            .sum();
        // 63 dof: mean 63, sd ~11; 160 is ~8 sigma.
        assert!(chi2 < 160.0, "structured ids hash badly: chi2 = {chi2}");
    }

    #[test]
    fn display_is_dotted() {
        assert_eq!(sample().to_string(), "sgtin:1.1193046.983226.42");
    }
}
