//! Deterministic, scripted fault injection.
//!
//! [`crate::radio::ChannelConfig`] models *probabilistic* physical-layer
//! failures; this module models **scripted** ones: a [`FaultPlan`] names
//! exact slot and announcement indices at which specific failures fire,
//! so a test can construct one precise failure history and assert the
//! monitor's exact response to it (detection, false alarm, or recovery)
//! instead of sampling distributions.
//!
//! The fault vocabulary covers the failure modes a UTRP deployment
//! actually faces:
//!
//! * **reply loss** ([`FaultPlan::lose_replies_at`]) — every uplink
//!   transmission in one global slot is lost; the tags transmitted (and
//!   will stay silent for the rest of the round) but the reader hears
//!   nothing, so it neither sets the bit nor re-seeds.
//! * **announcement loss** ([`FaultPlan::lose_announcement`]) — listed
//!   tags miss one downlink `(f', r)` announcement: their counters do
//!   not advance for it and they keep the reply slot they computed from
//!   the last announcement they heard. This is the canonical source of
//!   *counter desynchronization*.
//! * **reader crash** ([`FaultPlan::crash_after_slot`]) — the reader
//!   dies after processing a slot: no further announcements or
//!   listening. Tags freeze at the counters they had; the assembled
//!   bitstring reads empty past the crash point.
//! * **truncation** ([`FaultPlan::truncate_response`]) — the response
//!   bitstring is cut short in transit to the server (a shape error the
//!   server must reject, never silently accept).
//! * **clock skew** ([`FaultPlan::skew_clock`]) — the measured round
//!   time is scaled by a factor, modelling a drifting reader timer
//!   against the server's deadline.
//!
//! A [`FaultInjector`] is the cheap per-round cursor over a plan: it
//! tracks the current announcement index so executors can ask "does tag
//! X hear this?" without threading indices around.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::SimError;
use crate::ident::TagId;

/// A scripted schedule of faults for one protocol round.
///
/// Plans are built with the fluent `lose_*`/`crash_*`/`truncate_*`
/// methods and queried by the round executors in `tagwatch-core`. An
/// empty (default) plan injects nothing; executors are required to be
/// byte-identical to their fault-free forms under it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    lost_reply_slots: BTreeSet<u64>,
    lost_announcements: BTreeMap<u64, BTreeSet<TagId>>,
    crash_after_slot: Option<u64>,
    truncate_to: Option<u64>,
    clock_skew: Option<f64>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Loses every uplink reply transmitted in global slot `slot`.
    #[must_use]
    pub fn lose_replies_at(mut self, slot: u64) -> Self {
        self.lost_reply_slots.insert(slot);
        self
    }

    /// Makes `tags` miss downlink announcement number `announcement`
    /// (0-based: the initial `(f, r)` broadcast is announcement 0, the
    /// first re-seed is 1, …).
    #[must_use]
    pub fn lose_announcement<I: IntoIterator<Item = TagId>>(
        mut self,
        announcement: u64,
        tags: I,
    ) -> Self {
        self.lost_announcements
            .entry(announcement)
            .or_default()
            .extend(tags);
        self
    }

    /// Crashes the reader after it has processed global slot `slot`.
    #[must_use]
    pub fn crash_after_slot(mut self, slot: u64) -> Self {
        self.crash_after_slot = Some(slot);
        self
    }

    /// Truncates the response bitstring to `len` bits before it reaches
    /// the server.
    #[must_use]
    pub fn truncate_response(mut self, len: u64) -> Self {
        self.truncate_to = Some(len);
        self
    }

    /// Scales the reported round time by `factor` (1.0 = no skew;
    /// above 1.0 the reader's clock runs slow, so its round *appears*
    /// longer to the server).
    #[must_use]
    pub fn skew_clock(mut self, factor: f64) -> Self {
        self.clock_skew = Some(factor);
        self
    }

    /// Validates the plan's numeric knobs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProbability`] (reused for any invalid
    /// scalar) if the clock-skew factor is non-positive or non-finite.
    pub fn validate(&self) -> Result<(), SimError> {
        if let Some(skew) = self.clock_skew {
            if !skew.is_finite() || skew <= 0.0 {
                return Err(SimError::InvalidProbability {
                    name: "clock_skew",
                    value: skew,
                });
            }
        }
        Ok(())
    }

    /// Whether every reply in global slot `slot` is scripted to be
    /// lost.
    #[must_use]
    pub fn reply_lost_at(&self, slot: u64) -> bool {
        self.lost_reply_slots.contains(&slot)
    }

    /// Whether `tag` misses announcement number `announcement`.
    #[must_use]
    pub fn misses_announcement(&self, announcement: u64, tag: TagId) -> bool {
        self.missed_by(announcement)
            .is_some_and(|tags| tags.contains(&tag))
    }

    /// The tags scripted to miss announcement number `announcement`, if
    /// any: one lookup per announcement for executors that then check
    /// each tag against the set.
    #[must_use]
    pub fn missed_by(&self, announcement: u64) -> Option<&BTreeSet<TagId>> {
        self.lost_announcements.get(&announcement)
    }

    /// The slot after which the reader crashes, if scripted.
    #[must_use]
    pub fn crash_slot(&self) -> Option<u64> {
        self.crash_after_slot
    }

    /// The scripted response-truncation length, if any.
    #[must_use]
    pub fn truncation(&self) -> Option<u64> {
        self.truncate_to
    }

    /// The scripted clock-skew factor (1.0 when unscripted).
    #[must_use]
    pub fn clock_skew_factor(&self) -> f64 {
        self.clock_skew.unwrap_or(1.0)
    }

    /// Applies the scripted clock skew to a measured duration.
    #[must_use]
    pub fn skewed(&self, elapsed: crate::time::SimDuration) -> crate::time::SimDuration {
        match self.clock_skew {
            None => elapsed,
            Some(factor) => {
                let micros = elapsed.as_micros() as f64 * factor;
                crate::time::SimDuration::from_micros(micros.round().max(0.0) as u64)
            }
        }
    }
}

/// One scripted fault against a durable byte stream (a write-ahead
/// log on its way to stable storage).
///
/// These model what a power cut or sector corruption does to the last
/// write: the recovery machinery in `tagwatch-store` must *detect*
/// every one of them and truncate to the longest intact prefix — a
/// damaged tail may cost re-execution, never a silent false "intact".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The final `drop_bytes` bytes of the stream never reached disk
    /// (a torn write: the process died mid-`write`).
    TornWrite {
        /// How many trailing bytes are lost.
        drop_bytes: u64,
    },
    /// One bit flips in place (media corruption). `offset_from_end`
    /// addresses the byte (`0` = last byte) and `bit` the bit within
    /// it (`0` = least significant).
    BitFlip {
        /// Byte position measured backwards from the end of the stream.
        offset_from_end: u64,
        /// Bit index within the byte, `0..8`.
        bit: u8,
    },
    /// The stream is cleanly cut short by `drop_bytes` bytes (a
    /// truncated copy or an interrupted transfer).
    TruncateTail {
        /// How many trailing bytes are removed.
        drop_bytes: u64,
    },
}

impl StorageFault {
    /// Applies the fault to `bytes` in place.
    ///
    /// Out-of-range faults degrade gracefully: dropping more bytes
    /// than exist empties the stream, and a bit flip past the start
    /// flips the first byte.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        match *self {
            StorageFault::TornWrite { drop_bytes } | StorageFault::TruncateTail { drop_bytes } => {
                let keep = bytes.len().saturating_sub(drop_bytes as usize);
                bytes.truncate(keep);
            }
            StorageFault::BitFlip {
                offset_from_end,
                bit,
            } => {
                if bytes.is_empty() {
                    return;
                }
                let idx = bytes
                    .len()
                    .saturating_sub(1)
                    .saturating_sub(offset_from_end as usize);
                bytes[idx] ^= 1 << (bit % 8);
            }
        }
    }

    /// Validates the fault's numeric knobs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProbability`] (name `storage_bit`) if
    /// a bit-flip addresses a bit index outside `0..8`.
    pub fn validate(&self) -> Result<(), SimError> {
        if let StorageFault::BitFlip { bit, .. } = *self {
            if bit >= 8 {
                return Err(SimError::InvalidProbability {
                    name: "storage_bit",
                    value: f64::from(bit),
                });
            }
        }
        Ok(())
    }
}

/// A scripted storage-failure schedule for one durable soak run: the
/// process is killed just before executing tick `crash_at_tick`, and
/// the bytes persisted so far optionally suffer a [`StorageFault`].
///
/// An empty (default) plan never crashes and damages nothing; durable
/// runs under it must be byte-identical to their in-memory twins.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageFaultPlan {
    crash_at_tick: Option<u64>,
    damage: Option<StorageFault>,
}

impl StorageFaultPlan {
    /// An empty plan (no crash, no damage).
    #[must_use]
    pub fn new() -> Self {
        StorageFaultPlan::default()
    }

    /// Whether this plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == StorageFaultPlan::default()
    }

    /// Kills the process just before tick `tick` executes.
    #[must_use]
    pub fn crash_at_tick(mut self, tick: u64) -> Self {
        self.crash_at_tick = Some(tick);
        self
    }

    /// Damages the persisted bytes with `fault` when the crash fires.
    #[must_use]
    pub fn with_damage(mut self, fault: StorageFault) -> Self {
        self.damage = Some(fault);
        self
    }

    /// The scripted crash tick, if any.
    #[must_use]
    pub fn crash_tick(&self) -> Option<u64> {
        self.crash_at_tick
    }

    /// The scripted storage damage, if any.
    #[must_use]
    pub fn damage(&self) -> Option<StorageFault> {
        self.damage
    }

    /// Applies the scripted damage (if any) to `bytes` in place.
    pub fn apply_damage(&self, bytes: &mut Vec<u8>) {
        if let Some(fault) = self.damage {
            fault.apply(bytes);
        }
    }

    /// Validates the plan's knobs.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageFault::validate`].
    pub fn validate(&self) -> Result<(), SimError> {
        match self.damage {
            Some(fault) => fault.validate(),
            None => Ok(()),
        }
    }
}

/// A per-round cursor over a [`FaultPlan`]: tracks the current
/// announcement index so executors can query faults positionally.
#[derive(Debug, Clone)]
pub struct FaultInjector<'a> {
    plan: &'a FaultPlan,
    announcement: u64,
}

impl<'a> FaultInjector<'a> {
    /// Starts a cursor at announcement 0 (none broadcast yet).
    #[must_use]
    pub fn new(plan: &'a FaultPlan) -> Self {
        FaultInjector {
            plan,
            announcement: 0,
        }
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> &'a FaultPlan {
        self.plan
    }

    /// Records that the reader is broadcasting the next announcement and
    /// returns its index (0-based).
    pub fn next_announcement(&mut self) -> u64 {
        let idx = self.announcement;
        self.announcement += 1;
        idx
    }

    /// Announcements broadcast so far.
    #[must_use]
    pub fn announcements(&self) -> u64 {
        self.announcement
    }

    /// Whether `tag` hears announcement `announcement` (the index
    /// returned by [`FaultInjector::next_announcement`]).
    #[must_use]
    pub fn hears(&self, announcement: u64, tag: TagId) -> bool {
        !self.plan.misses_announcement(announcement, tag)
    }

    /// Whether the scripted reader crash has fired by the end of global
    /// slot `slot`.
    #[must_use]
    pub fn crashed_after(&self, slot: u64) -> bool {
        self.plan.crash_slot().is_some_and(|s| slot >= s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        plan.validate().unwrap();
        assert!(!plan.reply_lost_at(0));
        assert!(!plan.misses_announcement(0, TagId::new(1)));
        assert_eq!(plan.crash_slot(), None);
        assert_eq!(plan.truncation(), None);
        assert_eq!(plan.clock_skew_factor(), 1.0);
    }

    #[test]
    fn builders_record_faults() {
        let plan = FaultPlan::new()
            .lose_replies_at(3)
            .lose_replies_at(7)
            .lose_announcement(1, [TagId::new(5)])
            .lose_announcement(1, [TagId::new(6)])
            .crash_after_slot(40)
            .truncate_response(16)
            .skew_clock(1.25);
        assert!(!plan.is_empty());
        assert!(plan.reply_lost_at(3) && plan.reply_lost_at(7));
        assert!(!plan.reply_lost_at(4));
        assert!(plan.misses_announcement(1, TagId::new(5)));
        assert!(plan.misses_announcement(1, TagId::new(6)));
        assert!(!plan.misses_announcement(0, TagId::new(5)));
        assert_eq!(plan.crash_slot(), Some(40));
        assert_eq!(plan.truncation(), Some(16));
        assert_eq!(plan.clock_skew_factor(), 1.25);
    }

    #[test]
    fn validate_rejects_bad_skew() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let plan = FaultPlan::new().skew_clock(bad);
            assert!(plan.validate().is_err(), "accepted skew {bad}");
        }
        FaultPlan::new().skew_clock(0.5).validate().unwrap();
    }

    #[test]
    fn skew_scales_durations() {
        let plan = FaultPlan::new().skew_clock(2.0);
        assert_eq!(
            plan.skewed(SimDuration::from_micros(100)),
            SimDuration::from_micros(200)
        );
        let identity = FaultPlan::new();
        assert_eq!(
            identity.skewed(SimDuration::from_micros(100)),
            SimDuration::from_micros(100)
        );
    }

    #[test]
    fn injector_tracks_announcements() {
        let plan = FaultPlan::new().lose_announcement(1, [TagId::new(9)]);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.announcements(), 0);
        let a0 = inj.next_announcement();
        let a1 = inj.next_announcement();
        assert_eq!((a0, a1), (0, 1));
        assert_eq!(inj.announcements(), 2);
        assert!(inj.hears(a0, TagId::new(9)));
        assert!(!inj.hears(a1, TagId::new(9)));
        assert!(inj.hears(a1, TagId::new(8)));
    }

    #[test]
    fn storage_torn_write_and_truncate_drop_tail_bytes() {
        for fault in [
            StorageFault::TornWrite { drop_bytes: 3 },
            StorageFault::TruncateTail { drop_bytes: 3 },
        ] {
            let mut bytes = vec![1u8, 2, 3, 4, 5];
            fault.apply(&mut bytes);
            assert_eq!(bytes, [1, 2]);
        }
        // Over-dropping empties the stream instead of panicking.
        let mut bytes = vec![1u8, 2];
        StorageFault::TornWrite { drop_bytes: 99 }.apply(&mut bytes);
        assert!(bytes.is_empty());
    }

    #[test]
    fn storage_bit_flip_targets_from_the_end() {
        let mut bytes = vec![0u8, 0, 0, 0b0000_0100];
        StorageFault::BitFlip {
            offset_from_end: 0,
            bit: 2,
        }
        .apply(&mut bytes);
        assert_eq!(bytes, [0, 0, 0, 0]);
        StorageFault::BitFlip {
            offset_from_end: 3,
            bit: 7,
        }
        .apply(&mut bytes);
        assert_eq!(bytes, [0b1000_0000, 0, 0, 0]);
        // Past-the-start flips clamp to the first byte; empty streams
        // are left alone.
        StorageFault::BitFlip {
            offset_from_end: 99,
            bit: 0,
        }
        .apply(&mut bytes);
        assert_eq!(bytes[0], 0b1000_0001);
        let mut empty: Vec<u8> = Vec::new();
        StorageFault::BitFlip {
            offset_from_end: 0,
            bit: 0,
        }
        .apply(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn storage_plan_builders_and_validation() {
        let plan = StorageFaultPlan::new()
            .crash_at_tick(42)
            .with_damage(StorageFault::TornWrite { drop_bytes: 5 });
        assert!(!plan.is_empty());
        assert_eq!(plan.crash_tick(), Some(42));
        assert_eq!(
            plan.damage(),
            Some(StorageFault::TornWrite { drop_bytes: 5 })
        );
        plan.validate().unwrap();
        let mut bytes = vec![0u8; 8];
        plan.apply_damage(&mut bytes);
        assert_eq!(bytes.len(), 3);

        assert!(StorageFaultPlan::new().is_empty());
        let bad = StorageFaultPlan::new().with_damage(StorageFault::BitFlip {
            offset_from_end: 0,
            bit: 8,
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn injector_crash_predicate() {
        let plan = FaultPlan::new().crash_after_slot(5);
        let inj = FaultInjector::new(&plan);
        assert!(!inj.crashed_after(4));
        assert!(inj.crashed_after(5));
        assert!(inj.crashed_after(6));
        let no_crash = FaultPlan::new();
        assert!(!FaultInjector::new(&no_crash).crashed_after(u64::MAX - 1));
    }
}
