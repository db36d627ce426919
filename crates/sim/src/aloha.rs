//! Framed-slotted-ALOHA round descriptors and executions.
//!
//! A round is announced as a [`FramePlan`] `(f, r)`; executing it yields
//! a [`FrameExecution`] holding the per-slot [`SlotOutcome`]s, summary
//! [`FrameStats`], and the simulated air time. The module also provides
//! the *server-side* bulk predictor [`predicted_occupancy`], which
//! computes, from IDs alone, exactly what an ideal-channel execution
//! would observe — the heart of the paper's verification step.

use std::fmt;

use crate::hash::slot_for;
use crate::ident::{FrameSize, Nonce, TagId};
use crate::radio::SlotOutcome;
use crate::time::SimDuration;

/// An announced frame: size `f` plus nonce `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FramePlan {
    f: FrameSize,
    r: Nonce,
}

impl FramePlan {
    /// Creates a frame plan.
    #[must_use]
    pub const fn new(f: FrameSize, r: Nonce) -> Self {
        FramePlan { f, r }
    }

    /// The frame size.
    #[must_use]
    pub const fn frame_size(self) -> FrameSize {
        self.f
    }

    /// The nonce.
    #[must_use]
    pub const fn nonce(self) -> Nonce {
        self.r
    }
}

impl fmt::Display for FramePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame({}, {})", self.f, self.r)
    }
}

/// Slot-outcome tallies for an executed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FrameStats {
    /// Slots with no reply.
    pub empty: u64,
    /// Slots with exactly one decoded reply.
    pub singles: u64,
    /// Slots with an undecodable collision.
    pub collisions: u64,
}

impl FrameStats {
    /// Tallies the outcomes of a frame.
    #[must_use]
    pub fn from_outcomes(outcomes: &[SlotOutcome]) -> Self {
        let mut stats = FrameStats::default();
        for o in outcomes {
            match o {
                SlotOutcome::Empty => stats.empty += 1,
                SlotOutcome::Single(_) => stats.singles += 1,
                SlotOutcome::Collision { .. } => stats.collisions += 1,
            }
        }
        stats
    }

    /// Total slots tallied.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.empty + self.singles + self.collisions
    }

    /// Fraction of slots that carried any energy, in `[0, 1]`.
    /// Returns 0 for an empty tally.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.singles + self.collisions) as f64 / total as f64
        }
    }
}

/// The result of executing one frame on the air.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameExecution {
    plan: FramePlan,
    outcomes: Vec<SlotOutcome>,
    duration: SimDuration,
}

impl FrameExecution {
    /// Packages an execution. `outcomes.len()` must equal the planned
    /// frame size; protocol code builds these through
    /// [`crate::reader::Reader`], which guarantees it.
    ///
    /// # Panics
    ///
    /// Panics if the outcome count disagrees with the plan.
    #[must_use]
    pub fn new(plan: FramePlan, outcomes: Vec<SlotOutcome>, duration: SimDuration) -> Self {
        assert_eq!(
            outcomes.len() as u64,
            plan.frame_size().get(),
            "outcome count must match frame size"
        );
        FrameExecution {
            plan,
            outcomes,
            duration,
        }
    }

    /// The plan this execution ran.
    #[must_use]
    pub fn plan(&self) -> FramePlan {
        self.plan
    }

    /// Per-slot outcomes, index = slot number.
    #[must_use]
    pub fn outcomes(&self) -> &[SlotOutcome] {
        &self.outcomes
    }

    /// Summary tallies.
    #[must_use]
    pub fn stats(&self) -> FrameStats {
        FrameStats::from_outcomes(&self.outcomes)
    }

    /// Simulated air time the frame consumed.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// The occupancy bitstring: `true` where the reader saw energy.
    /// This is the `bs` of the paper (Alg. 3).
    #[must_use]
    pub fn occupancy_bits(&self) -> Vec<bool> {
        self.outcomes.iter().map(|o| o.is_occupied()).collect()
    }
}

/// Server-side prediction of the occupancy bitstring an ideal-channel
/// execution of `(f, r)` over `ids` would produce.
#[must_use]
// lint:allow(u1-dead-pub): oracle: the `%` reference tests/property_based.rs::occupancy_writer_equals_the_bool_prediction holds the FastMod writer to
pub fn predicted_occupancy(ids: &[TagId], r: Nonce, f: FrameSize) -> Vec<bool> {
    let mut bits = vec![false; f.as_usize()];
    for &id in ids {
        bits[slot_for(id, r, f) as usize] = true;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::TagReply;

    fn plan(f: u64, r: u64) -> FramePlan {
        FramePlan::new(FrameSize::new(f).unwrap(), Nonce::new(r))
    }

    #[test]
    fn frame_plan_accessors() {
        let p = plan(16, 3);
        assert_eq!(p.frame_size().get(), 16);
        assert_eq!(p.nonce().as_u64(), 3);
        assert!(p.to_string().contains("16 slots"));
    }

    #[test]
    fn stats_tally_outcomes() {
        let outcomes = [
            SlotOutcome::Empty,
            SlotOutcome::Single(TagReply::Presence { bits: 0 }),
            SlotOutcome::Collision { transmitters: 2 },
            SlotOutcome::Empty,
        ];
        let stats = FrameStats::from_outcomes(&outcomes);
        assert_eq!(stats.empty, 2);
        assert_eq!(stats.singles, 1);
        assert_eq!(stats.collisions, 1);
        assert_eq!(stats.total(), 4);
        assert!((stats.occupancy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_occupancy() {
        assert_eq!(FrameStats::default().occupancy(), 0.0);
    }

    #[test]
    fn execution_exposes_bitstring() {
        let outcomes = vec![
            SlotOutcome::Single(TagReply::Presence { bits: 1 }),
            SlotOutcome::Empty,
            SlotOutcome::Collision { transmitters: 3 },
        ];
        let exec = FrameExecution::new(plan(3, 0), outcomes, SimDuration::from_micros(3));
        assert_eq!(exec.occupancy_bits(), [true, false, true]);
        assert_eq!(exec.duration().as_micros(), 3);
        assert_eq!(exec.plan(), plan(3, 0));
    }

    #[test]
    #[should_panic(expected = "outcome count must match frame size")]
    fn execution_rejects_mismatched_outcomes() {
        let _ = FrameExecution::new(plan(4, 0), vec![SlotOutcome::Empty], SimDuration::ZERO);
    }

    #[test]
    fn predicted_occupancy_marks_each_tags_slot() {
        let ids: Vec<TagId> = (1..=20u64).map(TagId::from).collect();
        let f = FrameSize::new(64).unwrap();
        let r = Nonce::new(7);
        let bits = predicted_occupancy(&ids, r, f);
        assert_eq!(bits.len(), 64);
        for &id in &ids {
            assert!(bits[slot_for(id, r, f) as usize], "tag {id} slot unmarked");
        }
        // Occupied count never exceeds tag count.
        assert!(bits.iter().filter(|&&b| b).count() <= 20);
    }

    #[test]
    fn predicted_occupancy_of_no_tags_is_all_false() {
        let bits = predicted_occupancy(&[], Nonce::new(0), FrameSize::new(8).unwrap());
        assert!(bits.iter().all(|&b| !b));
    }
}
