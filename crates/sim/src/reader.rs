//! The RFID reader (interrogator) device model.
//!
//! A [`Reader`] broadcasts frame announcements and slot numbers, listens
//! through a [`Channel`], and accumulates an execution record per frame.
//! It is the *reference* implementation of the air protocol. Presence
//! frames hash each tag's slot statelessly, as the server predicts it;
//! collection frames drive real [`Tag`](crate::tag::Tag) state machines,
//! which decoded tags leave silenced. The Monte-Carlo fast paths in
//! downstream crates use the bulk predictors of [`crate::aloha`] and are
//! tested to agree with it.
//!
//! A frame resolves its slots on the channel one after another, in slot
//! order, and then bills its air time from the realized outcomes with
//! the [`TimingModel`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aloha::{FrameExecution, FramePlan};
use crate::ident::TagId;
use crate::population::TagPopulation;
use crate::radio::{Channel, SlotOutcome};
use crate::tag::{SlotMode, TagReply, TagState};
use crate::time::SimTime;
use crate::timing::TimingModel;

/// Reader configuration.
///
/// The default is the paper's cost model: uniform slot timing, RNG
/// seed 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReaderConfig {
    /// Air-interface timing used to advance the simulated clock.
    pub timing: TimingModel,
    /// Seed for the reader's internal RNG (used only by non-ideal
    /// channels for failure injection).
    pub seed: u64,
}

/// The result of a collection (ID-gathering) frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionRound {
    /// The raw frame execution.
    pub execution: FrameExecution,
    /// IDs decoded from singleton slots, in slot order. The reader has
    /// silenced these tags.
    pub collected: Vec<TagId>,
    /// Number of collided slots (those tags must retransmit in a later
    /// round).
    pub collided_slots: u64,
}

/// A simulated RFID reader.
///
/// The reader owns a monotone simulated clock that accumulates across
/// rounds — matching how the server reasons about a reader's total
/// scanning time in UTRP — plus a running slot counter, the paper's
/// primary cost metric.
#[derive(Debug)]
pub struct Reader {
    config: ReaderConfig,
    rng: StdRng,
    clock: SimTime,
    slots_used: u64,
}

impl Reader {
    /// Creates a reader.
    #[must_use]
    pub fn new(config: ReaderConfig) -> Self {
        Reader {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            clock: SimTime::ZERO,
            slots_used: 0,
        }
    }

    /// The reader's configuration.
    #[must_use]
    pub fn config(&self) -> &ReaderConfig {
        &self.config
    }

    /// Current simulated clock.
    #[must_use]
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Total slots broadcast across all frames so far.
    #[must_use]
    pub fn slots_used(&self) -> u64 {
        self.slots_used
    }

    /// Resets clock, slot counter and RNG to their initial state (a
    /// fresh monitoring session).
    pub fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.config.seed);
        self.clock = SimTime::ZERO;
        self.slots_used = 0;
    }

    /// Runs one full *presence* frame (TRP, Algs. 1–3): every ready tag
    /// hashes `(id ⊕ r) mod f` and answers its slot with a short burst.
    ///
    /// Tags are not mutated: plain-mode slot choice is stateless, and
    /// presence replies do not silence a tag.
    pub fn run_presence_frame(
        &mut self,
        plan: &FramePlan,
        tags: &TagPopulation,
        channel: &Channel,
    ) -> FrameExecution {
        let f = plan.frame_size();
        // One pass over tags: bucket replies by slot.
        let mut replies: Vec<Vec<TagReply>> = vec![Vec::new(); f.as_usize()];
        for tag in tags.iter() {
            if tag.state() == TagState::Silenced || tag.is_detuned() {
                continue;
            }
            // Stateless plain-mode slot choice; equals Tag::on_frame in
            // SlotMode::Plain (tested below).
            let sn = crate::hash::slot_for(tag.id(), plan.nonce(), f);
            replies[sn as usize].push(TagReply::Presence {
                bits: crate::hash::short_reply_bits(tag.id(), crate::ident::Nonce::new(sn)),
            });
        }
        self.drive_frame(plan, &replies, channel, false)
    }

    /// Runs one full *collection* frame: ready tags answer with their
    /// IDs; tags decoded alone in their slot are silenced (paper §3).
    ///
    /// The collect-all baseline calls this repeatedly with shrinking
    /// frames until every tag is silenced.
    pub fn run_collection_frame(
        &mut self,
        plan: &FramePlan,
        tags: &mut TagPopulation,
        channel: &Channel,
    ) -> CollectionRound {
        let f = plan.frame_size();
        let mut replies: Vec<Vec<TagReply>> = vec![Vec::new(); f.as_usize()];
        for tag in tags.iter_mut() {
            if tag.state() == TagState::Silenced || tag.is_detuned() {
                continue;
            }
            let sn = tag.on_frame(f, plan.nonce(), SlotMode::Plain);
            if let Some(reply) = tag.on_slot(sn, true) {
                replies[sn as usize].push(reply);
            }
        }
        let execution = self.drive_frame(plan, &replies, channel, true);

        let mut collected = Vec::new();
        let mut collided_slots = 0;
        for outcome in execution.outcomes() {
            match outcome {
                SlotOutcome::Single(TagReply::Id(id)) => collected.push(*id),
                SlotOutcome::Collision { .. } => collided_slots += 1,
                _ => {}
            }
        }
        for &id in &collected {
            if let Some(tag) = tags.get_mut(id) {
                tag.silence();
            }
        }
        CollectionRound {
            execution,
            collected,
            collided_slots,
        }
    }

    /// Resolves each slot on the channel in slot order, then bills the
    /// frame's air time from the realized outcomes.
    fn drive_frame(
        &mut self,
        plan: &FramePlan,
        replies: &[Vec<TagReply>],
        channel: &Channel,
        collection: bool,
    ) -> FrameExecution {
        let mut kept = Vec::new();
        let outcomes: Vec<SlotOutcome> = replies
            .iter()
            .map(|slot| channel.decode_slot(slot, &mut kept, &mut self.rng))
            .collect();
        let timing = &self.config.timing;
        let duration = if collection {
            timing.collection_frame_duration(&outcomes)
        } else {
            timing.frame_duration(&outcomes)
        };
        self.clock += duration;
        self.slots_used += plan.frame_size().get();
        FrameExecution::new(*plan, outcomes, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aloha::predicted_occupancy;
    use crate::ident::{FrameSize, Nonce};
    use crate::tag::Tag;

    fn plan(f: u64, r: u64) -> FramePlan {
        FramePlan::new(FrameSize::new(f).unwrap(), Nonce::new(r))
    }

    #[test]
    fn presence_frame_matches_server_prediction() {
        // The protocol's foundation: on an ideal channel the reader's
        // observed occupancy equals the server's prediction from IDs.
        let tags = TagPopulation::with_sequential_ids(200);
        let mut reader = Reader::new(ReaderConfig::default());
        let p = plan(256, 99);
        let exec = reader.run_presence_frame(&p, &tags, &Channel::ideal());
        let predicted = predicted_occupancy(&tags.ids(), p.nonce(), p.frame_size());
        assert_eq!(exec.occupancy_bits(), predicted);
    }

    #[test]
    fn presence_frame_agrees_with_tag_state_machine() {
        // The reader's stateless fast path must match what the full Tag
        // state machine would answer.
        let tags = TagPopulation::with_sequential_ids(50);
        let mut reader = Reader::new(ReaderConfig::default());
        let p = plan(64, 7);
        let exec = reader.run_presence_frame(&p, &tags, &Channel::ideal());

        for tag_ref in tags.iter() {
            let mut tag = Tag::new(tag_ref.id());
            let sn = tag.on_frame(p.frame_size(), p.nonce(), SlotMode::Plain);
            assert!(tag.on_slot(sn, false).is_some());
            assert!(
                exec.occupancy_bits()[sn as usize],
                "tag {} slot {sn} should be occupied",
                tag_ref.id()
            );
        }
    }

    #[test]
    fn detuned_and_silenced_tags_do_not_reply() {
        let mut tags = TagPopulation::with_sequential_ids(2);
        let ids = tags.ids();
        tags.get_mut(ids[0]).unwrap().set_detuned(true);
        tags.get_mut(ids[1]).unwrap().silence();
        let mut reader = Reader::new(ReaderConfig::default());
        let exec = reader.run_presence_frame(&plan(16, 1), &tags, &Channel::ideal());
        assert!(exec.occupancy_bits().iter().all(|&b| !b));
    }

    #[test]
    fn collection_frame_silences_decoded_tags() {
        let mut tags = TagPopulation::with_sequential_ids(10);
        let mut reader = Reader::new(ReaderConfig::default());
        // Huge frame: collisions vanish, all 10 decode in one round.
        let round = reader.run_collection_frame(&plan(4096, 5), &mut tags, &Channel::ideal());
        assert_eq!(round.collected.len(), 10);
        assert_eq!(round.collided_slots, 0);
        assert!(tags.iter().all(|t| t.state() == TagState::Silenced));
    }

    #[test]
    fn collection_frame_reports_collisions() {
        let mut tags = TagPopulation::with_sequential_ids(300);
        let mut reader = Reader::new(ReaderConfig::default());
        // Tiny frame: mostly collisions.
        let round = reader.run_collection_frame(&plan(8, 5), &mut tags, &Channel::ideal());
        assert!(round.collided_slots > 0);
        // Collided tags stay ready for the next round.
        let ready = tags.iter().filter(|t| t.state() == TagState::Ready).count();
        assert_eq!(ready, 300 - round.collected.len());
    }

    #[test]
    fn slots_and_clock_accumulate_across_frames() {
        let tags = TagPopulation::with_sequential_ids(5);
        let mut reader = Reader::new(ReaderConfig::default());
        let ch = Channel::ideal();
        reader.run_presence_frame(&plan(10, 1), &tags, &ch);
        reader.run_presence_frame(&plan(20, 2), &tags, &ch);
        assert_eq!(reader.slots_used(), 30);
        // Uniform timing: clock microseconds == slots.
        assert_eq!(reader.clock().as_micros(), 30);
    }

    #[test]
    fn reset_restores_initial_state() {
        let tags = TagPopulation::with_sequential_ids(5);
        let mut reader = Reader::new(ReaderConfig::default());
        reader.run_presence_frame(&plan(8, 1), &tags, &Channel::ideal());
        assert!(reader.slots_used() > 0);
        reader.reset();
        assert_eq!(reader.slots_used(), 0);
        assert_eq!(reader.clock(), SimTime::ZERO);
    }

    #[test]
    fn gen2_timing_bills_longer_for_collection() {
        let mut tags_a = TagPopulation::with_sequential_ids(64);
        let tags_b = tags_a.clone();
        let cfg = ReaderConfig {
            timing: TimingModel::gen2(),
            ..ReaderConfig::default()
        };
        let p = plan(128, 3);
        let ch = Channel::ideal();

        let mut presence_reader = Reader::new(cfg);
        let presence = presence_reader.run_presence_frame(&p, &tags_b, &ch);

        let mut collection_reader = Reader::new(cfg);
        let collection = collection_reader.run_collection_frame(&p, &mut tags_a, &ch);

        // Same slot pattern, but ID bodies dwarf presence bursts — the
        // paper's argument that collect-all is worse than slot counts
        // alone suggest.
        assert!(collection.execution.duration() > presence.duration());
    }

    #[test]
    fn lossy_channel_can_blank_replies() {
        let tags = TagPopulation::with_sequential_ids(100);
        let mut reader = Reader::new(ReaderConfig::default());
        let lossy = Channel::with_config(crate::radio::ChannelConfig {
            reply_loss_prob: 1.0,
            ..Default::default()
        })
        .unwrap();
        let exec = reader.run_presence_frame(&plan(128, 1), &tags, &lossy);
        assert!(exec.occupancy_bits().iter().all(|&b| !b));
    }

    #[test]
    fn reader_runs_are_reproducible() {
        let tags = TagPopulation::with_sequential_ids(50);
        let noisy_cfg = crate::radio::ChannelConfig {
            reply_loss_prob: 0.2,
            ..Default::default()
        };
        let ch = Channel::with_config(noisy_cfg).unwrap();
        let run = |seed: u64| {
            let mut reader = Reader::new(ReaderConfig {
                seed,
                ..ReaderConfig::default()
            });
            reader
                .run_presence_frame(&plan(64, 9), &tags, &ch)
                .occupancy_bits()
        };
        assert_eq!(run(7), run(7));
    }
}
