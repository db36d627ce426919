//! The shared radio channel and per-slot outcome resolution.
//!
//! Framed slotted ALOHA gives the reader exactly three observations per
//! slot (paper §2–3): nobody answered, exactly one tag answered, or a
//! *collision* — several tags answered and the reader "obtains no
//! information". [`Channel`] turns the set of transmissions in a slot
//! into a [`SlotOutcome`], optionally injecting physical-layer failures:
//!
//! * **reply loss** — a transmitted reply does not reach the reader
//!   (fading, blocking); makes a present tag look missing, the
//!   false-alarm source the tolerance `m` absorbs;
//! * **phantom replies** — interference reads as energy in an empty
//!   slot; makes a missing tag look present (adversarially *pessimal*
//!   for detection, so worth injecting in tests);
//! * **capture effect** — one of several colliding replies is strong
//!   enough to decode anyway, as real readers sometimes manage.

use rand::Rng;

use crate::error::SimError;
use crate::tag::TagReply;

/// What the reader observes in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotOutcome {
    /// No energy detected in the slot.
    Empty,
    /// Exactly one tag's transmission decoded.
    Single(TagReply),
    /// Multiple simultaneous transmissions; nothing decodable.
    Collision {
        /// How many tags transmitted (diagnostic only; a real reader
        /// cannot see this number).
        transmitters: u32,
    },
}

impl SlotOutcome {
    /// Whether the reader detected any energy in the slot (what a
    /// presence protocol's bitstring records).
    #[must_use]
    pub fn is_occupied(self) -> bool {
        !matches!(self, SlotOutcome::Empty)
    }
}

/// What the reader hears in one slot, by position rather than by reply:
/// the result of [`Channel::resolve_slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reception {
    /// No energy detected in the slot.
    Empty,
    /// Interference energy in a slot that no reply reached.
    Phantom,
    /// One reply decodes: its index among the replies that reached the
    /// reader.
    Decoded(usize),
    /// Several replies reached the reader and none decodes.
    Collision(u32),
}

impl Reception {
    /// Whether the reader detected any energy in the slot (what a
    /// presence protocol's bitstring records).
    #[must_use]
    pub fn is_occupied(self) -> bool {
        self != Reception::Empty
    }
}

/// Physical-layer failure-injection knobs. All probabilities default to
/// zero (ideal channel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Probability that an individual tag's reply is lost in flight.
    pub reply_loss_prob: f64,
    /// Probability that an otherwise-empty slot reads as occupied.
    pub phantom_reply_prob: f64,
    /// Probability that a collision resolves to one decodable reply
    /// (capture effect).
    pub capture_prob: f64,
    /// Probability that an individual tag misses one downlink `(f', r)`
    /// announcement (reader-to-tag direction). A tag that misses an
    /// announcement does not advance its counter for it and keeps the
    /// reply slot computed from the last announcement it heard — the
    /// probabilistic source of counter desynchronization. Consumed by
    /// the fault-aware round executors in `tagwatch-core`; the
    /// slot-level [`Channel::resolve_slot`] only sees uplink traffic.
    pub downlink_loss_prob: f64,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            reply_loss_prob: 0.0,
            phantom_reply_prob: 0.0,
            capture_prob: 0.0,
            downlink_loss_prob: 0.0,
        }
    }
}

impl ChannelConfig {
    /// Validates that every knob is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProbability`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, value) in [
            ("reply_loss_prob", self.reply_loss_prob),
            ("phantom_reply_prob", self.phantom_reply_prob),
            ("capture_prob", self.capture_prob),
            ("downlink_loss_prob", self.downlink_loss_prob),
        ] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(SimError::InvalidProbability { name, value });
            }
        }
        Ok(())
    }
}

/// The shared radio medium between one reader and a tag population.
///
/// `Channel` is stateless; randomness for failure injection is drawn
/// from the RNG passed to [`Channel::resolve_slot`], keeping trials
/// reproducible. An [ideal](Channel::ideal) channel never draws from
/// the RNG at all.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Channel {
    config: ChannelConfig,
}

impl Channel {
    /// A lossless, noiseless, capture-free channel — the model under
    /// which the paper's analysis holds exactly.
    #[must_use]
    pub fn ideal() -> Self {
        Channel {
            config: ChannelConfig::default(),
        }
    }

    /// A channel with the given failure-injection configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProbability`] if any knob is outside
    /// `[0, 1]`.
    pub fn with_config(config: ChannelConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Channel { config })
    }

    /// The channel's configuration.
    #[must_use]
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Whether this channel can alter outcomes (any knob non-zero).
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.config == ChannelConfig::default()
    }

    /// Resolves one slot that `transmitters` replies share, drawing from
    /// `rng` in a fixed order: one loss draw per reply (reply loss), then
    /// one phantom draw if no reply got through, or, if several did, one
    /// capture draw and, on capture, one draw for the decoded reply. An
    /// ideal channel draws nothing.
    ///
    /// Presence rounds, which only need to know whether the slot is
    /// occupied, resolve each slot from its count alone;
    /// [`Channel::decode_slot`] resolves the replies themselves.
    pub fn resolve_slot<R: Rng + ?Sized>(&self, transmitters: usize, rng: &mut R) -> Reception {
        self.resolve(transmitters, rng, |_| {})
    }

    /// [`Channel::resolve_slot`] over the replies themselves: the outcome
    /// carries the reply that decodes. `kept` is scratch for the replies
    /// that survive reply loss, reused from slot to slot so that a frame
    /// allocates it once.
    pub fn decode_slot<R: Rng + ?Sized>(
        &self,
        replies: &[TagReply],
        kept: &mut Vec<TagReply>,
        rng: &mut R,
    ) -> SlotOutcome {
        kept.clear();
        let reception = self.resolve(replies.len(), rng, |i| kept.push(replies[i]));
        let surviving = if self.config.reply_loss_prob > 0.0 {
            kept.as_slice()
        } else {
            replies
        };
        match reception {
            Reception::Empty => SlotOutcome::Empty,
            // Interference energy: reads as an undecodable burst.
            Reception::Phantom => SlotOutcome::Single(TagReply::Presence { bits: 0 }),
            Reception::Decoded(i) => SlotOutcome::Single(surviving[i]),
            Reception::Collision(transmitters) => SlotOutcome::Collision { transmitters },
        }
    }

    /// The one body of [`Channel::resolve_slot`] and
    /// [`Channel::decode_slot`]: `kept` is told the index of each reply
    /// that survives reply loss, in order (only when loss is on; without
    /// it every reply survives).
    fn resolve<R: Rng + ?Sized>(
        &self,
        transmitters: usize,
        rng: &mut R,
        mut kept: impl FnMut(usize),
    ) -> Reception {
        let loss = self.config.reply_loss_prob;
        let surviving = if loss > 0.0 {
            let mut surviving = 0;
            for i in 0..transmitters {
                if !rng.gen_bool(loss) {
                    kept(i);
                    surviving += 1;
                }
            }
            surviving
        } else {
            transmitters
        };
        match surviving {
            0 => {
                if self.config.phantom_reply_prob > 0.0
                    && rng.gen_bool(self.config.phantom_reply_prob)
                {
                    Reception::Phantom
                } else {
                    Reception::Empty
                }
            }
            1 => Reception::Decoded(0),
            k => {
                if self.config.capture_prob > 0.0 && rng.gen_bool(self.config.capture_prob) {
                    // The strongest reply decodes; pick uniformly since
                    // the simulation has no geometry.
                    Reception::Decoded(rng.gen_range(0..k))
                } else {
                    Reception::Collision(k as u32)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::TagId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn presence(bits: u16) -> TagReply {
        TagReply::Presence { bits }
    }

    fn decode(ch: &Channel, replies: &[TagReply], r: &mut StdRng) -> SlotOutcome {
        ch.decode_slot(replies, &mut Vec::new(), r)
    }

    #[test]
    fn ideal_channel_classifies_plainly() {
        let ch = Channel::ideal();
        let mut r = rng();
        assert_eq!(decode(&ch, &[], &mut r), SlotOutcome::Empty);
        assert_eq!(
            decode(&ch, &[presence(5)], &mut r),
            SlotOutcome::Single(presence(5))
        );
        assert_eq!(
            decode(&ch, &[presence(1), presence(2)], &mut r),
            SlotOutcome::Collision { transmitters: 2 }
        );
        assert_eq!(ch.resolve_slot(0, &mut r), Reception::Empty);
        assert_eq!(ch.resolve_slot(1, &mut r), Reception::Decoded(0));
        assert_eq!(ch.resolve_slot(3, &mut r), Reception::Collision(3));
    }

    #[test]
    fn ideal_channel_is_ideal() {
        assert!(Channel::ideal().is_ideal());
        let lossy = Channel::with_config(ChannelConfig {
            reply_loss_prob: 0.1,
            ..ChannelConfig::default()
        })
        .unwrap();
        assert!(!lossy.is_ideal());
    }

    #[test]
    fn config_validation_rejects_bad_probabilities() {
        for bad in [-0.1, 1.1, f64::NAN] {
            let cfg = ChannelConfig {
                reply_loss_prob: bad,
                ..ChannelConfig::default()
            };
            assert!(Channel::with_config(cfg).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn total_loss_empties_every_slot() {
        let ch = Channel::with_config(ChannelConfig {
            reply_loss_prob: 1.0,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut r = rng();
        let out = decode(&ch, &[presence(1), presence(2), presence(3)], &mut r);
        assert_eq!(out, SlotOutcome::Empty);
        assert_eq!(ch.resolve_slot(3, &mut r), Reception::Empty);
    }

    #[test]
    fn loss_rate_is_statistically_respected() {
        let ch = Channel::with_config(ChannelConfig {
            reply_loss_prob: 0.3,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut r = rng();
        let trials = 20_000;
        let lost = (0..trials)
            .filter(|_| ch.resolve_slot(1, &mut r) == Reception::Empty)
            .count();
        let rate = lost as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn phantom_replies_fill_empty_slots() {
        let ch = Channel::with_config(ChannelConfig {
            phantom_reply_prob: 1.0,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut r = rng();
        assert!(ch.resolve_slot(0, &mut r).is_occupied());
        assert!(decode(&ch, &[], &mut r).is_occupied());
    }

    #[test]
    fn capture_resolves_collisions_to_a_participant() {
        let ch = Channel::with_config(ChannelConfig {
            capture_prob: 1.0,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut r = rng();
        let contenders = [TagReply::Id(TagId::new(1)), TagReply::Id(TagId::new(2))];
        match decode(&ch, &contenders, &mut r) {
            SlotOutcome::Single(reply) => assert!(contenders.contains(&reply)),
            other => panic!("capture failed: {other:?}"),
        }
    }

    #[test]
    fn occupancy_predicate() {
        assert!(!SlotOutcome::Empty.is_occupied());
        assert!(SlotOutcome::Single(presence(0)).is_occupied());
        assert!(SlotOutcome::Collision { transmitters: 3 }.is_occupied());
    }

    #[test]
    fn counts_and_replies_resolve_with_the_same_draws() {
        // A slot resolved from its count makes the same draws, and hears
        // the same thing, as the same slot resolved from its replies.
        let ch = Channel::with_config(ChannelConfig {
            reply_loss_prob: 0.3,
            phantom_reply_prob: 0.2,
            capture_prob: 0.5,
            ..ChannelConfig::default()
        })
        .unwrap();
        let (mut by_count, mut by_reply) = (rng(), rng());
        let mut kept = Vec::new();
        for k in (0..6).cycle().take(600) {
            let replies: Vec<TagReply> = (0..k).map(|i| TagReply::Id(TagId::new(i))).collect();
            let heard = ch.resolve_slot(k as usize, &mut by_count);
            let decoded = ch.decode_slot(&replies, &mut kept, &mut by_reply);
            assert_eq!(heard.is_occupied(), decoded.is_occupied());
            if let Reception::Collision(n) = heard {
                assert_eq!(decoded, SlotOutcome::Collision { transmitters: n });
            }
            assert_eq!(by_count.gen::<u32>(), by_reply.gen::<u32>());
        }
    }

    #[test]
    fn ideal_channel_does_not_consume_rng() {
        // Reproducibility contract: with an ideal channel the caller's
        // RNG stream is untouched by slot resolution.
        let ch = Channel::ideal();
        let mut r1 = rng();
        let mut r2 = rng();
        let _ = ch.resolve_slot(2, &mut r1);
        let _ = decode(&ch, &[presence(1)], &mut r1);
        let a: u64 = r1.gen();
        let b: u64 = r2.gen();
        assert_eq!(a, b);
    }
}
