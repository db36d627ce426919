//! Missing-tag **identification** — from *whether* to *which*.
//!
//! The paper detects that more than `m` tags are gone; the natural
//! operational follow-up (and the research line this paper started) is
//! pinning down *which* tags are missing, still without collecting IDs
//! over the air. This module implements an iterative bitstring
//! identifier built entirely from TRP rounds:
//!
//! * a slot the server expected **occupied** that comes back **empty**
//!   proves that *every* registry tag hashing there is absent (any one
//!   of them would have produced energy);
//! * a slot that comes back **occupied** whose registry pre-image
//!   contains exactly **one** tag not already known missing proves that
//!   tag present;
//! * everything else stays unresolved and is re-randomized by the next
//!   round's fresh nonce.
//!
//! Each round resolves a large fraction of tags (every singleton slot
//! resolves its tag; empty slots resolve whole pre-images), so the
//! expected number of rounds is `O(log n)` in practice. The driver is
//! oracle-based — pass a closure that scans the field, whether through
//! the device simulation or the fast path.
//!
//! # Cost
//!
//! [`identify_missing`] folds the registry to `u64` once and keeps one
//! status byte per tag plus a per-slot tally (unresolved tags hashing
//! there, saturated at two, and whether a proven-present tag does),
//! all reused across rounds. A round of frame `f` over `n` tags costs
//! one hash and [`FastMod`] reduction per tag not yet proven missing,
//! a pass over the unresolved tags, and an `f`-slot reset of the
//! tally — `O(n + f)`; the kernel allocates nothing per round.

use rand::Rng;

use tagwatch_sim::{FastMod, FrameSize, TagId};

use crate::bitstring::Bitstring;
use crate::error::CoreError;
use crate::trp::{slot, TrpChallenge};

/// Outcome of a full identification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentifyOutcome {
    /// Tags proven missing.
    pub missing: Vec<TagId>,
    /// Tags proven present.
    pub present: Vec<TagId>,
    /// Tags still unresolved when the round budget ran out (empty on a
    /// completed run).
    pub unresolved: Vec<TagId>,
    /// Rounds used.
    pub rounds: u32,
    /// Total slots spent.
    pub slots_used: u64,
}

/// Identification configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdentifyConfig {
    /// Slots per round as a multiple of the registry size; larger
    /// frames resolve more per round at more slots per round. 2 is a
    /// good default (≈ 60% of slots are singletons or empties).
    pub frame_factor: u64,
    /// Round budget before giving up on stragglers.
    pub max_rounds: u32,
}

impl Default for IdentifyConfig {
    fn default() -> Self {
        IdentifyConfig {
            frame_factor: 2,
            max_rounds: 64,
        }
    }
}

/// Runs identification rounds against a scan oracle until every tag is
/// classified or the round budget is exhausted.
///
/// The oracle receives each round's challenge and returns the observed
/// bitstring — wire it to [`crate::trp::run_reader`] for the device
/// simulation or [`crate::trp::observed_bitstring`] for the fast path.
///
/// ```rust
/// use rand::SeedableRng;
/// use tagwatch_core::identify::{identify_missing, IdentifyConfig};
/// use tagwatch_core::trp::observed_bitstring;
/// use tagwatch_sim::TagPopulation;
///
/// # fn main() -> Result<(), tagwatch_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut floor = TagPopulation::with_sequential_ids(100);
/// let registry = floor.ids();
/// floor.remove_random(3, &mut rng)?;
///
/// let outcome = identify_missing(&registry, IdentifyConfig::default(), &mut rng, |ch| {
///     Ok(observed_bitstring(&floor.ids(), ch))
/// })?;
/// assert_eq!(outcome.missing.len(), 3);
/// assert!(outcome.unresolved.is_empty());
/// # Ok(())
/// # }
/// ```
///
/// The frame is `registry.len() × frame_factor` slots (a factor of 0
/// counts as 1, and the frame as at least 8), sized from the registry
/// as given; repeated IDs are classified once.
///
/// # Errors
///
/// [`CoreError::InvalidParams`] when `registry.len() × frame_factor`
/// overflows `u64`, [`CoreError::Sim`] when the frame exceeds
/// [`FrameSize::MAX`] (both before any RNG draw), and the oracle's
/// errors and [`CoreError::ResponseShapeMismatch`] as they occur.
pub fn identify_missing<R, O>(
    registry: &[TagId],
    config: IdentifyConfig,
    rng: &mut R,
    mut scan: O,
) -> Result<IdentifyOutcome, CoreError>
where
    R: Rng + ?Sized,
    O: FnMut(&TrpChallenge) -> Result<Bitstring, CoreError>,
{
    let n = registry.len() as u64;
    let Some(slots) = n.checked_mul(config.frame_factor.max(1)) else {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "identification frame of {n} tags × frame_factor {} overflows",
                config.frame_factor
            ),
        });
    };
    let f = FrameSize::new(slots.max(8))?;
    let frame = FastMod::new(f);

    let mut ids = registry.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let folded: Vec<u64> = ids.iter().map(|id| id.fold64()).collect();
    let mut status = vec![Status::Unresolved; ids.len()];
    let mut slot_of = vec![0usize; ids.len()];
    let mut tally = vec![Tally::default(); f.as_usize()];
    let mut unresolved = ids.len();
    let mut rounds = 0;

    while unresolved > 0 && rounds < config.max_rounds {
        let challenge = TrpChallenge::generate(f, rng);
        let observed = scan(&challenge)?;
        if observed.len() as u64 != f.get() {
            return Err(CoreError::ResponseShapeMismatch {
                expected: f.get(),
                received: observed.len() as u64,
            });
        }
        rounds += 1;
        let r = challenge.plan().nonce().as_u64();

        // Pass 1: every tag not proven missing can put energy in its
        // slot (a proven-present one still blocks the singleton rule).
        tally.fill(Tally::default());
        for ((&fold, &state), at) in folded.iter().zip(&status).zip(&mut slot_of) {
            if state == Status::Missing {
                continue;
            }
            *at = slot(fold, r, frame);
            let t = &mut tally[*at];
            if state == Status::Unresolved {
                t.candidates = t.candidates.saturating_add(1);
            } else {
                t.present = true;
            }
        }

        // Pass 2: silence proves an unresolved tag absent; energy with
        // exactly one viable explanation proves it present. A tag
        // proven present is never demoted by a later empty slot: on an
        // ideal channel that cannot happen, and the earlier proof wins.
        for (state, &at) in status.iter_mut().zip(&slot_of) {
            if *state != Status::Unresolved {
                continue;
            }
            let t = tally[at];
            if !observed.get(at)? {
                *state = Status::Missing;
                unresolved -= 1;
            } else if t.candidates == 1 && !t.present {
                *state = Status::Present;
                unresolved -= 1;
            }
        }
    }

    let class = |wanted: Status| -> Vec<TagId> {
        ids.iter()
            .zip(&status)
            .filter(|&(_, &state)| state == wanted)
            .map(|(&id, _)| id)
            .collect()
    };
    Ok(IdentifyOutcome {
        missing: class(Status::Missing),
        present: class(Status::Present),
        unresolved: class(Status::Unresolved),
        rounds,
        slots_used: u64::from(rounds) * f.get(),
    })
}

/// A registry tag's classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Unresolved,
    Present,
    Missing,
}

/// What one slot's pre-image holds this round.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Unresolved tags hashing here, saturated at 2 (the rule only
    /// distinguishes one from more).
    candidates: u8,
    /// Whether a tag already proven present hashes here.
    present: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trp::observed_bitstring;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use tagwatch_sim::{slot_for, TagPopulation};

    /// Oracle over a fixed present set (ideal channel).
    fn oracle(present: Vec<TagId>) -> impl FnMut(&TrpChallenge) -> Result<Bitstring, CoreError> {
        move |ch| Ok(observed_bitstring(&present, ch))
    }

    #[test]
    fn identifies_the_exact_stolen_set() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut floor = TagPopulation::with_sequential_ids(300);
        let registry = floor.ids();
        let stolen = floor.remove_random(12, &mut rng).unwrap();
        let mut stolen_ids: Vec<TagId> = stolen.iter().map(|t| t.id()).collect();
        stolen_ids.sort_unstable();

        let outcome = identify_missing(
            &registry,
            IdentifyConfig::default(),
            &mut rng,
            oracle(floor.ids()),
        )
        .unwrap();
        assert!(outcome.unresolved.is_empty(), "did not converge");
        assert_eq!(outcome.missing, stolen_ids);
        assert_eq!(outcome.present.len(), 288);
    }

    #[test]
    fn intact_set_identifies_everyone_present() {
        let mut rng = StdRng::seed_from_u64(2);
        let floor = TagPopulation::with_sequential_ids(150);
        let outcome = identify_missing(
            &floor.ids(),
            IdentifyConfig::default(),
            &mut rng,
            oracle(floor.ids()),
        )
        .unwrap();
        assert!(outcome.missing.is_empty());
        assert_eq!(outcome.present.len(), 150);
    }

    #[test]
    fn all_missing_identifies_in_one_round() {
        // Nobody answers: every slot is empty, every pre-image resolves
        // missing immediately.
        let mut rng = StdRng::seed_from_u64(3);
        let registry: Vec<TagId> = (1..=50u64).map(TagId::from).collect();
        let outcome = identify_missing(
            &registry,
            IdentifyConfig::default(),
            &mut rng,
            oracle(Vec::new()),
        )
        .unwrap();
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.missing.len(), 50);
    }

    #[test]
    fn converges_in_logarithmically_few_rounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut floor = TagPopulation::with_sequential_ids(1000);
        let registry = floor.ids();
        floor.remove_random(31, &mut rng).unwrap();
        let outcome = identify_missing(
            &registry,
            IdentifyConfig::default(),
            &mut rng,
            oracle(floor.ids()),
        )
        .unwrap();
        assert!(outcome.unresolved.is_empty());
        assert!(
            outcome.rounds <= 12,
            "took {} rounds for n=1000",
            outcome.rounds
        );
    }

    #[test]
    fn identification_costs_more_than_detection_less_than_collect_all() {
        // The cost hierarchy: detection (one Eq. 2 frame) < full
        // identification (a few 2n frames) < per-tag costs of a full
        // inventory in the time domain (96-bit IDs).
        let mut rng = StdRng::seed_from_u64(5);
        let mut floor = TagPopulation::with_sequential_ids(400);
        let registry = floor.ids();
        floor.remove_random(11, &mut rng).unwrap();

        let params = crate::MonitorParams::new(400, 10, 0.95).unwrap();
        let detect_slots = crate::trp_frame_size(&params).unwrap().get();
        let outcome = identify_missing(
            &registry,
            IdentifyConfig::default(),
            &mut rng,
            oracle(floor.ids()),
        )
        .unwrap();
        assert!(outcome.slots_used > detect_slots);
        assert!(
            outcome.slots_used < 30 * 400,
            "identification cost exploded: {}",
            outcome.slots_used
        );
    }

    #[test]
    fn round_budget_is_honoured() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut floor = TagPopulation::with_sequential_ids(200);
        let registry = floor.ids();
        floor.remove_random(7, &mut rng).unwrap();
        let outcome = identify_missing(
            &registry,
            IdentifyConfig {
                frame_factor: 1,
                max_rounds: 1,
            },
            &mut rng,
            oracle(floor.ids()),
        )
        .unwrap();
        assert_eq!(outcome.rounds, 1);
        // One dense round cannot classify everything…
        assert!(!outcome.unresolved.is_empty());
        // …but everything it did classify must be correct.
        for id in &outcome.missing {
            assert!(!floor.contains(*id));
        }
        for id in &outcome.present {
            assert!(floor.contains(*id));
        }
    }

    #[test]
    fn a_wrong_length_scan_is_rejected() {
        let registry: Vec<TagId> = (1..=10u64).map(TagId::from).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let err = identify_missing(&registry, IdentifyConfig::default(), &mut rng, |_| {
            Ok(Bitstring::zeros(19))
        })
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::ResponseShapeMismatch {
                expected: 20,
                received: 19
            }
        );
    }

    #[test]
    fn an_overflowing_frame_is_an_attributed_error() {
        // 8 × 2⁶² slots overflows u64: an error naming the factor, not
        // a wrapped (release) or panicking (debug) multiply.
        let registry: Vec<TagId> = (1..=8u64).map(TagId::from).collect();
        let config = IdentifyConfig {
            frame_factor: 1 << 62,
            max_rounds: 64,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let err = identify_missing(&registry, config, &mut rng, oracle(registry.clone()));
        match err {
            Err(CoreError::InvalidParams { reason }) => {
                assert!(
                    reason.contains("frame_factor 4611686018427387904"),
                    "{reason}"
                );
            }
            other => panic!("expected an overflow error, got {other:?}"),
        }
        // A product that fits u64 but exceeds the largest frame is the
        // frame-size error; neither consumes the RNG.
        let config = IdentifyConfig {
            frame_factor: FrameSize::MAX,
            max_rounds: 64,
        };
        assert_eq!(
            identify_missing(&registry, config, &mut rng, oracle(registry.clone())),
            Err(CoreError::Sim(tagwatch_sim::SimError::FrameTooLarge {
                requested: 8 * FrameSize::MAX
            }))
        );
        let mut fresh = StdRng::seed_from_u64(9);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn classifications_never_flip() {
        // Once proven, a tag's class is stable across further rounds:
        // the run with a budget of k + 1 rounds extends the run with k.
        let mut floor = TagPopulation::with_sequential_ids(120);
        let registry = floor.ids();
        floor
            .remove_random(5, &mut StdRng::seed_from_u64(8))
            .unwrap();
        let budgeted = |max_rounds| {
            let config = IdentifyConfig {
                frame_factor: 2,
                max_rounds,
            };
            let mut rng = StdRng::seed_from_u64(8);
            identify_missing(&registry, config, &mut rng, oracle(floor.ids())).unwrap()
        };
        let mut before = budgeted(0);
        assert_eq!(before.unresolved, registry);
        for k in 1..6 {
            let after = budgeted(k);
            for id in &before.present {
                assert!(after.present.contains(id), "present flipped");
            }
            for id in &before.missing {
                assert!(after.missing.contains(id), "missing flipped");
            }
            before = after;
        }
    }

    // ---------------- the set-based reference ----------------

    /// The set-based absorb rule the flat kernel replaced, kept as the
    /// differential reference.
    #[derive(Default)]
    struct Reference {
        unresolved: BTreeSet<TagId>,
        present: BTreeSet<TagId>,
        missing: BTreeSet<TagId>,
        rounds: u32,
        slots_used: u64,
    }

    impl Reference {
        fn absorb_round(
            &mut self,
            challenge: &TrpChallenge,
            observed: &Bitstring,
        ) -> Result<(), CoreError> {
            let f = challenge.frame_size();
            if observed.len() as u64 != f.get() {
                return Err(CoreError::ResponseShapeMismatch {
                    expected: f.get(),
                    received: observed.len() as u64,
                });
            }
            self.rounds += 1;
            self.slots_used += f.get();
            let r = challenge.plan().nonce();
            let mut preimage: Vec<Vec<TagId>> = vec![Vec::new(); f.as_usize()];
            for &id in self.unresolved.iter().chain(self.present.iter()) {
                preimage[slot_for(id, r, f) as usize].push(id);
            }
            for (slot, tags) in preimage.iter().enumerate() {
                if tags.is_empty() {
                    continue;
                }
                if !observed.get(slot)? {
                    for &id in tags {
                        if self.unresolved.remove(&id) {
                            self.missing.insert(id);
                        }
                    }
                } else {
                    let candidates: Vec<TagId> = tags
                        .iter()
                        .copied()
                        .filter(|id| self.unresolved.contains(id))
                        .collect();
                    let known_present_in_slot = tags.iter().any(|id| self.present.contains(id));
                    if !known_present_in_slot && candidates.len() == 1 {
                        self.unresolved.remove(&candidates[0]);
                        self.present.insert(candidates[0]);
                    }
                }
            }
            Ok(())
        }
    }

    /// [`identify_missing`] as it ran over [`Reference`].
    fn reference_identify<R: Rng, O>(
        registry: &[TagId],
        config: IdentifyConfig,
        rng: &mut R,
        mut scan: O,
    ) -> Result<IdentifyOutcome, CoreError>
    where
        O: FnMut(&TrpChallenge) -> Result<Bitstring, CoreError>,
    {
        let n = registry.len() as u64;
        let f = FrameSize::new((n * config.frame_factor.max(1)).max(8))?;
        let mut id = Reference {
            unresolved: registry.iter().copied().collect(),
            ..Reference::default()
        };
        while !id.unresolved.is_empty() && id.rounds < config.max_rounds {
            let challenge = TrpChallenge::generate(f, rng);
            let observed = scan(&challenge)?;
            id.absorb_round(&challenge, &observed)?;
        }
        Ok(IdentifyOutcome {
            missing: id.missing.into_iter().collect(),
            present: id.present.into_iter().collect(),
            unresolved: id.unresolved.into_iter().collect(),
            rounds: id.rounds,
            slots_used: id.slots_used,
        })
    }

    /// The scan oracles the differential test drives both sides with.
    #[derive(Debug, Clone, Copy)]
    enum Field {
        /// An ideal channel over the present tags.
        Ideal,
        /// Arbitrary bits: energy where no tag hashes, silence under
        /// tags proven present.
        Arbitrary,
        /// Ideal rounds, then a bitstring one slot short at round `k`.
        WrongLength { at: u32 },
    }

    /// A fresh oracle of kind `field`; two built from the same `seed`
    /// answer the same challenges alike.
    fn field_oracle(
        field: Field,
        present: Vec<TagId>,
        seed: u64,
    ) -> impl FnMut(&TrpChallenge) -> Result<Bitstring, CoreError> {
        let mut noise = StdRng::seed_from_u64(seed);
        let mut round = 0u32;
        move |ch| {
            round += 1;
            let f = ch.frame_size().as_usize();
            Ok(match field {
                Field::Ideal => observed_bitstring(&present, ch),
                Field::Arbitrary => {
                    let density = noise.gen_range(0.0..1.0);
                    let bits: Vec<bool> = (0..f).map(|_| noise.gen_bool(density)).collect();
                    Bitstring::from_bools(&bits)
                }
                Field::WrongLength { at } if round >= at => Bitstring::zeros(f - 1),
                Field::WrongLength { .. } => observed_bitstring(&present, ch),
            })
        }
    }

    /// A registry of `n` entries with repeats and fold twins (distinct
    /// IDs whose halves swap, so `fold64` collides), and a random
    /// subset of its distinct IDs present on the floor.
    fn registry_case(n: usize, seed: u64) -> (Vec<TagId>, Vec<TagId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut registry: Vec<TagId> = Vec::with_capacity(n);
        while registry.len() < n {
            let id = match (registry.len(), rng.gen_range(0..10u8)) {
                (0, _) | (_, 0..=6) => TagId::new(rng.gen()),
                (len, 7) => registry[rng.gen_range(0..len)],
                (len, _) => {
                    let twin = registry[rng.gen_range(0..len)].as_u128();
                    TagId::new(twin.rotate_left(64))
                }
            };
            registry.push(id);
        }
        let keep = rng.gen_range(0.0..1.0);
        let mut distinct = registry.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let present = distinct
            .into_iter()
            .filter(|_| rng.gen_bool(keep))
            .collect();
        (registry, present)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn flat_kernel_agrees_with_the_set_reference(
            n in 1usize..=400,
            frame_factor in 1u64..=4,
            max_rounds in 0u32..=64,
            field in 0u8..3,
            seed in any::<u64>(),
        ) {
            let (registry, present) = registry_case(n, seed);
            let field = match field {
                0 => Field::Ideal,
                1 => Field::Arbitrary,
                _ => Field::WrongLength { at: 1 + (seed % 3) as u32 },
            };
            let config = IdentifyConfig { frame_factor, max_rounds };
            let mut flat_rng = StdRng::seed_from_u64(seed ^ 1);
            let mut set_rng = StdRng::seed_from_u64(seed ^ 1);
            let flat = identify_missing(
                &registry,
                config,
                &mut flat_rng,
                field_oracle(field, present.clone(), seed),
            );
            let set = reference_identify(
                &registry,
                config,
                &mut set_rng,
                field_oracle(field, present, seed),
            );
            prop_assert_eq!(flat, set, "field {:?}", field);
            prop_assert_eq!(flat_rng.gen::<u64>(), set_rng.gen::<u64>());
        }
    }
}
