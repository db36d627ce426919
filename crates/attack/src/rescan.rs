//! The pre-scan attack against a **counter-less** UTRP variant — the
//! ablation that justifies the hardware counter (paper §5.2, Fig. 3).
//!
//! Re-seeding alone looks like it forces colluders to synchronize, but
//! the paper observes it does not: "re-seeding does not prevent readers
//! from running the algorithm multiple times to gain some information."
//! Without a counter, a tag's behaviour is a **pure function** of
//! `(id, nonce sequence)` — so a dishonest reader that has *ever*
//! learned the IDs (one collect-all before the theft) can simulate the
//! entire re-seeded round offline, for any split of the tags, with
//! **zero** interactive synchronizations. This module implements that
//! counter-less variant and the attack, and the tests show:
//!
//! * against counter-less UTRP the offline forgery is **always** a
//!   bit-perfect match (detection probability 0);
//! * against real UTRP the same knowledge is useless, because every
//!   announcement mutates hidden tag state (`ct`) that the server
//!   mirrors but the attacker cannot rewind.

use tagwatch_core::utrp::UtrpChallenge;
use tagwatch_core::{Bitstring, CoreError, NonceSequence};
use tagwatch_sim::{slot_for, FrameSize, TagId};

/// Executes one round of the **counter-less** UTRP variant: identical
/// re-seed structure to Alg. 6, but tags pick slots as
/// `h(id ⊕ r) mod f'` with no per-tag state.
///
/// Being stateless, the result depends only on `(ids, f, nonces)` — the
/// property the attack exploits.
///
/// # Errors
///
/// Returns [`CoreError::NonceSequenceExhausted`] if the sequence is
/// shorter than the frame.
pub fn counterless_round(
    ids: &[TagId],
    f: FrameSize,
    nonces: &NonceSequence,
) -> Result<Bitstring, CoreError> {
    let total = f.get();
    let mut bs = Bitstring::zeros(f.as_usize());
    let mut cursor = nonces.cursor();

    let mut remaining: Vec<TagId> = ids.to_vec();
    let mut subframe_start = 0u64;
    let mut r = cursor.next_nonce()?;
    let mut f_sub = f;

    loop {
        // Earliest relative slot among remaining tags.
        let mut min_rel: Option<u64> = None;
        for &id in &remaining {
            let sn = slot_for(id, r, f_sub);
            if min_rel.is_none_or(|best| sn < best) {
                min_rel = Some(sn);
            }
        }
        let Some(rel) = min_rel else { break };
        let global = subframe_start + rel;
        bs.set(global as usize, true)?;
        remaining.retain(|&id| slot_for(id, r, f_sub) != rel);

        let left = total - (global + 1);
        if left == 0 {
            break;
        }
        subframe_start = global + 1;
        f_sub = FrameSize::new(left)?;
        r = cursor.next_nonce()?;
    }
    Ok(bs)
}

/// The offline forgery: colluders who know both ID sets (from a
/// pre-theft inventory) simulate the counter-less round locally. No
/// radio contact with the stolen tags, no side-channel syncs — one
/// exchange of ID lists beforehand suffices.
///
/// # Errors
///
/// Propagates [`counterless_round`] errors.
// lint:allow(u1-dead-pub): attack demonstration: the counter ablation in EXPERIMENTS.md; tests/extensions.rs::counter_ablation_story_holds_through_the_facade runs it
pub fn prescan_attack(
    s1_ids: &[TagId],
    s2_ids: &[TagId],
    challenge: &UtrpChallenge,
) -> Result<Bitstring, CoreError> {
    let all: Vec<TagId> = s1_ids.iter().chain(s2_ids.iter()).copied().collect();
    counterless_round(&all, challenge.frame_size(), challenge.nonces())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_core::utrp::expected_round;
    use tagwatch_sim::{Counter, TagPopulation, TimingModel};

    fn challenge(f: u64, seed: u64) -> UtrpChallenge {
        let mut rng = StdRng::seed_from_u64(seed);
        UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng)
    }

    #[test]
    fn counterless_round_is_a_pure_function() {
        let ids: Vec<TagId> = (1..=60u64).map(TagId::from).collect();
        let ch = challenge(150, 1);
        let a = counterless_round(&ids, ch.frame_size(), ch.nonces()).unwrap();
        let b = counterless_round(&ids, ch.frame_size(), ch.nonces()).unwrap();
        // No hidden state: rescanning yields the identical bitstring —
        // exactly what the hardware counter exists to prevent.
        assert_eq!(a, b);
    }

    #[test]
    fn prescan_attack_always_defeats_counterless_utrp() {
        // 50 attempts, all bit-perfect: the counter-less design is
        // completely broken against colluders with prior knowledge.
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s1 = TagPopulation::with_sequential_ids(120);
            let s2 = s1.split_random(11, &mut rng).unwrap();
            let ch = challenge(300, 100 + seed);

            let honest_server_view: Vec<TagId> = s1.ids().into_iter().chain(s2.ids()).collect();
            let expected =
                counterless_round(&honest_server_view, ch.frame_size(), ch.nonces()).unwrap();
            let forged = prescan_attack(&s1.ids(), &s2.ids(), &ch).unwrap();
            assert_eq!(forged, expected, "seed {seed}");
        }
    }

    #[test]
    fn the_same_knowledge_is_useless_against_real_utrp() {
        // Give the attacker full ID knowledge and the counter-less
        // simulator: against the real (counter-mixing) server
        // prediction the forgery essentially never matches.
        let mut fooled = 0;
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(1_000 + seed);
            let mut s1 = TagPopulation::with_sequential_ids(120);
            let s2 = s1.split_random(11, &mut rng).unwrap();
            let ch = challenge(300, 2_000 + seed);

            let registry: Vec<(TagId, Counter)> = (1..=120u64)
                .map(|i| (TagId::from(i), Counter::ZERO))
                .collect();
            let expected = expected_round(&registry, &ch).unwrap();
            let forged = prescan_attack(&s1.ids(), &s2.ids(), &ch).unwrap();
            if forged == expected.bitstring {
                fooled += 1;
            }
        }
        assert_eq!(fooled, 0, "offline forgery beat the counter {fooled} times");
    }

    #[test]
    fn counterless_round_has_sane_shape() {
        let ids: Vec<TagId> = (1..=40u64).map(TagId::from).collect();
        let ch = challenge(100, 3);
        let bs = counterless_round(&ids, ch.frame_size(), ch.nonces()).unwrap();
        let ones = bs.count_ones();
        assert!(ones > 0 && ones <= 40);
    }

    #[test]
    fn empty_id_set_yields_all_zeros() {
        let ch = challenge(32, 4);
        let bs = counterless_round(&[], ch.frame_size(), ch.nonces()).unwrap();
        assert_eq!(bs.count_ones(), 0);
    }
}
