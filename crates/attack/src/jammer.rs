//! The jammer (hole-patching) attack — and why it fails.
//!
//! After stealing tags, an adversary might leave a cheap transmitter at
//! the dock that blasts energy into slots during the scan, hoping to
//! "patch the holes" the missing tags would leave in the bitstring.
//! The catch (an immediate corollary of the paper's design): without
//! knowing the registry, the jammer cannot tell *which* slots need
//! patching — the challenge nonce re-randomizes them per scan — so its
//! energy lands mostly in slots the server expects **empty**, each one
//! fresh evidence of tampering. This module implements the strategy
//! anyway, as the natural "can't I just add noise?" question a reviewer
//! asks, and the tests quantify the answer.

use rand::seq::SliceRandom;
use rand::Rng;

use tagwatch_core::trp::{observed_bitstring, TrpChallenge};
use tagwatch_core::{Bitstring, CoreError};
use tagwatch_sim::TagId;

/// How the jammer picks slots to energize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JammerStrategy {
    /// Blast `count` uniformly random slots (no knowledge).
    RandomSlots {
        /// Number of slots to energize.
        count: usize,
    },
    /// Blast every slot (maximally aggressive — and maximally obvious).
    AllSlots,
    /// The strongest realistic variant: the jammer observed the scan
    /// and fills exactly the slots that stayed **empty** — still
    /// detected, because the server expected some of those slots empty
    /// and now sees energy everywhere.
    FillEmpties,
}

/// Runs a TRP scan over `present_ids` with the jammer active, returning
/// the bitstring the server receives.
///
/// # Errors
///
/// Infallible today; `Result` kept for signature stability with the
/// other attack constructors.
// lint:allow(u1-dead-pub): attack demonstration: jammer::tests::random_jamming_makes_detection_more_likely_not_less runs it
pub fn jammed_scan<R: Rng + ?Sized>(
    present_ids: &[TagId],
    challenge: &TrpChallenge,
    strategy: JammerStrategy,
    rng: &mut R,
) -> Result<Bitstring, CoreError> {
    let mut bs = observed_bitstring(present_ids, challenge);
    let len = bs.len();
    match strategy {
        JammerStrategy::RandomSlots { count } => {
            let mut slots: Vec<usize> = (0..len).collect();
            slots.shuffle(rng);
            for &slot in slots.iter().take(count.min(len)) {
                bs.set(slot, true)?;
            }
        }
        JammerStrategy::AllSlots => {
            for slot in 0..len {
                bs.set(slot, true)?;
            }
        }
        JammerStrategy::FillEmpties => {
            for slot in 0..len {
                if !bs.get(slot)? {
                    bs.set(slot, true)?;
                }
            }
        }
    }
    Ok(bs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_core::trp::verify;
    use tagwatch_core::{trp_frame_size, MonitorParams, Verdict};
    use tagwatch_sim::{FrameSize, TagPopulation};

    fn setup(seed: u64) -> (Vec<TagId>, TagPopulation, TrpChallenge, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut floor = TagPopulation::with_sequential_ids(300);
        let registry = floor.ids();
        floor.remove_random(6, &mut rng).unwrap();
        let params = MonitorParams::new(300, 5, 0.95).unwrap();
        let f = trp_frame_size(&params).unwrap();
        let ch = TrpChallenge::generate(f, &mut rng);
        (registry, floor, ch, rng)
    }

    #[test]
    fn random_jamming_makes_detection_more_likely_not_less() {
        let mut honest_detected = 0;
        let mut jammed_detected = 0;
        for seed in 0..100u64 {
            let (registry, floor, ch, mut rng) = setup(seed);
            let clean = observed_bitstring(&floor.ids(), &ch);
            if verify(&registry, ch.clone(), &clean).unwrap().is_alarm() {
                honest_detected += 1;
            }
            let jammed = jammed_scan(
                &floor.ids(),
                &ch,
                JammerStrategy::RandomSlots { count: 12 },
                &mut rng,
            )
            .unwrap();
            if verify(&registry, ch, &jammed).unwrap().is_alarm() {
                jammed_detected += 1;
            }
        }
        assert!(
            jammed_detected >= honest_detected,
            "jamming should only add evidence: {jammed_detected} vs {honest_detected}"
        );
        assert!(jammed_detected >= 98, "jammed scans nearly always alarm");
    }

    #[test]
    fn all_slots_jamming_is_instantly_detected() {
        for seed in 0..20u64 {
            let (registry, floor, ch, mut rng) = setup(seed);
            let jammed =
                jammed_scan(&floor.ids(), &ch, JammerStrategy::AllSlots, &mut rng).unwrap();
            let report = verify(&registry, ch, &jammed).unwrap();
            assert_eq!(report.verdict, Verdict::NotIntact);
            // Every slot the server expected empty is now a mismatch.
            assert!(report.mismatched_slots > 50, "{}", report.mismatched_slots);
        }
    }

    #[test]
    fn even_fill_empties_cannot_hide_theft() {
        // The information-theoretic point: the server expects a
        // *specific pattern* including zeros; filling all empties turns
        // every expected-zero slot into evidence.
        for seed in 0..20u64 {
            let (registry, floor, ch, mut rng) = setup(seed);
            let jammed =
                jammed_scan(&floor.ids(), &ch, JammerStrategy::FillEmpties, &mut rng).unwrap();
            let report = verify(&registry, ch, &jammed).unwrap();
            assert_eq!(report.verdict, Verdict::NotIntact, "seed {seed}");
        }
    }

    #[test]
    fn jamming_an_intact_set_causes_false_alarm_not_acceptance() {
        // Sanity direction check: jamming can only ever push toward
        // NotIntact, never launder a set into acceptance.
        let mut rng = StdRng::seed_from_u64(7);
        let floor = TagPopulation::with_sequential_ids(100);
        let ch = TrpChallenge::generate(FrameSize::new(256).unwrap(), &mut rng);
        let jammed = jammed_scan(
            &floor.ids(),
            &ch,
            JammerStrategy::RandomSlots { count: 5 },
            &mut rng,
        )
        .unwrap();
        let report = verify(&floor.ids(), ch, &jammed).unwrap();
        // 5 random slots in a 256-slot frame with ~32% occupancy: with
        // probability 1 − 0.32⁵ ≈ 0.997 at least one lands on an
        // expected-zero slot → alarm. This seed alarms.
        assert!(report.is_alarm());
    }

    #[test]
    fn zero_count_jammer_is_a_no_op() {
        let mut rng = StdRng::seed_from_u64(8);
        let floor = TagPopulation::with_sequential_ids(50);
        let ch = TrpChallenge::generate(FrameSize::new(128).unwrap(), &mut rng);
        let clean = observed_bitstring(&floor.ids(), &ch);
        let jammed = jammed_scan(
            &floor.ids(),
            &ch,
            JammerStrategy::RandomSlots { count: 0 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(clean, jammed);
    }
}
