//! The replay attack (paper §1, §5.1).
//!
//! "A dishonest employee can first collect all the tag IDs prior to the
//! theft, and then replay the data back to the server later." Against a
//! bitstring protocol the equivalent is recording the `bs` of an intact
//! scan and returning it after stealing tags. The defence is freshness:
//! the server issues a new `(f, r)` every time, and a recorded `bs` is
//! only valid for the `(f, r)` it was captured under.

use std::collections::BTreeMap;

use tagwatch_sim::Nonce;

use tagwatch_core::trp::TrpChallenge;
use tagwatch_core::Bitstring;

/// An attacker that records observed (challenge, bitstring) pairs and
/// replays the best match later.
#[derive(Debug, Clone, Default)]
pub struct ReplayAttacker {
    // Keyed by the exact (f, r) the recording was captured under.
    exact: BTreeMap<(u64, Nonce), Bitstring>,
    // Most recent recording per frame size, for the fallback replay.
    by_frame: BTreeMap<u64, Bitstring>,
}

impl ReplayAttacker {
    /// Creates an attacker with an empty tape.
    #[must_use]
    pub fn new() -> Self {
        ReplayAttacker::default()
    }

    /// Records a bitstring observed for a challenge (e.g. sniffed from
    /// an honest scan while the set was still intact).
    pub fn record(&mut self, challenge: &TrpChallenge, bs: Bitstring) {
        let f = challenge.frame_size().get();
        self.exact.insert((f, challenge.plan().nonce()), bs.clone());
        self.by_frame.insert(f, bs);
    }

    /// The attacker's best response to a fresh challenge:
    ///
    /// 1. an exact `(f, r)` match — only possible if the server reused a
    ///    challenge (the vulnerability the nonce exists to close);
    /// 2. otherwise any recording with the right frame size (wrong
    ///    nonce, so the slot pattern will not line up);
    /// 3. otherwise an all-zero bitstring of the right length.
    #[must_use]
    pub fn respond(&self, challenge: &TrpChallenge) -> Bitstring {
        let f = challenge.frame_size().get();
        if let Some(bs) = self.exact.get(&(f, challenge.plan().nonce())) {
            return bs.clone();
        }
        if let Some(bs) = self.by_frame.get(&f) {
            return bs.clone();
        }
        Bitstring::zeros(challenge.frame_size().as_usize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_core::trp::{observed_bitstring, verify};
    use tagwatch_core::Verdict;
    use tagwatch_sim::aloha::FramePlan;
    use tagwatch_sim::{FrameSize, TagId};

    fn ids(n: u64) -> Vec<TagId> {
        (1..=n).map(TagId::from).collect()
    }

    fn challenge(f: u64, r: u64) -> TrpChallenge {
        TrpChallenge::new(FramePlan::new(FrameSize::new(f).unwrap(), Nonce::new(r)))
    }

    #[test]
    fn replay_succeeds_against_a_reused_challenge() {
        // The vulnerability: a lazy server reusing (f, r) accepts a
        // recording made before the theft.
        let all = ids(100);
        let ch = challenge(256, 42);
        let mut attacker = ReplayAttacker::new();
        attacker.record(&ch, observed_bitstring(&all, &ch));

        // Theft happens; the server (incorrectly) reissues the same
        // challenge. The replay passes verification.
        let reused = challenge(256, 42);
        let report = verify(&all, reused, &attacker.respond(&challenge(256, 42))).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Intact,
            "replay should fool a reused nonce"
        );
    }

    #[test]
    fn replay_fails_against_a_fresh_nonce() {
        // The defence (§5.1): new (f, r) per scan invalidates the tape.
        let all = ids(100);
        let old = challenge(256, 42);
        let mut attacker = ReplayAttacker::new();
        attacker.record(&old, observed_bitstring(&all, &old));

        let fresh = challenge(256, 43);
        let response = attacker.respond(&fresh);
        let report = verify(&all, fresh, &response).unwrap();
        assert_eq!(report.verdict, Verdict::NotIntact);
        assert!(report.mismatched_slots > 0);
    }

    #[test]
    fn replay_fails_across_many_fresh_nonces() {
        let all = ids(200);
        let old = challenge(400, 1);
        let mut attacker = ReplayAttacker::new();
        attacker.record(&old, observed_bitstring(&all, &old));

        let mut rng = StdRng::seed_from_u64(5);
        let mut fooled = 0;
        for _ in 0..100 {
            let fresh = TrpChallenge::generate(FrameSize::new(400).unwrap(), &mut rng);
            let report = verify(&all, fresh.clone(), &attacker.respond(&fresh)).unwrap();
            if report.verdict == Verdict::Intact {
                fooled += 1;
            }
        }
        assert_eq!(fooled, 0, "fresh nonces must never accept a replay");
    }

    #[test]
    fn responds_with_zeros_when_tape_is_empty() {
        let attacker = ReplayAttacker::new();
        let ch = challenge(64, 9);
        let bs = attacker.respond(&ch);
        assert_eq!(bs.len(), 64);
        assert_eq!(bs.count_ones(), 0);
    }
}
