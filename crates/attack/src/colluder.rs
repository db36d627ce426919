//! The best-strategy collusion attack against UTRP (paper §5.4).
//!
//! The dishonest reader `R1` holds the remaining set `s1`; the
//! accomplice `R2` holds the stolen set `s2`. Both know the committed
//! nonce sequence, so they can run the protocol in lockstep — *if* they
//! synchronize: UTRP re-seeds after every reply slot, and `R1` cannot
//! know whether `s2` replied in a slot where `s1` stayed quiet without
//! asking over the side channel. Each such ask costs `tcomm`, and the
//! server's deadline only leaves room for `c` of them.
//!
//! The paper identifies the colluders' optimal play, implemented here:
//!
//! 1. While budget remains, stay synchronized: on every slot where `R1`
//!    hears nothing it spends one sync to learn `R2`'s observation; the
//!    combined bitstring is exact and both sides re-seed together.
//! 2. When the budget runs out, `R1` finishes the frame alone over
//!    `s1`, re-seeding only on its own replies, and returns the result.
//!
//! The prefix up to the desynchronization point is correct; everything
//! after carries detection signal — which is precisely what Eq. 3 sizes
//! the frame to exploit (Fig. 7 measures the outcome).
//!
//! Counter bookkeeping: `s1` tags hear every `R1` announcement; `s2`
//! tags hear `R2`'s, which stop at the desync point (the accomplice has
//! nothing further to contribute). Both sets' hardware counters advance
//! accordingly.

use tagwatch_core::nonce::NonceCursor;
use tagwatch_core::utrp::{
    round_duration, RoundOutcome, UtrpChallenge, UtrpParticipant, UtrpResponse,
};
use tagwatch_core::{Bitstring, CoreError, ScanJob, ScanParams};
use tagwatch_sim::hash::slot_for_counted;
use tagwatch_sim::{FastMod, FrameSize, Nonce, SimDuration, TagPopulation, TimingModel};

/// Collusion parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColluderConfig {
    /// The synchronization budget `c` (the paper's evaluation uses 20).
    pub sync_budget: u64,
    /// Side-channel round-trip latency, billed per synchronization.
    pub tcomm: SimDuration,
}

impl Default for ColluderConfig {
    fn default() -> Self {
        ColluderConfig {
            sync_budget: 20,
            tcomm: SimDuration::from_micros(500),
        }
    }
}

/// What the attack produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColluderOutcome {
    /// The forged response `R1` returns to the server.
    pub response: UtrpResponse,
    /// Synchronizations actually spent (≤ budget).
    pub syncs_used: u64,
    /// The global slot at which the readers desynchronized, if the
    /// budget ran out before the frame ended.
    pub desync_slot: Option<u64>,
}

/// One colluding reader's tags that can still reply, as the round
/// engine keeps them: folded IDs and pre-round counters, scanned once
/// per announcement with the engine's kernel ([`ScanJob::scan_range`]).
/// Detuned tags never enter; the caller advances every tag's counter by
/// `announcements` when the round ends.
#[derive(Debug, Default)]
struct ActiveSet {
    folded: Vec<u64>,
    bases: Vec<u64>,
    /// The active indices of the pending reply's tags.
    members: Vec<u32>,
    announcements: u64,
    /// The pending reply's slot, relative to the last announcement's
    /// sub-frame.
    next: Option<u64>,
}

impl ActiveSet {
    fn new(pop: &TagPopulation) -> Self {
        let mut set = ActiveSet::default();
        for tag in pop.iter().filter(|t| !t.is_detuned()) {
            set.folded.push(tag.id().fold64());
            set.bases.push(tag.counter().get());
        }
        set
    }

    /// Announce `(r, f')` with `frame` reducing by `f'`: every tag's
    /// counter advances, and the scan finds the pending reply.
    fn announce(&mut self, r: Nonce, frame: FastMod) {
        self.announcements += 1;
        let params = ScanParams {
            nonce: r.as_u64(),
            advance: self.announcements,
            uniform_key: None,
            frame,
        };
        let job = ScanJob::new(&self.folded, &self.bases, &params);
        self.next = job.scan_range(0, job.len(), &mut self.members);
    }

    /// Consumes the pending reply: its tags have answered and keep
    /// silent for the rest of the round.
    fn take_reply(&mut self) {
        for &i in self.members.iter().rev() {
            self.folded.swap_remove(i as usize);
            self.bases.swap_remove(i as usize);
        }
        self.next = None;
    }
}

/// One reader's slot-by-slot state over its tag subset, for
/// [`collude_utrp_reference`].
#[derive(Debug)]
struct Subset {
    parts: Vec<UtrpParticipant>,
    replied: Vec<bool>,
    buckets: Vec<Vec<usize>>,
    announcements: u64,
}

impl Subset {
    fn new(pop: &TagPopulation) -> Self {
        let parts: Vec<UtrpParticipant> = pop
            .iter()
            .map(|t| UtrpParticipant {
                id: t.id(),
                counter: t.counter(),
                mute: t.is_detuned(),
            })
            .collect();
        let replied = vec![false; parts.len()];
        Subset {
            parts,
            replied,
            buckets: Vec::new(),
            announcements: 0,
        }
    }

    /// Announce `(f_sub, r)`: every tag increments its counter;
    /// un-replied, un-mute tags re-bucket.
    fn announce(&mut self, r: Nonce, f_sub: FrameSize) {
        self.announcements += 1;
        self.buckets = vec![Vec::new(); f_sub.as_usize()];
        for (i, p) in self.parts.iter_mut().enumerate() {
            p.counter.increment();
            if !self.replied[i] && !p.mute {
                let sn = slot_for_counted(p.id, r, p.counter, f_sub);
                self.buckets[sn as usize].push(i);
            }
        }
    }

    fn has_reply(&self, rel: usize) -> bool {
        !self.buckets[rel].is_empty()
    }

    fn mark_replied(&mut self, rel: usize) {
        // Take the bucket to appease the borrow checker; buckets are
        // rebuilt on the next announce anyway.
        let bucket = std::mem::take(&mut self.buckets[rel]);
        for i in bucket {
            self.replied[i] = true;
        }
    }
}

/// Executes the best-strategy collusion attack and writes the tags'
/// advanced hardware counters back into both populations.
///
/// This is the fast engine: it skips runs of empty slots analytically
/// (budget arithmetic instead of slot-by-slot waiting), and each reader
/// finds its next reply with the round engine's scan kernel. The
/// literal per-slot form is kept as [`collude_utrp_reference`], its
/// oracle; the two are tested to agree exactly.
///
/// # Errors
///
/// Returns [`CoreError::NonceSequenceExhausted`] only on a malformed
/// challenge (the committed sequence always covers a full frame).
pub fn collude_utrp(
    s1: &mut TagPopulation,
    s2: &mut TagPopulation,
    challenge: &UtrpChallenge,
    config: &ColluderConfig,
    timing: &TimingModel,
) -> Result<ColluderOutcome, CoreError> {
    let f = challenge.frame_size();
    let total = f.get();
    let mut cursor: NonceCursor<'_> = challenge.nonces().cursor();

    let mut r1 = ActiveSet::new(s1);
    let mut r2 = ActiveSet::new(s2);
    let (first, frame) = (cursor.next_nonce()?, FastMod::new(f));
    r1.announce(first, frame);
    r2.announce(first, frame);

    let mut bs = Bitstring::zeros(f.as_usize());
    let mut subframe_start = 0u64;
    let mut budget = config.sync_budget;
    let mut syncs_used = 0u64;
    let mut synced = true;
    let mut desync_slot = None;

    loop {
        if synced {
            let (a, b) = (r1.next, r2.next);
            // Relative slot of the next combined event, if any.
            let event = match (a, b) {
                (None, None) => None,
                (Some(x), None) => Some(x),
                (None, Some(y)) => Some(y),
                (Some(x), Some(y)) => Some(x.min(y)),
            };
            let Some(e) = event else {
                // No further replies anywhere: R1 must still ask R2 on
                // every remaining (empty) slot of the frame.
                let remaining_slots = total - subframe_start;
                if budget >= remaining_slots {
                    syncs_used += remaining_slots;
                } else {
                    syncs_used += budget;
                    desync_slot = Some(subframe_start + budget);
                }
                break;
            };
            // Slots before `e` are empty for R1 and cost one sync each;
            // the event slot itself is free iff R1 hears its own tags.
            let r1_replies_at_e = a == Some(e);
            let cost = if r1_replies_at_e { e } else { e + 1 };
            if budget < cost {
                // Budget dies on an empty slot at relative index
                // `budget`; R1 carries on alone from there.
                syncs_used += budget;
                desync_slot = Some(subframe_start + budget);
                budget = 0;
                synced = false;
                continue;
            }
            budget -= cost;
            syncs_used += cost;
            let global = subframe_start + e;
            bs.set(global as usize, true)?;
            if r1_replies_at_e {
                r1.take_reply();
            }
            if b == Some(e) {
                r2.take_reply();
            }
            let remaining = total - (global + 1);
            if remaining == 0 {
                break;
            }
            subframe_start = global + 1;
            let frame = FastMod::from_divisor(remaining);
            let r = cursor.next_nonce()?;
            r1.announce(r, frame);
            r2.announce(r, frame);
        } else {
            // Phase 2: R1 alone over s1, re-seeding on its own replies.
            let Some(rel) = r1.next else {
                break;
            };
            let global = subframe_start + rel;
            bs.set(global as usize, true)?;
            r1.take_reply();
            let remaining = total - (global + 1);
            if remaining == 0 {
                break;
            }
            subframe_start = global + 1;
            r1.announce(cursor.next_nonce()?, FastMod::from_divisor(remaining));
        }
    }

    // Every in-range tag heard its reader's announcements.
    let (ann1, ann2) = (r1.announcements, r2.announcements);
    for tag in s1.iter_mut() {
        tag.advance_counter(ann1);
    }
    for tag in s2.iter_mut() {
        tag.advance_counter(ann2);
    }

    let outcome = RoundOutcome {
        bitstring: bs,
        announcements: ann1,
    };
    let elapsed = round_duration(timing, &outcome) + config.tcomm * syncs_used;
    Ok(ColluderOutcome {
        response: UtrpResponse {
            bitstring: outcome.bitstring,
            elapsed,
            announcements: outcome.announcements,
        },
        syncs_used,
        desync_slot,
    })
}

/// The literal slot-by-slot form of the attack (§5.4), kept as an
/// executable specification of [`collude_utrp`].
///
/// # Errors
///
/// Same as [`collude_utrp`].
pub fn collude_utrp_reference(
    s1: &mut TagPopulation,
    s2: &mut TagPopulation,
    challenge: &UtrpChallenge,
    config: &ColluderConfig,
    timing: &TimingModel,
) -> Result<ColluderOutcome, CoreError> {
    let f = challenge.frame_size();
    let total = f.get();
    let mut cursor: NonceCursor<'_> = challenge.nonces().cursor();

    let mut r1 = Subset::new(s1);
    let mut r2 = Subset::new(s2);
    let first = cursor.next_nonce()?;
    r1.announce(first, f);
    r2.announce(first, f);

    let mut bs = Bitstring::zeros(f.as_usize());
    let mut subframe_start = 0u64;
    let mut budget = config.sync_budget;
    let mut syncs_used = 0u64;
    let mut synced = true;
    let mut desync_slot = None;

    for global in 0..total {
        let rel = (global - subframe_start) as usize;
        let r1_reply = r1.has_reply(rel);

        let occupied = if synced {
            if r1_reply {
                // R1 heard its own tags; it proceeds (and tells R2 to
                // re-seed) without waiting — the paper bills only the
                // waits on R1-empty slots against the budget.
                true
            } else if budget > 0 {
                budget -= 1;
                syncs_used += 1;
                r2.has_reply(rel)
            } else {
                synced = false;
                desync_slot = Some(global);
                false
            }
        } else {
            r1_reply
        };

        if !occupied {
            continue;
        }
        bs.set(global as usize, true)?;
        if r1_reply {
            r1.mark_replied(rel);
        }
        if synced {
            r2.mark_replied(rel);
        }
        let remaining = total - (global + 1);
        if remaining > 0 {
            subframe_start = global + 1;
            let f_sub = FrameSize::new(remaining)?;
            let r = cursor.next_nonce()?;
            r1.announce(r, f_sub);
            if synced {
                r2.announce(r, f_sub);
            }
        }
    }

    // Write back hardware counters.
    for tag in s1.iter_mut() {
        tag.advance_counter(r1.announcements);
    }
    for tag in s2.iter_mut() {
        tag.advance_counter(r2.announcements);
    }

    let outcome = RoundOutcome {
        bitstring: bs,
        announcements: r1.announcements,
    };
    let elapsed = round_duration(timing, &outcome) + config.tcomm * syncs_used;
    Ok(ColluderOutcome {
        response: UtrpResponse {
            bitstring: outcome.bitstring,
            elapsed,
            announcements: outcome.announcements,
        },
        syncs_used,
        desync_slot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_core::utrp::expected_round;
    use tagwatch_sim::TagId;

    fn split(n: usize, steal: usize, seed: u64) -> (TagPopulation, TagPopulation) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s1 = TagPopulation::with_sequential_ids(n);
        let s2 = s1.split_random(steal, &mut rng).unwrap();
        (s1, s2)
    }

    fn registry(n: u64) -> Vec<(TagId, tagwatch_sim::Counter)> {
        (1..=n)
            .map(|i| (TagId::from(i), tagwatch_sim::Counter::ZERO))
            .collect()
    }

    fn challenge(f: u64, seed: u64) -> UtrpChallenge {
        let mut rng = StdRng::seed_from_u64(seed);
        UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fast_attack_matches_slot_by_slot_reference(
            n in 1usize..=120,
            steal_pick in 0usize..=120,
            f_raw in 1u64..=300,
            budget_percent in 0u64..=125,
            offset in any::<u64>(),
            spread in prop::collection::vec(0u64..=4, 120..121),
            mute in prop::collection::vec(0u8..=5, 120..121),
            seed in any::<u64>(),
        ) {
            // Same bitstring, sync count, desync point, counters, and
            // elapsed time for any split (nothing to everything
            // stolen) and any budget from 0 to past the frame. Both
            // halves hold random IDs, counters scattered up to four
            // apart around an arbitrary offset (wrapping included), and
            // about one detuned tag in six: it hears its reader's
            // announcements but never replies.
            let steal = steal_pick % (n + 1);
            let budget = f_raw * budget_percent / 100;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a1 = TagPopulation::with_random_ids(n, &mut rng);
            for (i, tag) in a1.iter_mut().enumerate() {
                tag.advance_counter(offset.wrapping_add(spread[i]));
                tag.set_detuned(mute[i] == 0);
            }
            let mut a2 = a1.split_random(steal, &mut rng).unwrap();
            let (mut b1, mut b2) = (a1.clone(), a2.clone());
            let ch = UtrpChallenge::generate(
                FrameSize::new(f_raw).unwrap(),
                &TimingModel::gen2(),
                &mut rng,
            );
            let config = ColluderConfig {
                sync_budget: budget,
                tcomm: SimDuration::from_micros(3),
            };
            let fast = collude_utrp(&mut a1, &mut a2, &ch, &config, &TimingModel::gen2()).unwrap();
            let reference =
                collude_utrp_reference(&mut b1, &mut b2, &ch, &config, &TimingModel::gen2())
                    .unwrap();
            prop_assert_eq!(fast, reference, "steal={} c={}", steal, budget);
            let counters =
                |p: &TagPopulation| p.iter().map(|t| (t.id(), t.counter())).collect::<Vec<_>>();
            prop_assert_eq!(counters(&a1), counters(&b1), "s1 counters diverged");
            prop_assert_eq!(counters(&a2), counters(&b2), "s2 counters diverged");
        }
    }

    #[test]
    fn unlimited_budget_forges_a_perfect_bitstring() {
        // With enough syncs the colluders ARE one reader: their forged
        // bs must equal the honest full-set bitstring.
        let (mut s1, mut s2) = split(100, 11, 1);
        let ch = challenge(300, 2);
        let config = ColluderConfig {
            sync_budget: 300,
            tcomm: SimDuration::from_micros(1),
        };
        let outcome = collude_utrp(&mut s1, &mut s2, &ch, &config, &TimingModel::gen2()).unwrap();
        let expected = expected_round(&registry(100), &ch).unwrap();
        assert_eq!(outcome.response.bitstring, expected.bitstring);
        assert_eq!(outcome.desync_slot, None);
    }

    #[test]
    fn budgeted_attack_is_usually_detected() {
        // The paper's claim: with Eq. 3 sizing and c = 20, the best
        // strategy still mismatches with probability > alpha.
        use tagwatch_core::{utrp_frame_size, MonitorParams, UtrpSizing};
        let params = MonitorParams::new(200, 5, 0.95).unwrap();
        let f = utrp_frame_size(&params, UtrpSizing::default()).unwrap();
        let config = ColluderConfig {
            sync_budget: 20,
            tcomm: SimDuration::from_micros(1),
        };

        let mut detected = 0;
        let trials = 120;
        for seed in 0..trials {
            let (mut s1, mut s2) = split(200, 6, 100 + seed);
            let ch = challenge(f.get(), 200 + seed);
            let outcome =
                collude_utrp(&mut s1, &mut s2, &ch, &config, &TimingModel::gen2()).unwrap();
            let expected = expected_round(&registry(200), &ch).unwrap();
            if outcome.response.bitstring != expected.bitstring {
                detected += 1;
            }
        }
        let rate = detected as f64 / trials as f64;
        assert!(rate > 0.9, "detection rate {rate}");
    }

    #[test]
    fn prefix_before_desync_is_correct() {
        let (mut s1, mut s2) = split(150, 10, 3);
        let ch = challenge(400, 4);
        let config = ColluderConfig {
            sync_budget: 15,
            tcomm: SimDuration::from_micros(1),
        };
        let outcome = collude_utrp(&mut s1, &mut s2, &ch, &config, &TimingModel::gen2()).unwrap();
        let expected = expected_round(&registry(150), &ch).unwrap();
        let desync = outcome
            .desync_slot
            .expect("budget of 15 must run out on a 400-slot frame") as usize;
        for i in 0..desync {
            assert_eq!(
                outcome.response.bitstring.get(i).unwrap(),
                expected.bitstring.get(i).unwrap(),
                "prefix bit {i} differs before desync at {desync}"
            );
        }
    }

    #[test]
    fn syncs_never_exceed_budget() {
        let (s1, s2) = split(100, 20, 5);
        let ch = challenge(256, 6);
        for budget in [0u64, 1, 7, 50] {
            let mut a = s1.clone();
            let mut b = s2.clone();
            let config = ColluderConfig {
                sync_budget: budget,
                tcomm: SimDuration::from_micros(1),
            };
            let outcome = collude_utrp(&mut a, &mut b, &ch, &config, &TimingModel::gen2()).unwrap();
            assert!(outcome.syncs_used <= budget);
        }
    }

    #[test]
    fn side_channel_time_is_billed() {
        let (mut s1, mut s2) = split(100, 10, 7);
        let ch = challenge(256, 8);
        let slow = ColluderConfig {
            sync_budget: 20,
            tcomm: SimDuration::from_millis(10),
        };
        let outcome = collude_utrp(&mut s1, &mut s2, &ch, &slow, &TimingModel::gen2()).unwrap();
        assert!(
            outcome.response.elapsed.as_micros() >= outcome.syncs_used * 10_000,
            "tcomm not billed"
        );
    }

    #[test]
    fn zero_budget_is_a_lone_dishonest_reader() {
        // c = 0: R1 never syncs; its bitstring is just an honest scan of
        // s1 under a diverging re-seed schedule.
        let (mut s1, mut s2) = split(80, 8, 9);
        let ch = challenge(200, 10);
        let config = ColluderConfig {
            sync_budget: 0,
            tcomm: SimDuration::from_micros(1),
        };
        let outcome = collude_utrp(&mut s1, &mut s2, &ch, &config, &TimingModel::gen2()).unwrap();
        assert_eq!(outcome.syncs_used, 0);
        // s2's tags heard only the initial announcement.
        assert!(s2.iter().all(|t| t.counter().get() == 1));
    }

    #[test]
    fn counters_advance_in_lockstep_while_synced() {
        let (mut s1, mut s2) = split(60, 6, 11);
        let ch = challenge(150, 12);
        let config = ColluderConfig {
            sync_budget: 150,
            tcomm: SimDuration::from_micros(1),
        };
        collude_utrp(&mut s1, &mut s2, &ch, &config, &TimingModel::gen2()).unwrap();
        // Fully synced: both subsets heard the same announcements.
        let c1 = s1.iter().next().unwrap().counter();
        assert!(s1.iter().all(|t| t.counter() == c1));
        assert!(s2.iter().all(|t| t.counter() == c1));
    }
}
