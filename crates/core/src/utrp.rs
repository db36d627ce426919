//! UTRP — the Untrusted Reader Protocol (paper §5).
//!
//! TRP falls to a pair of colluding readers: split the set, scan both
//! halves under the same `(f, r)`, OR the bitstrings (Alg. 4). UTRP
//! breaks that with three mechanisms:
//!
//! 1. **Re-seeding** (Alg. 6): after *every* slot that receives a reply,
//!    the remaining tags are re-announced a shrunken frame — the number
//!    of slots left — with the next nonce from a server-committed
//!    sequence. No reader can predict where the next reply lands, so
//!    split readers must synchronize after every reply to stay
//!    consistent.
//! 2. **Hardware counters** (Alg. 7): every tag mixes a monotone counter
//!    `ct` into its hash and increments it on *every* announcement it
//!    hears. Scanning twice, or rewinding to re-seed "backwards"
//!    (Fig. 3), changes every subsequent slot choice — detectably.
//! 3. **A response deadline** (§5.4): bounds how many synchronizations
//!    the colluders can afford (see [`crate::timer`]).
//!
//! ### Counter semantics
//!
//! The paper leaves one detail open: whether a tag that has already
//! replied keeps counting later announcements. We model **yes** — a
//! powered tag in range hears every announcement — so after a round
//! every in-range tag's counter has advanced by the same amount (the
//! announcement count), and the server's mirror stays predictable.
//! Out-of-range (stolen) tags hear nothing and desynchronize, which is
//! precisely what makes their later reintroduction detectable.
//!
//! ### One engine, one oracle
//!
//! Both sides of the protocol run the round on one struct-of-arrays
//! engine, [`RoundScratch`]: the reader over the physical population
//! ([`run_honest_reader`]) and the server over its registry mirror
//! ([`expected_round`], [`attributed_round`]) — the paper's
//! determinism argument made executable. Its oracle is
//! [`run_device_round`](crate::faulty::run_device_round), which plays
//! the round slot by slot on the tag state machines of
//! `tagwatch-sim` (on an ideal channel with an empty fault plan, it
//! draws no random numbers); the differential tests here and in
//! [`crate::engine`] hold the engine to it.

use rand::Rng;

use tagwatch_obs::Obs;
use tagwatch_sim::{Counter, FrameSize, SimDuration, TagId, TagPopulation, TimingModel};

use crate::bitstring::Bitstring;
use crate::engine::{RoundEngine, RoundScratch};
use crate::error::CoreError;
use crate::nonce::NonceSequence;
use crate::timer::ResponseTimer;

/// A single-use UTRP challenge: frame size, the pre-committed nonce
/// sequence `(r₁, …, r_f)`, and the response timer.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UtrpChallenge {
    frame: FrameSize,
    nonces: NonceSequence,
    timer: ResponseTimer,
}

impl UtrpChallenge {
    /// Creates a challenge from parts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] if the nonce sequence is
    /// shorter than the frame (a protocol-following round can consume up
    /// to `f` nonces).
    pub fn new(
        frame: FrameSize,
        nonces: NonceSequence,
        timer: ResponseTimer,
    ) -> Result<Self, CoreError> {
        if (nonces.len() as u64) < frame.get() {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "utrp needs {} nonces for a {} frame, got {}",
                    frame.get(),
                    frame,
                    nonces.len()
                ),
            });
        }
        Ok(UtrpChallenge {
            frame,
            nonces,
            timer,
        })
    }

    /// Draws a fresh challenge for frame `f` under `timing`.
    pub fn generate<R: Rng + ?Sized>(f: FrameSize, timing: &TimingModel, rng: &mut R) -> Self {
        UtrpChallenge {
            frame: f,
            nonces: NonceSequence::for_frame(f, rng),
            timer: ResponseTimer::for_frame(timing, f),
        }
    }

    /// The frame size.
    #[must_use]
    pub fn frame_size(&self) -> FrameSize {
        self.frame
    }

    /// The committed nonce sequence.
    #[must_use]
    pub fn nonces(&self) -> &NonceSequence {
        &self.nonces
    }

    /// The response timer.
    #[must_use]
    pub fn timer(&self) -> ResponseTimer {
        self.timer
    }
}

/// One tag's view in a UTRP round simulation: identity, current counter,
/// and whether it is mute (detuned — hears announcements, never replies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UtrpParticipant {
    /// The tag's ID.
    pub id: TagId,
    /// The tag's counter *before* the round.
    pub counter: Counter,
    /// Whether the tag is present but unable to reply.
    pub mute: bool,
}

impl UtrpParticipant {
    /// A healthy participant.
    #[must_use]
    pub fn new(id: TagId, counter: Counter) -> Self {
        UtrpParticipant {
            id,
            counter,
            mute: false,
        }
    }
}

/// The deterministic result of a UTRP round over a known set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundOutcome {
    /// The occupancy bitstring `bs` (length = frame size).
    pub bitstring: Bitstring,
    /// How many `(f, r)` announcements were made (1 + re-seeds); every
    /// in-range tag's counter advanced by exactly this amount.
    pub announcements: u64,
}

/// What an honest reader returns to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtrpResponse {
    /// The assembled bitstring.
    pub bitstring: Bitstring,
    /// Total scanning time under the round's timing model.
    pub elapsed: SimDuration,
    /// Announcements made ( = 1 + re-seeds).
    pub announcements: u64,
}

/// Runs an honest reader against the physical population: simulates the
/// round, advances every in-range tag's hardware counter, and bills the
/// scanning time under `timing`.
///
/// ```rust
/// use rand::SeedableRng;
/// use tagwatch_core::utrp::{run_honest_reader, UtrpChallenge};
/// use tagwatch_sim::{FrameSize, TagPopulation, TimingModel};
///
/// # fn main() -> Result<(), tagwatch_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let timing = TimingModel::gen2();
/// let challenge = UtrpChallenge::generate(FrameSize::new(64)?, &timing, &mut rng);
///
/// let mut floor = TagPopulation::with_sequential_ids(20);
/// let response = run_honest_reader(&mut floor, &challenge, &timing)?;
/// assert_eq!(response.bitstring.len(), 64);
/// // The deadline is calibrated so honest rounds always pass.
/// assert!(challenge.timer().accepts(response.elapsed));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`RoundScratch::run`] errors.
pub fn run_honest_reader(
    population: &mut TagPopulation,
    challenge: &UtrpChallenge,
    timing: &TimingModel,
) -> Result<UtrpResponse, CoreError> {
    let mut scratch = RoundScratch::new();
    run_honest_reader_scratch(
        population,
        challenge,
        timing,
        &mut scratch,
        &Obs::disabled(),
    )
}

/// [`run_honest_reader`] through a caller-owned [`RoundEngine`]: the
/// population is loaded straight into the engine's arrays (no
/// intermediate participant `Vec`), and the only per-round allocation
/// left is the response bitstring itself — the owned artifact handed
/// to the server. [`crate::RoundExecutor`] runs its faultless rounds
/// here.
///
/// With `obs` enabled the round runs through
/// [`RoundEngine::run_observed`], so probe and candidate-filter totals
/// land in the registry; a disabled `obs` runs [`RoundEngine::run`].
/// The round result is bit-identical either way.
///
/// # Errors
///
/// Propagates round-simulation errors.
pub(crate) fn run_honest_reader_scratch<E: RoundEngine>(
    population: &mut TagPopulation,
    challenge: &UtrpChallenge,
    timing: &TimingModel,
    scratch: &mut E,
    obs: &Obs,
) -> Result<UtrpResponse, CoreError> {
    scratch.load_population(population);
    let (f, nonces) = (challenge.frame_size(), challenge.nonces());
    let announcements = if obs.enabled() {
        scratch.run_observed(f, nonces, obs)?
    } else {
        scratch.run(f, nonces)?
    };
    for tag in population.iter_mut() {
        tag.advance_counter(announcements);
    }
    let outcome = RoundOutcome {
        bitstring: scratch.bitstring().clone(),
        announcements,
    };
    Ok(UtrpResponse {
        elapsed: round_duration(timing, &outcome),
        bitstring: outcome.bitstring,
        announcements,
    })
}

/// Scanning time of a round under `timing`: one frame announcement per
/// (re-)seed, plus each slot's broadcast and body (occupied slots carry
/// a presence burst).
#[must_use]
pub fn round_duration(timing: &TimingModel, outcome: &RoundOutcome) -> SimDuration {
    let slots = outcome.bitstring.len() as u64;
    let occupied = outcome.bitstring.count_ones() as u64;
    timing.frame_announce * outcome.announcements
        + timing.slot_broadcast * slots
        + timing.presence_reply * occupied
        + timing.empty_slot * (slots - occupied)
}

/// The server-side prediction: what an intact set with the given
/// counter mirror must return, plus the announcement count to advance
/// the mirror by on success. Does not mutate the registry view.
///
/// # Errors
///
/// Propagates [`RoundScratch::run`] errors.
pub fn expected_round(
    registry: &[(TagId, Counter)],
    challenge: &UtrpChallenge,
) -> Result<RoundOutcome, CoreError> {
    let mut scratch = RoundScratch::new();
    scratch.load_pairs(registry.iter().copied());
    let announcements = scratch.run(challenge.frame_size(), challenge.nonces())?;
    Ok(RoundOutcome {
        bitstring: scratch.take_bitstring(),
        announcements,
    })
}

/// Like [`expected_round`], but also attributes every occupied slot to
/// the registry tags predicted to reply there (colliding tags share a
/// slot). The attribution is what lets the server turn "slot 17 was
/// expected occupied but came back empty" into "tags {a, b} did not
/// show where predicted" during desync diagnosis.
///
/// # Errors
///
/// Propagates [`RoundScratch::run`] errors.
pub fn attributed_round(
    registry: &[(TagId, Counter)],
    challenge: &UtrpChallenge,
) -> Result<(RoundOutcome, Vec<Vec<TagId>>), CoreError> {
    let f = challenge.frame_size();
    let mut attribution: Vec<Vec<TagId>> = vec![Vec::new(); f.as_usize()];
    let mut scratch = RoundScratch::new();
    scratch.load_pairs(registry.iter().copied());
    let announcements = scratch.run_attributed_with(f, challenge.nonces(), |slot, members| {
        attribution[slot as usize] = members.iter().map(|&i| registry[i as usize].0).collect();
    })?;
    Ok((
        RoundOutcome {
            bitstring: scratch.take_bitstring(),
            announcements,
        },
        attribution,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::device_round_over;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn challenge(f: u64, seed: u64) -> UtrpChallenge {
        let mut rng = StdRng::seed_from_u64(seed);
        UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng)
    }

    fn participants(n: u64) -> Vec<UtrpParticipant> {
        (1..=n)
            .map(|i| UtrpParticipant::new(TagId::from(i), Counter::ZERO))
            .collect()
    }

    /// One round on the engine, loaded directly, with every counter
    /// advanced by the announcement count as each caller does.
    fn engine_round(parts: &mut [UtrpParticipant], ch: &UtrpChallenge) -> RoundOutcome {
        let mut scratch = RoundScratch::new();
        scratch.load_participants(parts);
        let announcements = scratch.run(ch.frame_size(), ch.nonces()).unwrap();
        for p in parts.iter_mut() {
            p.counter = Counter::new(p.counter.get().wrapping_add(announcements));
        }
        RoundOutcome {
            bitstring: scratch.take_bitstring(),
            announcements,
        }
    }

    /// Tags `1..=n` with counter `i % ct_mod`, mute when
    /// `i % mute_mod == 0`.
    fn modular_parts(n: u64, ct_mod: u64, mute_mod: u64) -> Vec<UtrpParticipant> {
        (1..=n)
            .map(|i| {
                let mut p = UtrpParticipant::new(TagId::from(i), Counter::new(i % ct_mod));
                p.mute = i % mute_mod == 0;
                p
            })
            .collect()
    }

    /// A fresh sequential population of `n` tags with `detuned` of them
    /// detuned at random under `seed`, as round participants.
    fn population_parts(n: usize, detuned: usize, seed: u64) -> Vec<UtrpParticipant> {
        let mut pop = TagPopulation::with_sequential_ids(n);
        pop.detune_random(detuned, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        pop.iter()
            .map(|t| UtrpParticipant {
                id: t.id(),
                counter: t.counter(),
                mute: t.is_detuned(),
            })
            .collect()
    }

    /// Holds the engine to the slot-by-slot device oracle on each
    /// `(participants, f, seed)` input: bitstring, announcement count,
    /// and every final counter.
    fn assert_engine_matches_device(cases: Vec<(Vec<UtrpParticipant>, u64, u64)>) {
        for (mut parts, f_raw, seed) in cases {
            let ch = challenge(f_raw, seed);
            let n = parts.len();
            let mut device = parts.clone();
            let expected = device_round_over(&mut device, &ch);
            let got = engine_round(&mut parts, &ch);
            assert_eq!(got, expected, "outcome diverged for n={n} f={f_raw}");
            assert_eq!(parts, device, "counters diverged for n={n} f={f_raw}");
        }
    }

    #[test]
    fn engine_rounds_match_the_device_oracle() {
        // Across population shapes: modular counters with mute tags,
        // and fresh populations with detuned tags.
        assert_engine_matches_device(vec![
            (modular_parts(1, 7, 11), 8, 1),
            (modular_parts(10, 7, 11), 16, 2),
            (modular_parts(50, 7, 11), 50, 3),
            (modular_parts(100, 7, 11), 300, 4),
            (modular_parts(200, 7, 11), 150, 5), // more tags than slots: dense collisions
            (population_parts(1, 0, 11), 8, 11),
            (population_parts(25, 0, 12), 60, 12),
            (population_parts(80, 8, 13), 200, 13),
            (population_parts(150, 0, 14), 120, 14), // denser than the frame
        ]);
    }

    #[test]
    fn large_population_rounds_match_the_device_oracle() {
        // The SoA engine at the scales it was built for. Frames are
        // kept modest so the O(n·f) device oracle stays tractable;
        // density (n ≫ f) maximizes collisions, sub-frame churn, and
        // swap-remove traffic — the paths most likely to diverge.
        assert_engine_matches_device(vec![
            (modular_parts(10_000, 23, 17), 256, 21),
            (modular_parts(100_000, 23, 17), 64, 22),
            (population_parts(10_000, 500, 31), 256, 31),
            (population_parts(100_000, 5_000, 32), 64, 32),
        ]);
    }

    #[test]
    fn round_is_deterministic() {
        let ch = challenge(128, 1);
        let mut a = participants(50);
        let mut b = participants(50);
        let ra = engine_round(&mut a, &ch);
        let rb = engine_round(&mut b, &ch);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn server_prediction_matches_honest_reader() {
        // The protocol's core property: with an intact set and synced
        // counters, the field bitstring equals the registry prediction.
        let ch = challenge(256, 2);
        let mut pop = TagPopulation::with_sequential_ids(100);
        let registry: Vec<(TagId, Counter)> = pop.iter().map(|t| (t.id(), t.counter())).collect();

        let expected = expected_round(&registry, &ch).unwrap();
        let response = run_honest_reader(&mut pop, &ch, &TimingModel::gen2()).unwrap();

        assert_eq!(response.bitstring, expected.bitstring);
        assert_eq!(response.announcements, expected.announcements);
        // Every tag's counter advanced by the announcement count.
        assert!(pop
            .iter()
            .all(|t| t.counter().get() == expected.announcements));
    }

    #[test]
    fn every_participant_replies_exactly_once_into_bs() {
        // With an ideal channel each tag claims one slot; collisions
        // merge claims, so occupied slots ≤ n and > 0 for n > 0.
        let ch = challenge(512, 3);
        let mut parts = participants(64);
        let outcome = engine_round(&mut parts, &ch);
        let ones = outcome.bitstring.count_ones();
        assert!(ones > 0 && ones <= 64, "ones = {ones}");
    }

    #[test]
    fn announcements_equal_reply_slots_plus_one_except_last_slot_edge() {
        let ch = challenge(256, 4);
        let mut parts = participants(40);
        let outcome = engine_round(&mut parts, &ch);
        let reply_slots = outcome.bitstring.count_ones() as u64;
        // One initial announcement + one re-seed per reply slot, minus
        // one if the final slot replied (no slots remain to re-seed).
        let last_replied = outcome.bitstring.get(outcome.bitstring.len() - 1).unwrap();
        let expected = 1 + reply_slots - u64::from(last_replied);
        assert_eq!(outcome.announcements, expected);
    }

    #[test]
    fn counters_desynchronize_missing_tags() {
        // Stolen tags hear nothing: their counters stay put while the
        // field advances — the server's mirror exposes them next round.
        let ch = challenge(128, 5);
        let mut pop = TagPopulation::with_sequential_ids(30);
        let mut rng = StdRng::seed_from_u64(9);
        let stolen = pop.split_random(5, &mut rng).unwrap();
        run_honest_reader(&mut pop, &ch, &TimingModel::gen2()).unwrap();
        assert!(pop.iter().all(|t| t.counter().get() > 0));
        assert!(stolen.iter().all(|t| t.counter().get() == 0));
    }

    #[test]
    fn mute_participants_never_occupy_slots_but_count_announcements() {
        let ch = challenge(64, 6);
        let mut parts = participants(10);
        for p in &mut parts {
            p.mute = true;
        }
        let outcome = engine_round(&mut parts, &ch);
        assert_eq!(outcome.bitstring.count_ones(), 0);
        assert_eq!(outcome.announcements, 1);
        assert!(parts.iter().all(|p| p.counter.get() == 1));
    }

    #[test]
    fn missing_tags_change_the_bitstring_with_high_probability() {
        let mut detected = 0;
        let trials = 200;
        for seed in 0..trials {
            let ch = challenge(300, 1000 + seed);
            let full: Vec<(TagId, Counter)> = (1..=100u64)
                .map(|i| (TagId::from(i), Counter::ZERO))
                .collect();
            let expected = expected_round(&full, &ch).unwrap();

            let mut rng = StdRng::seed_from_u64(seed);
            let mut pop = TagPopulation::with_sequential_ids(100);
            pop.split_random(6, &mut rng).unwrap();
            let response = run_honest_reader(&mut pop, &ch, &TimingModel::gen2()).unwrap();
            if response.bitstring != expected.bitstring {
                detected += 1;
            }
        }
        // f = 300 for n = 100 is generous; detection should be near 1.
        assert!(detected as f64 / trials as f64 > 0.95);
    }

    #[test]
    fn stale_counters_change_the_bitstring() {
        // A desynced mirror (e.g. after an unverified scan) must not
        // silently verify: predictions with wrong counters diverge.
        let ch = challenge(256, 7);
        let synced: Vec<(TagId, Counter)> = (1..=50u64)
            .map(|i| (TagId::from(i), Counter::ZERO))
            .collect();
        let stale: Vec<(TagId, Counter)> = (1..=50u64)
            .map(|i| (TagId::from(i), Counter::new(3)))
            .collect();
        let a = expected_round(&synced, &ch).unwrap();
        let b = expected_round(&stale, &ch).unwrap();
        assert_ne!(a.bitstring, b.bitstring);
    }

    #[test]
    fn challenge_validates_nonce_length() {
        let f = FrameSize::new(10).unwrap();
        let short = NonceSequence::generate(9, &mut StdRng::seed_from_u64(0));
        let timer = ResponseTimer::for_frame(&TimingModel::gen2(), f);
        assert!(matches!(
            UtrpChallenge::new(f, short, timer),
            Err(CoreError::InvalidParams { .. })
        ));
    }

    #[test]
    fn honest_reader_meets_the_deadline() {
        // The timer is calibrated so an honest reader always passes.
        let ch = challenge(200, 8);
        let mut pop = TagPopulation::with_sequential_ids(150);
        let response = run_honest_reader(&mut pop, &ch, &TimingModel::gen2()).unwrap();
        assert!(
            ch.timer().accepts(response.elapsed),
            "honest elapsed {} exceeds deadline {}",
            response.elapsed,
            ch.timer().deadline()
        );
    }

    #[test]
    fn single_slot_frame_works() {
        let ch = challenge(1, 9);
        let mut parts = participants(3);
        let outcome = engine_round(&mut parts, &ch);
        assert_eq!(outcome.bitstring.len(), 1);
        assert!(outcome.bitstring.get(0).unwrap());
        assert_eq!(outcome.announcements, 1);
    }

    #[test]
    fn empty_participant_list_yields_all_zero_bs() {
        let ch = challenge(32, 10);
        let mut parts: Vec<UtrpParticipant> = Vec::new();
        let outcome = engine_round(&mut parts, &ch);
        assert_eq!(outcome.bitstring.count_ones(), 0);
        assert_eq!(outcome.announcements, 1);
    }

    #[test]
    fn attributed_round_matches_expected_round() {
        let mut rng = StdRng::seed_from_u64(51);
        let ch =
            UtrpChallenge::generate(FrameSize::new(120).unwrap(), &TimingModel::gen2(), &mut rng);
        let registry: Vec<(TagId, Counter)> = (1..=40u64)
            .map(|i| (TagId::from(i), Counter::new(i * 3)))
            .collect();
        let expected = expected_round(&registry, &ch).unwrap();
        let (outcome, attribution) = attributed_round(&registry, &ch).unwrap();
        assert_eq!(outcome, expected);
        assert_eq!(attribution.len(), 120);
        // A slot is occupied iff it has attributed repliers, and every
        // non-mute tag replies exactly once.
        let mut seen: Vec<TagId> = Vec::new();
        for (slot, tags) in attribution.iter().enumerate() {
            assert_eq!(outcome.bitstring.get(slot).unwrap(), !tags.is_empty());
            seen.extend_from_slice(tags);
        }
        seen.sort_unstable();
        let mut all: Vec<TagId> = registry.iter().map(|&(id, _)| id).collect();
        all.sort_unstable();
        assert_eq!(seen, all);
    }

    #[test]
    fn round_duration_accounts_announcements_and_bodies() {
        let timing = TimingModel::gen2();
        let outcome = RoundOutcome {
            bitstring: Bitstring::from_bools(&[true, false, true, false]),
            announcements: 3,
        };
        let d = round_duration(&timing, &outcome);
        let expected = timing.frame_announce * 3
            + timing.slot_broadcast * 4
            + timing.presence_reply * 2
            + timing.empty_slot * 2;
        assert_eq!(d, expected);
    }
}
