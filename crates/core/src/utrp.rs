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

use rand::Rng;

use tagwatch_obs::Obs;
use tagwatch_sim::hash::slot_for_counted;
use tagwatch_sim::{Counter, FrameSize, Nonce, SimDuration, TagId, TagPopulation, TimingModel};

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

/// One reader's incremental state over a tag subset during a UTRP
/// round — the original (array-of-structs) engine, kept for the
/// collusion attack in `tagwatch-attack` and as the baseline the perf
/// harness measures the struct-of-arrays engine
/// ([`crate::engine::RoundScratch`], which now backs [`simulate_round`])
/// against.
///
/// Two observations make rounds fast without changing semantics:
///
/// 1. Within a sub-frame, only the **minimum** slot any active tag chose
///    matters — it is the first reply, which immediately triggers the
///    next re-seed. Everything before it is silence.
/// 2. Counters advance uniformly (+1 per announcement heard), so the
///    effective counter is `base + announcements` and no per-tag writes
///    are needed until the round ends.
///
/// The slot-by-slot executable specification is kept as
/// [`simulate_round_reference`]; the two are tested to agree exactly.
#[derive(Debug, Clone)]
pub struct SubsetRound {
    parts: Vec<UtrpParticipant>,
    replied: Vec<bool>,
    active: Vec<usize>,
    announcements: u64,
    next_rel: Option<u64>,
    next_members: Vec<usize>,
}

impl SubsetRound {
    /// Starts a round over the given participants (counters at their
    /// pre-round values).
    #[must_use]
    pub fn new(parts: Vec<UtrpParticipant>) -> Self {
        let active: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.mute)
            .map(|(i, _)| i)
            .collect();
        let replied = vec![false; parts.len()];
        SubsetRound {
            parts,
            replied,
            active,
            announcements: 0,
            next_rel: None,
            next_members: Vec::new(),
        }
    }

    /// Handles an `(f_sub, r)` announcement: every participant's
    /// effective counter advances, and the earliest reply slot among
    /// active participants is recomputed.
    pub fn announce(&mut self, r: Nonce, f_sub: FrameSize) {
        self.announcements += 1;
        self.next_rel = None;
        self.next_members.clear();
        for &i in &self.active {
            let p = &self.parts[i];
            let ct = Counter::new(p.counter.get().wrapping_add(self.announcements));
            let sn = slot_for_counted(p.id, r, ct, f_sub);
            match self.next_rel {
                Some(best) if sn > best => {}
                Some(best) if sn == best => self.next_members.push(i),
                _ => {
                    self.next_rel = Some(sn);
                    self.next_members.clear();
                    self.next_members.push(i);
                }
            }
        }
    }

    /// The relative slot (within the current sub-frame) of the next
    /// reply, if any active participant will reply.
    #[must_use]
    pub fn next_reply_rel(&self) -> Option<u64> {
        self.next_rel
    }

    /// Consumes the pending reply: all tags that chose the minimal slot
    /// have now answered and keep silent for the rest of the round.
    pub fn take_reply(&mut self) {
        for &i in &self.next_members {
            self.replied[i] = true;
        }
        let replied = &self.replied;
        self.active.retain(|&i| !replied[i]);
        self.next_rel = None;
        self.next_members.clear();
    }

    /// Announcements made so far.
    #[must_use]
    pub fn announcements(&self) -> u64 {
        self.announcements
    }

    /// Ends the round, returning the participants with their counters
    /// advanced by the announcement count.
    #[must_use]
    pub fn finish(mut self) -> (Vec<UtrpParticipant>, u64) {
        let announcements = self.announcements;
        for p in &mut self.parts {
            p.counter = Counter::new(p.counter.get().wrapping_add(announcements));
        }
        (self.parts, announcements)
    }
}

/// Executes one honest UTRP round (Algs. 6–7) over `participants`,
/// advancing their counters in place.
///
/// This one function is used by *both* sides of the protocol: the
/// server runs it over its registry mirror to predict `bs`, and
/// [`run_honest_reader`] runs it over the physical population — the
/// paper's determinism argument made executable.
///
/// Internally this is the struct-of-arrays sub-frame-skipping engine
/// ([`crate::engine::RoundScratch`]), operating **in place** — no
/// participant clone, no copy-back; [`simulate_round_reference`] is the
/// literal slot-by-slot form, and the two are tested to agree
/// bit-for-bit.
///
/// # Errors
///
/// Returns [`CoreError::NonceSequenceExhausted`] if the sequence is too
/// short (impossible through [`UtrpChallenge`], which validates length).
pub fn simulate_round(
    participants: &mut [UtrpParticipant],
    f: FrameSize,
    nonces: &NonceSequence,
) -> Result<RoundOutcome, CoreError> {
    let mut scratch = RoundScratch::new();
    let announcements = simulate_round_scratch(&mut scratch, participants, f, nonces)?;
    Ok(RoundOutcome {
        bitstring: scratch.take_bitstring(),
        announcements,
    })
}

/// [`simulate_round`] through a caller-owned [`RoundEngine`]
/// (typically a [`RoundScratch`], or the pooled sharded engine in
/// `tagwatch-analytics`): loads the participants into the engine's
/// arrays, runs the round, and
/// advances every participant's counter in place by the announcement
/// count. The bitstring stays in the scratch
/// ([`RoundScratch::bitstring`]) so repeated rounds allocate nothing.
///
/// # Errors
///
/// Returns [`CoreError::NonceSequenceExhausted`] if the sequence is too
/// short.
pub fn simulate_round_scratch<E: RoundEngine>(
    scratch: &mut E,
    participants: &mut [UtrpParticipant],
    f: FrameSize,
    nonces: &NonceSequence,
) -> Result<u64, CoreError> {
    scratch.load_participants(participants);
    let announcements = scratch.run(f, nonces)?;
    for p in participants.iter_mut() {
        p.counter = Counter::new(p.counter.get().wrapping_add(announcements));
    }
    Ok(announcements)
}

/// The literal slot-by-slot form of Algs. 6–7, kept as an executable
/// specification of [`simulate_round`] (which must agree exactly).
///
/// # Errors
///
/// Returns [`CoreError::NonceSequenceExhausted`] if the sequence is too
/// short.
pub fn simulate_round_reference(
    participants: &mut [UtrpParticipant],
    f: FrameSize,
    nonces: &NonceSequence,
) -> Result<RoundOutcome, CoreError> {
    let total = f.get();
    let mut bs = Bitstring::zeros(f.as_usize());
    let mut cursor = nonces.cursor();
    let mut replied = vec![false; participants.len()];
    let mut announcements = 0u64;

    // Announce (f', r): every in-range tag increments its counter;
    // un-replied, un-mute tags pick a relative slot in [0, f').
    let mut announce = |participants: &mut [UtrpParticipant],
                        replied: &[bool],
                        f_sub: FrameSize,
                        announcements: &mut u64|
     -> Result<Vec<Vec<usize>>, CoreError> {
        let r = cursor.next_nonce()?;
        *announcements += 1;
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); f_sub.as_usize()];
        for (i, p) in participants.iter_mut().enumerate() {
            p.counter.increment();
            if !replied[i] && !p.mute {
                let sn = slot_for_counted(p.id, r, p.counter, f_sub);
                buckets[sn as usize].push(i);
            }
        }
        Ok(buckets)
    };

    let mut subframe_start = 0u64;
    let mut buckets = announce(participants, &replied, f, &mut announcements)?;

    for global in 0..total {
        let rel = (global - subframe_start) as usize;
        if buckets[rel].is_empty() {
            continue;
        }
        bs.set(global as usize, true)?;
        for &i in &buckets[rel] {
            replied[i] = true;
        }
        // Alg. 6 line 6: f' = f − sn (1-based sn) = slots remaining
        // after this one. Re-seed only if any slots remain.
        let remaining = total - (global + 1);
        if remaining > 0 {
            subframe_start = global + 1;
            let f_sub = FrameSize::new(remaining)?;
            buckets = announce(participants, &replied, f_sub, &mut announcements)?;
        }
    }

    Ok(RoundOutcome {
        bitstring: bs,
        announcements,
    })
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
/// Propagates [`simulate_round`] errors.
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
/// to the server.
///
/// With `obs` enabled the round runs through
/// [`RoundEngine::run_observed`], so probe and candidate-filter totals
/// land in the registry; a disabled `obs` runs [`RoundEngine::run`].
/// The round result is bit-identical either way.
///
/// # Errors
///
/// Propagates round-simulation errors.
pub fn run_honest_reader_scratch<E: RoundEngine>(
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
    let bitstring = scratch.bitstring().clone();
    let slots = bitstring.len() as u64;
    let occupied = bitstring.count_ones() as u64;
    let elapsed = round_duration_parts(timing, slots, occupied, announcements);
    Ok(UtrpResponse {
        bitstring,
        elapsed,
        announcements,
    })
}

/// Runs one honest UTRP round by driving the **actual tag device state
/// machines** (`tagwatch_sim::Tag`, Alg. 7) slot by slot — the third
/// and lowest-level implementation of the round, completing the
/// triangle with [`simulate_round`] (fast) and
/// [`simulate_round_reference`] (participant-level spec). All three are
/// tested to agree exactly.
///
/// Mute (detuned) tags hear announcements but never answer; stolen tags
/// are simply absent from `population`.
///
/// # Errors
///
/// Propagates [`CoreError::NonceSequenceExhausted`] on a malformed
/// challenge.
pub fn run_device_round(
    population: &mut TagPopulation,
    challenge: &UtrpChallenge,
    timing: &TimingModel,
) -> Result<UtrpResponse, CoreError> {
    use tagwatch_sim::tag::SlotMode;

    let f = challenge.frame_size();
    let total = f.get();
    let mut cursor = challenge.nonces().cursor();
    let mut bs = Bitstring::zeros(f.as_usize());
    let mut announcements = 0u64;
    let mut replied: std::collections::BTreeSet<TagId> = std::collections::BTreeSet::new();

    // Broadcast (f_sub, r): every in-range tag hears it (counter++ via
    // Tag::on_frame); tags that already replied stay silent regardless.
    let mut announce = |population: &mut TagPopulation,
                        f_sub: FrameSize,
                        announcements: &mut u64|
     -> Result<Nonce, CoreError> {
        let r = cursor.next_nonce()?;
        *announcements += 1;
        for tag in population.iter_mut() {
            tag.on_frame(f_sub, r, SlotMode::Counted);
        }
        Ok(r)
    };

    let mut f_sub = f;
    let mut subframe_start = 0u64;
    announce(population, f_sub, &mut announcements)?;

    let mut global = 0u64;
    while global < total {
        let rel = global - subframe_start;
        // Poll every device for this slot (Alg. 7 lines 3–5).
        let mut any_reply = false;
        for tag in population.iter_mut() {
            if replied.contains(&tag.id()) || tag.is_detuned() {
                continue;
            }
            if tag.on_slot(rel, false).is_some() {
                any_reply = true;
                replied.insert(tag.id());
            }
        }
        if any_reply {
            bs.set(global as usize, true)?;
            let remaining = total - (global + 1);
            if remaining == 0 {
                break;
            }
            subframe_start = global + 1;
            f_sub = FrameSize::new(remaining)?;
            announce(population, f_sub, &mut announcements)?;
        }
        global += 1;
    }

    let outcome = RoundOutcome {
        bitstring: bs,
        announcements,
    };
    let elapsed = round_duration(timing, &outcome);
    Ok(UtrpResponse {
        bitstring: outcome.bitstring,
        elapsed,
        announcements,
    })
}

/// Scanning time of a round under `timing`: one frame announcement per
/// (re-)seed, plus each slot's broadcast and body (occupied slots carry
/// a presence burst).
#[must_use]
pub fn round_duration(timing: &TimingModel, outcome: &RoundOutcome) -> SimDuration {
    round_duration_parts(
        timing,
        outcome.bitstring.len() as u64,
        outcome.bitstring.count_ones() as u64,
        outcome.announcements,
    )
}

/// [`round_duration`] from its raw components, for callers that keep
/// the bitstring in a scratch buffer rather than a [`RoundOutcome`].
#[must_use]
pub fn round_duration_parts(
    timing: &TimingModel,
    slots: u64,
    occupied: u64,
    announcements: u64,
) -> SimDuration {
    let empty = slots - occupied;
    timing.frame_announce * announcements
        + timing.slot_broadcast * slots
        + timing.presence_reply * occupied
        + timing.empty_slot * empty
}

/// The server-side prediction: what an intact set with the given
/// counter mirror must return, plus the announcement count to advance
/// the mirror by on success. Does not mutate the registry view.
///
/// # Errors
///
/// Propagates [`simulate_round`] errors.
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
/// Propagates [`simulate_round`] errors.
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

    #[test]
    fn fast_round_matches_slot_by_slot_reference() {
        // The sub-frame-skipping engine must agree bit-for-bit with the
        // literal Algs. 6–7 execution — bitstring, announcement count,
        // and every final counter — across population shapes.
        for (n, f_raw, seed) in [
            (1usize, 8u64, 1u64),
            (10, 16, 2),
            (50, 50, 3),
            (100, 300, 4),
            (200, 150, 5), // more tags than slots: dense collisions
        ] {
            let ch = challenge(f_raw, seed);
            let mut fast: Vec<UtrpParticipant> = (1..=n as u64)
                .map(|i| {
                    let mut p = UtrpParticipant::new(TagId::from(i), Counter::new(i % 7));
                    p.mute = i % 11 == 0;
                    p
                })
                .collect();
            let mut reference = fast.clone();
            let a = simulate_round(&mut fast, ch.frame_size(), ch.nonces()).unwrap();
            let b = simulate_round_reference(&mut reference, ch.frame_size(), ch.nonces()).unwrap();
            assert_eq!(a, b, "outcome diverged for n={n} f={f_raw}");
            assert_eq!(fast, reference, "counters diverged for n={n} f={f_raw}");
        }
    }

    #[test]
    fn device_round_matches_fast_and_reference_paths() {
        // The full triangle: tag-device state machines == participant
        // spec == fast engine, bitstring / announcements / counters.
        for (n, f_raw, detune, seed) in [
            (1usize, 8u64, false, 11u64),
            (25, 60, false, 12),
            (80, 200, true, 13),
            (150, 120, false, 14), // denser than the frame
        ] {
            let ch = challenge(f_raw, seed);
            let mut pop = TagPopulation::with_sequential_ids(n);
            if detune {
                let mut rng = StdRng::seed_from_u64(seed);
                pop.detune_random(n / 10, &mut rng).unwrap();
            }
            let mut parts: Vec<UtrpParticipant> = pop
                .iter()
                .map(|t| UtrpParticipant {
                    id: t.id(),
                    counter: t.counter(),
                    mute: t.is_detuned(),
                })
                .collect();

            let device = run_device_round(&mut pop, &ch, &TimingModel::gen2()).unwrap();
            let fast = simulate_round(&mut parts, ch.frame_size(), ch.nonces()).unwrap();

            assert_eq!(device.bitstring, fast.bitstring, "n={n} f={f_raw}");
            assert_eq!(device.announcements, fast.announcements, "n={n} f={f_raw}");
            // Device counters advanced identically.
            for (tag, part) in pop.iter().zip(parts.iter()) {
                assert_eq!(tag.counter(), part.counter, "counter of {}", tag.id());
            }
        }
    }

    #[test]
    fn large_population_rounds_match_reference() {
        // The SoA engine at the scales it was built for. Frames are
        // kept modest so the O(n·f) reference stays debug-tractable;
        // density (n ≫ f) maximizes collisions, sub-frame churn, and
        // swap-remove traffic — the paths most likely to diverge.
        for (n, f_raw, seed) in [(10_000u64, 256u64, 21u64), (100_000, 64, 22)] {
            let ch = challenge(f_raw, seed);
            let mut fast: Vec<UtrpParticipant> = (1..=n)
                .map(|i| {
                    let mut p = UtrpParticipant::new(TagId::from(i), Counter::new(i % 23));
                    p.mute = i % 17 == 0;
                    p
                })
                .collect();
            let mut reference = fast.clone();
            let a = simulate_round(&mut fast, ch.frame_size(), ch.nonces()).unwrap();
            let b = simulate_round_reference(&mut reference, ch.frame_size(), ch.nonces()).unwrap();
            assert_eq!(a, b, "outcome diverged for n={n} f={f_raw}");
            assert_eq!(fast, reference, "counters diverged for n={n} f={f_raw}");
        }
    }

    #[test]
    fn large_population_device_rounds_match_engine() {
        // Device-state-machine parity at scale: every physical tag's
        // counter must advance exactly as the engine's uniform rule
        // predicts, including detuned (mute) tags.
        for (n, f_raw, seed) in [(10_000usize, 256u64, 31u64), (100_000, 64, 32)] {
            let ch = challenge(f_raw, seed);
            let mut pop = TagPopulation::with_sequential_ids(n);
            let mut rng = StdRng::seed_from_u64(seed);
            pop.detune_random(n / 20, &mut rng).unwrap();
            let mut parts: Vec<UtrpParticipant> = pop
                .iter()
                .map(|t| UtrpParticipant {
                    id: t.id(),
                    counter: t.counter(),
                    mute: t.is_detuned(),
                })
                .collect();

            let device = run_device_round(&mut pop, &ch, &TimingModel::gen2()).unwrap();
            let fast = simulate_round(&mut parts, ch.frame_size(), ch.nonces()).unwrap();

            assert_eq!(device.bitstring, fast.bitstring, "n={n} f={f_raw}");
            assert_eq!(device.announcements, fast.announcements, "n={n} f={f_raw}");
            for (tag, part) in pop.iter().zip(parts.iter()) {
                assert_eq!(tag.counter(), part.counter, "counter of {}", tag.id());
            }
        }
    }

    #[test]
    fn round_is_deterministic() {
        let ch = challenge(128, 1);
        let mut a = participants(50);
        let mut b = participants(50);
        let ra = simulate_round(&mut a, ch.frame_size(), ch.nonces()).unwrap();
        let rb = simulate_round(&mut b, ch.frame_size(), ch.nonces()).unwrap();
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
        let outcome = simulate_round(&mut parts, ch.frame_size(), ch.nonces()).unwrap();
        let ones = outcome.bitstring.count_ones();
        assert!(ones > 0 && ones <= 64, "ones = {ones}");
    }

    #[test]
    fn announcements_equal_reply_slots_plus_one_except_last_slot_edge() {
        let ch = challenge(256, 4);
        let mut parts = participants(40);
        let outcome = simulate_round(&mut parts, ch.frame_size(), ch.nonces()).unwrap();
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
        let outcome = simulate_round(&mut parts, ch.frame_size(), ch.nonces()).unwrap();
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
        let outcome = simulate_round(&mut parts, ch.frame_size(), ch.nonces()).unwrap();
        assert_eq!(outcome.bitstring.len(), 1);
        assert!(outcome.bitstring.get(0).unwrap());
        assert_eq!(outcome.announcements, 1);
    }

    #[test]
    fn empty_participant_list_yields_all_zero_bs() {
        let ch = challenge(32, 10);
        let mut parts: Vec<UtrpParticipant> = Vec::new();
        let outcome = simulate_round(&mut parts, ch.frame_size(), ch.nonces()).unwrap();
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

    #[test]
    fn next_reply_rel_is_the_minimal_counted_slot() {
        // The pending reply is the smallest slot any active participant
        // picks with its counter advanced by the announcement, and
        // consuming it clears the pending reply until re-announced.
        let f_sub = FrameSize::new(16).unwrap();
        let r = Nonce::new(0xdead_beef);
        let mut round = SubsetRound::new(participants(40));
        round.announce(r, f_sub);
        let best = (1..=40u64)
            .map(|i| slot_for_counted(TagId::from(i), r, Counter::new(1), f_sub))
            .min();
        assert_eq!(round.next_reply_rel(), best);
        round.take_reply();
        assert_eq!(round.next_reply_rel(), None);
    }
}
