//! Fault-aware UTRP round execution.
//!
//! The engines in [`crate::utrp`] assume the paper's ideal model:
//! every tag hears every announcement, every reply reaches the reader,
//! and the reader survives the whole frame. This module runs the same
//! round under a lossy channel ([`Channel`]) and/or a scripted
//! [`FaultPlan`], covering the failure modes a deployment faces:
//!
//! * **uplink reply loss** (probabilistic per reply, or scripted per
//!   slot) — the tags transmitted and stay silent afterwards, but the
//!   reader neither records the bit nor re-seeds;
//! * **downlink announcement loss** (probabilistic per tag, or
//!   scripted) — the tag's counter stops advancing and it keeps the
//!   reply slot from the last announcement it heard: the canonical
//!   counter-desynchronization source;
//! * **phantom replies** — interference reads as an occupied slot,
//!   triggering a spurious re-seed every real tag still counts;
//! * **reader crash** — announcements and listening stop mid-frame;
//! * **response truncation** and **clock skew** — transport-level
//!   corruption of what the server receives.
//!
//! Two bodies run such a round, and neither asks whether the channel
//! or the plan can alter anything:
//!
//! * a count-based engine, which [`RoundExecutor`](crate::RoundExecutor)
//!   runs when its channel or plan can alter a round — the executor is
//!   the one place that chooses between it and the faultless engine;
//! * [`run_device_round`], the UTRP oracle, which plays the round slot
//!   by slot on the tag state machines. An ideal channel draws no
//!   random numbers and an empty plan scripts nothing, so on ideal
//!   inputs it is the paper's round, and every UTRP engine is tested
//!   against it.

use rand::Rng;

use tagwatch_sim::hash::mix64;
use tagwatch_sim::tag::SlotMode;
use tagwatch_sim::{
    Channel, FastMod, FaultInjector, FaultPlan, FrameSize, TagPopulation, TimingModel,
};

use crate::bitstring::Bitstring;
use crate::error::CoreError;
use crate::nonce::NonceSequence;
use crate::utrp::{round_duration, RoundOutcome, UtrpChallenge, UtrpParticipant, UtrpResponse};

/// Runs one UTRP round over `participants` under `channel` and `plan`,
/// advancing each participant's counter by the announcements *it
/// actually heard* (faults make counters diverge per tag, unlike the
/// uniform advance of [`crate::utrp::simulate_round`]).
///
/// The returned [`RoundOutcome`]'s `announcements` counts what the
/// *reader* broadcast; individual tags may have heard fewer.
///
/// Each tag keeps the absolute slot it will transmit in, by its own
/// view of the frame, and each slot the number of tags that will
/// transmit there. A tag has transmitted exactly when the reader has
/// resolved its slot, so an announcement reschedules the tags whose slot
/// lies at or after the sub-frame it opens (moving their counts), and
/// the reader resolves each slot on the channel from its count. Tags
/// that miss an announcement keep their counter and their slot.
///
/// # Errors
///
/// Returns [`CoreError::NonceSequenceExhausted`] if the sequence is too
/// short, and propagates invalid fault-plan/channel scalars as
/// [`CoreError::InvalidParams`].
pub(crate) fn simulate_round_with<R: Rng + ?Sized>(
    participants: &mut [UtrpParticipant],
    f: FrameSize,
    nonces: &NonceSequence,
    channel: &Channel,
    plan: &FaultPlan,
    rng: &mut R,
) -> Result<RoundOutcome, CoreError> {
    validate(plan)?;
    let total = f.get();
    let downlink_loss = channel.config().downlink_loss_prob;
    let mut bs = Bitstring::zeros(f.as_usize());
    let mut cursor = nonces.cursor();
    let mut injector = FaultInjector::new(plan);
    let folded: Vec<u64> = participants.iter().map(|p| p.id.fold64()).collect();
    // Absolute slot each tag will transmit in (UNHEARD until it hears an
    // announcement; a mute tag never has one), and transmissions per slot.
    let mut scheduled = vec![UNHEARD; participants.len()];
    let mut transmitters = vec![0u32; f.as_usize()];

    // Announcement `idx` opens the sub-frame [start, total).
    let mut start = 0u64;
    loop {
        let r = cursor.next_nonce()?.as_u64();
        let idx = injector.next_announcement();
        let deaf = plan.missed_by(idx);
        let frame = FastMod::from_divisor(total - start);
        for (i, p) in participants.iter_mut().enumerate() {
            if deaf.is_some_and(|tags| tags.contains(&p.id))
                || (downlink_loss > 0.0 && rng.gen_bool(downlink_loss))
            {
                continue;
            }
            p.counter.increment();
            let old = scheduled[i];
            if p.mute || old < start {
                continue; // never replies, or already transmitted
            }
            if old != UNHEARD {
                transmitters[old as usize] -= 1;
            }
            let slot = start + frame.rem(mix64(folded[i] ^ r ^ mix64(p.counter.get())));
            scheduled[i] = slot;
            transmitters[slot as usize] += 1;
        }

        // Listen up to the next occupied slot, which triggers the next
        // announcement unless it ends the frame or the reader crashes.
        let mut global = start;
        loop {
            let count = if plan.reply_lost_at(global) {
                0
            } else {
                transmitters[global as usize]
            };
            let occupied = channel.resolve_slot(count as usize, rng).is_occupied();
            if occupied {
                bs.insert(global as usize);
            }
            // A crashed reader makes no further announcements and hears
            // nothing more: bits past this point stay 0 and tags freeze
            // at their current counters.
            if injector.crashed_after(global) || global + 1 == total {
                return Ok(RoundOutcome {
                    bitstring: bs,
                    announcements: injector.announcements(),
                });
            }
            global += 1;
            if occupied {
                break;
            }
        }
        start = global;
    }
}

/// The slot of a tag that has heard no announcement yet.
const UNHEARD: u64 = u64::MAX;

/// `bs` cut to the plan's scripted truncation length, if that is
/// shorter.
pub(crate) fn truncated(bs: Bitstring, plan: &FaultPlan) -> Bitstring {
    match plan.truncation() {
        Some(len) if (len as usize) < bs.len() => {
            Bitstring::from_bools(&bs.to_bools()[..len as usize])
        }
        _ => bs,
    }
}

/// Rejects a plan with invalid scalars.
pub(crate) fn validate(plan: &FaultPlan) -> Result<(), CoreError> {
    plan.validate().map_err(|e| CoreError::InvalidParams {
        reason: format!("invalid fault plan: {e}"),
    })
}

/// Shapes a raw round outcome into the response the server receives:
/// truncates the bitstring and skews the elapsed clock as scripted.
fn shape_response(outcome: RoundOutcome, timing: &TimingModel, plan: &FaultPlan) -> UtrpResponse {
    UtrpResponse {
        elapsed: plan.skewed(round_duration(timing, &outcome)),
        bitstring: truncated(outcome.bitstring, plan),
        announcements: outcome.announcements,
    }
}

/// The honest reader under a lossy channel and scripted faults: runs
/// the round via [`simulate_round_with`], advances each field tag's
/// counter by the announcements it actually heard, and applies
/// response-level faults (truncation, clock skew) to what the server
/// will see. [`crate::RoundExecutor`] runs its fault-aware rounds here.
///
/// # Errors
///
/// Propagates [`simulate_round_with`] errors.
pub(crate) fn run_honest_reader_with<R: Rng + ?Sized>(
    population: &mut TagPopulation,
    challenge: &UtrpChallenge,
    timing: &TimingModel,
    channel: &Channel,
    plan: &FaultPlan,
    rng: &mut R,
) -> Result<UtrpResponse, CoreError> {
    let mut participants: Vec<UtrpParticipant> = population
        .iter()
        .map(|t| UtrpParticipant {
            id: t.id(),
            counter: t.counter(),
            mute: t.is_detuned(),
        })
        .collect();
    let outcome = simulate_round_with(
        &mut participants,
        challenge.frame_size(),
        challenge.nonces(),
        channel,
        plan,
        rng,
    )?;
    for (tag, part) in population.iter_mut().zip(&participants) {
        tag.advance_counter(part.counter.get().wrapping_sub(tag.counter().get()));
    }
    Ok(shape_response(outcome, timing, plan))
}

/// The UTRP oracle: runs one honest round over `population` under
/// `channel` and `plan` by driving the actual [`tagwatch_sim::Tag`]
/// state machines (Alg. 7) slot by slot, and returns the response the
/// server would receive.
///
/// Each announcement reaches every tag that hears it (`on_frame`
/// advances its counter and picks its slot); the reader then polls
/// every tag that has not replied yet, slot after slot, and decodes
/// each slot's replies on the channel. A tag that missed announcements
/// keeps the slot it picked at the last one it heard, so each tag is
/// polled against the start of that announcement's sub-frame. Mute
/// (detuned) tags hear announcements but never answer; stolen tags are
/// simply absent from `population`.
///
/// On an ideal channel with an empty plan this is the paper's round
/// and consumes no randomness. Under the same seed it agrees exactly
/// with every UTRP engine: [`crate::engine::RoundScratch`] on ideal
/// inputs, and the fault-aware count-based engine behind
/// [`crate::RoundExecutor`] on any (the property
/// `unified_executor_agrees_with_both_legacy_fault_engines` in
/// `tests/failure_injection.rs` pins the latter).
///
/// # Errors
///
/// Propagates [`CoreError::NonceSequenceExhausted`] on a malformed
/// challenge and invalid fault-plan scalars as
/// [`CoreError::InvalidParams`].
pub fn run_device_round<R: Rng + ?Sized>(
    population: &mut TagPopulation,
    challenge: &UtrpChallenge,
    timing: &TimingModel,
    channel: &Channel,
    plan: &FaultPlan,
    rng: &mut R,
) -> Result<UtrpResponse, CoreError> {
    validate(plan)?;
    let total = challenge.frame_size().get();
    let downlink_loss = channel.config().downlink_loss_prob;
    let mut bs = Bitstring::zeros(challenge.frame_size().as_usize());
    let mut cursor = challenge.nonces().cursor();
    let mut injector = FaultInjector::new(plan);
    // Per tag, in population order: the sub-frame start of the last
    // announcement it heard (`None` until it hears one), and whether it
    // has replied.
    let mut heard_at: Vec<Option<u64>> = vec![None; population.len()];
    let mut replied = vec![false; population.len()];
    // One slot's replies, and the scratch the channel decodes them in.
    let mut transmissions = Vec::new();
    let mut kept = Vec::new();

    // Announcement `idx` opens the sub-frame [start, total).
    let mut start = 0u64;
    loop {
        let r = cursor.next_nonce()?;
        let idx = injector.next_announcement();
        let f_sub = FrameSize::new(total - start)?;
        for (tag, heard) in population.iter_mut().zip(&mut heard_at) {
            if injector.hears(idx, tag.id())
                && !(downlink_loss > 0.0 && rng.gen_bool(downlink_loss))
            {
                tag.on_frame(f_sub, r, SlotMode::Counted);
                *heard = Some(start);
            }
        }

        // Poll slot after slot up to the next occupied one, which
        // triggers the next announcement unless it ends the frame or
        // the reader crashes.
        let mut global = start;
        loop {
            transmissions.clear();
            for ((tag, heard), done) in population.iter_mut().zip(&heard_at).zip(&mut replied) {
                let Some(from) = *heard else {
                    continue; // never heard an announcement; stays silent
                };
                if *done {
                    continue;
                }
                if let Some(reply) = tag.on_slot(global - from, false) {
                    *done = true;
                    transmissions.push(reply);
                }
            }
            if plan.reply_lost_at(global) {
                transmissions.clear();
            }
            let occupied = channel
                .decode_slot(&transmissions, &mut kept, rng)
                .is_occupied();
            if occupied {
                bs.insert(global as usize);
            }
            if injector.crashed_after(global) || global + 1 == total {
                let outcome = RoundOutcome {
                    bitstring: bs,
                    announcements: injector.announcements(),
                };
                return Ok(shape_response(outcome, timing, plan));
            }
            global += 1;
            if occupied {
                break;
            }
        }
        start = global;
    }
}

/// [`run_device_round`] over `participants` on an ideal channel with an
/// empty plan: the oracle the differential tests hold every UTRP engine
/// to. Writes the counters back, and panics if the round drew a random
/// number.
#[cfg(test)]
pub(crate) fn device_round_over(
    participants: &mut [UtrpParticipant],
    challenge: &UtrpChallenge,
) -> RoundOutcome {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::Tag;

    let mut population: TagPopulation = participants
        .iter()
        .map(|p| {
            let mut tag = Tag::with_counter(p.id, p.counter);
            tag.set_detuned(p.mute);
            tag
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(999);
    let response = run_device_round(
        &mut population,
        challenge,
        &TimingModel::gen2(),
        &Channel::ideal(),
        &FaultPlan::new(),
        &mut rng,
    )
    .unwrap();
    assert_eq!(
        rng,
        StdRng::seed_from_u64(999),
        "an ideal round drew a random number"
    );
    for (p, tag) in participants.iter_mut().zip(population.iter()) {
        p.counter = tag.counter();
    }
    RoundOutcome {
        bitstring: response.bitstring,
        announcements: response.announcements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utrp::{run_honest_reader, simulate_round};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::{ChannelConfig, Counter, TagId};

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
    fn faultless_path_is_byte_identical_and_rng_free() {
        // With all knobs at zero both fault-aware bodies run their
        // general loops, must agree with the fault-free engine exactly,
        // and never touch the RNG.
        for (n, f_raw, seed) in [(10u64, 32u64, 1u64), (60, 200, 2), (120, 90, 3)] {
            let ch = challenge(f_raw, seed);
            let mut plain = participants(n);
            let mut device = plain.clone();
            let mut faulty = plain.clone();
            let a = simulate_round(&mut plain, ch.frame_size(), ch.nonces()).unwrap();
            let b = device_round_over(&mut device, &ch);
            let mut rng = StdRng::seed_from_u64(999);
            let c = simulate_round_with(
                &mut faulty,
                ch.frame_size(),
                ch.nonces(),
                &Channel::ideal(),
                &FaultPlan::new(),
                &mut rng,
            )
            .unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
            assert_eq!(plain, device);
            assert_eq!(plain, faulty);
            assert_eq!(rng, StdRng::seed_from_u64(999), "RNG was consumed");
        }
    }

    #[test]
    fn device_and_participant_fault_paths_agree() {
        // Under the same seed, scripted faults and a lossy channel
        // produce identical bitstrings, announcement counts, and per-tag
        // counters in the count-based engine and the device oracle.
        for (n, f_raw, seed) in [(20usize, 64u64, 5u64), (50, 150, 6)] {
            let ch = challenge(f_raw, seed);
            let plan = FaultPlan::new()
                .lose_replies_at(3)
                .lose_announcement(1, [TagId::new(4), TagId::new(9)])
                .lose_announcement(2, [TagId::new(4)]);
            let channel = Channel::with_config(ChannelConfig {
                downlink_loss_prob: 0.05,
                ..ChannelConfig::default()
            })
            .unwrap();

            let mut pop = TagPopulation::with_sequential_ids(n);
            let mut parts: Vec<UtrpParticipant> = pop
                .iter()
                .map(|t| UtrpParticipant {
                    id: t.id(),
                    counter: t.counter(),
                    mute: t.is_detuned(),
                })
                .collect();

            let mut rng_dev = StdRng::seed_from_u64(seed ^ 0xdead);
            let device = run_device_round(
                &mut pop,
                &ch,
                &TimingModel::gen2(),
                &channel,
                &plan,
                &mut rng_dev,
            )
            .unwrap();

            let mut rng_part = StdRng::seed_from_u64(seed ^ 0xdead);
            let part = simulate_round_with(
                &mut parts,
                ch.frame_size(),
                ch.nonces(),
                &channel,
                &plan,
                &mut rng_part,
            )
            .unwrap();

            assert_eq!(device.bitstring, part.bitstring, "n={n} f={f_raw}");
            assert_eq!(device.announcements, part.announcements);
            for (tag, p) in pop.iter().zip(parts.iter()) {
                assert_eq!(tag.counter(), p.counter, "counter of {}", tag.id());
            }
        }
    }

    #[test]
    fn scripted_reply_loss_clears_the_slot_and_silences_the_tags() {
        // Blacking out the first occupied slot: the reader records
        // nothing there and never re-seeds for it, and the transmitting
        // tags stay silent for the rest of the round.
        let ch = challenge(64, 7);
        let mut baseline = participants(12);
        let base_out = simulate_round(&mut baseline, ch.frame_size(), ch.nonces()).unwrap();
        let first = base_out.bitstring.iter_ones().next().unwrap() as u64;

        let plan = FaultPlan::new().lose_replies_at(first);
        let mut parts = participants(12);
        let mut rng = StdRng::seed_from_u64(0);
        let out = simulate_round_with(
            &mut parts,
            ch.frame_size(),
            ch.nonces(),
            &Channel::ideal(),
            &plan,
            &mut rng,
        )
        .unwrap();
        assert!(!out.bitstring.get(first as usize).unwrap());
        // At least one tag transmitted into the void and stays silent,
        // so the round records at most n - 1 occupied slots.
        assert!(out.bitstring.count_ones() <= 11);
    }

    #[test]
    fn missed_announcement_freezes_the_counter() {
        let ch = challenge(64, 8);
        let victim = TagId::new(3);
        // Victim misses every announcement: counter never advances.
        let plan = (0..64).fold(FaultPlan::new(), |p, a| p.lose_announcement(a, [victim]));
        let mut parts = participants(10);
        let mut rng = StdRng::seed_from_u64(0);
        let out = simulate_round_with(
            &mut parts,
            ch.frame_size(),
            ch.nonces(),
            &Channel::ideal(),
            &plan,
            &mut rng,
        )
        .unwrap();
        for p in &parts {
            if p.id == victim {
                assert_eq!(p.counter, Counter::ZERO);
            } else {
                assert_eq!(p.counter.get(), out.announcements);
            }
        }
        // The victim never heard announcement 0, so it never replied.
        assert!(out.bitstring.count_ones() < 10);
    }

    #[test]
    fn reader_crash_freezes_the_frame() {
        let ch = challenge(128, 9);
        let crash_at = 20u64;
        let plan = FaultPlan::new().crash_after_slot(crash_at);
        let mut parts = participants(40);
        let mut rng = StdRng::seed_from_u64(0);
        let out = simulate_round_with(
            &mut parts,
            ch.frame_size(),
            ch.nonces(),
            &Channel::ideal(),
            &plan,
            &mut rng,
        )
        .unwrap();
        // Bitstring keeps frame length but is empty past the crash.
        assert_eq!(out.bitstring.len(), 128);
        for slot in (crash_at as usize + 1)..128 {
            assert!(
                !out.bitstring.get(slot).unwrap(),
                "bit {slot} set after crash"
            );
        }
        // Tags froze at the announcements broadcast before the crash.
        assert!(parts.iter().all(|p| p.counter.get() == out.announcements));
        assert!(out.announcements < 40);
    }

    #[test]
    fn truncation_and_skew_shape_the_response() {
        let ch = challenge(64, 10);
        let plan = FaultPlan::new().truncate_response(10).skew_clock(3.0);
        let mut pop = TagPopulation::with_sequential_ids(10);
        let mut rng = StdRng::seed_from_u64(0);
        let timing = TimingModel::gen2();
        let faulty =
            run_honest_reader_with(&mut pop, &ch, &timing, &Channel::ideal(), &plan, &mut rng)
                .unwrap();
        assert_eq!(faulty.bitstring.len(), 10);

        let mut clean_pop = TagPopulation::with_sequential_ids(10);
        let clean = run_honest_reader(&mut clean_pop, &ch, &timing).unwrap();
        assert_eq!(faulty.elapsed.as_micros(), clean.elapsed.as_micros() * 3);
    }

    #[test]
    fn downlink_loss_desynchronizes_some_counters() {
        let ch = challenge(256, 11);
        let channel = Channel::with_config(ChannelConfig {
            downlink_loss_prob: 0.2,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut parts = participants(50);
        let mut rng = StdRng::seed_from_u64(21);
        let out = simulate_round_with(
            &mut parts,
            ch.frame_size(),
            ch.nonces(),
            &channel,
            &FaultPlan::new(),
            &mut rng,
        )
        .unwrap();
        // With 20% downlink loss and dozens of announcements, some tag
        // must have missed at least one.
        assert!(out.announcements > 5);
        assert!(
            parts.iter().any(|p| p.counter.get() < out.announcements),
            "no counter fell behind"
        );
    }
}
