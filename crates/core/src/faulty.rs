//! Fault-aware UTRP round execution.
//!
//! The executors in [`crate::utrp`] assume the paper's ideal model:
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
//! With an ideal channel and an empty plan, every executor here
//! delegates to its fault-free counterpart, so the outputs are
//! byte-identical and the caller's RNG is never consumed — the
//! three-implementation agreement tests in [`crate::utrp`] hold
//! unchanged.

use rand::Rng;

use tagwatch_sim::hash::mix64;
use tagwatch_sim::tag::SlotMode;
use tagwatch_sim::{
    Channel, FastMod, FaultInjector, FaultPlan, FrameSize, TagId, TagPopulation, TimingModel,
};

use crate::bitstring::Bitstring;
use crate::error::CoreError;
use crate::nonce::NonceSequence;
use crate::utrp::{
    round_duration, run_device_round, run_honest_reader, simulate_round, RoundOutcome,
    UtrpParticipant, UtrpResponse,
};

/// Whether the combination of channel and plan can alter anything.
fn is_faultless(channel: &Channel, plan: &FaultPlan) -> bool {
    channel.is_ideal() && plan.is_empty()
}

/// Runs one UTRP round over `participants` under `channel` and `plan`,
/// advancing each participant's counter by the announcements *it
/// actually heard* (faults make counters diverge per tag, unlike the
/// uniform advance of [`simulate_round`]).
///
/// With an ideal channel and empty plan this delegates to
/// [`simulate_round`] (byte-identical result, no RNG consumption).
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
pub fn simulate_round_with<R: Rng + ?Sized>(
    participants: &mut [UtrpParticipant],
    f: FrameSize,
    nonces: &NonceSequence,
    channel: &Channel,
    plan: &FaultPlan,
    rng: &mut R,
) -> Result<RoundOutcome, CoreError> {
    if is_faultless(channel, plan) {
        return simulate_round(participants, f, nonces);
    }
    plan.validate().map_err(|e| CoreError::InvalidParams {
        reason: format!("invalid fault plan: {e}"),
    })?;

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

/// Shapes a raw round outcome into the response the server receives:
/// truncates the bitstring and skews the elapsed clock as scripted.
fn shape_response(outcome: RoundOutcome, timing: &TimingModel, plan: &FaultPlan) -> UtrpResponse {
    UtrpResponse {
        elapsed: plan.skewed(round_duration(timing, &outcome)),
        bitstring: truncated(outcome.bitstring, plan),
        announcements: outcome.announcements,
    }
}

/// [`run_honest_reader`] under a lossy channel and scripted faults:
/// runs the round via [`simulate_round_with`], advances each field
/// tag's counter by the announcements it actually heard, and applies
/// response-level faults (truncation, clock skew) to what the server
/// will see.
///
/// # Errors
///
/// Propagates [`simulate_round_with`] errors.
pub fn run_honest_reader_with<R: Rng + ?Sized>(
    population: &mut TagPopulation,
    challenge: &crate::utrp::UtrpChallenge,
    timing: &TimingModel,
    channel: &Channel,
    plan: &FaultPlan,
    rng: &mut R,
) -> Result<UtrpResponse, CoreError> {
    if is_faultless(channel, plan) {
        return run_honest_reader(population, challenge, timing);
    }
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

/// [`run_device_round`] under a lossy channel and scripted faults —
/// drives the actual [`tagwatch_sim::Tag`] state machines, skipping
/// `on_frame` for tags that miss an announcement. Because a stale tag's
/// pending slot is relative to the *last announcement it heard*, the
/// loop tracks a per-tag subframe base to poll each device in its own
/// frame of reference.
///
/// Under the same seed this agrees exactly with
/// [`simulate_round_with`]; the fault-path triangle test and a property
/// over channels and plans in `tests/failure_injection.rs` assert it.
///
/// # Errors
///
/// Propagates [`CoreError::NonceSequenceExhausted`] on a malformed
/// challenge.
pub fn run_device_round_with<R: Rng + ?Sized>(
    population: &mut TagPopulation,
    challenge: &crate::utrp::UtrpChallenge,
    timing: &TimingModel,
    channel: &Channel,
    plan: &FaultPlan,
    rng: &mut R,
) -> Result<UtrpResponse, CoreError> {
    if is_faultless(channel, plan) {
        return run_device_round(population, challenge, timing);
    }
    plan.validate().map_err(|e| CoreError::InvalidParams {
        reason: format!("invalid fault plan: {e}"),
    })?;

    let f = challenge.frame_size();
    let total = f.get();
    let downlink_loss = channel.config().downlink_loss_prob;
    let mut cursor = challenge.nonces().cursor();
    let mut bs = Bitstring::zeros(f.as_usize());
    let mut injector = FaultInjector::new(plan);
    let mut replied: std::collections::BTreeSet<TagId> = std::collections::BTreeSet::new();
    // Subframe start at each tag's last heard announcement: its pending
    // slot is relative to this base.
    let mut base: std::collections::BTreeMap<TagId, u64> = std::collections::BTreeMap::new();

    let mut announce = |population: &mut TagPopulation,
                        injector: &mut FaultInjector<'_>,
                        base: &mut std::collections::BTreeMap<TagId, u64>,
                        f_sub: FrameSize,
                        subframe_start: u64,
                        rng: &mut R|
     -> Result<(), CoreError> {
        let r = cursor.next_nonce()?;
        let idx = injector.next_announcement();
        for tag in population.iter_mut() {
            let hears = injector.hears(idx, tag.id())
                && !(downlink_loss > 0.0 && rng.gen_bool(downlink_loss));
            if !hears {
                continue;
            }
            tag.on_frame(f_sub, r, SlotMode::Counted);
            base.insert(tag.id(), subframe_start);
        }
        Ok(())
    };

    let mut subframe_start = 0u64;
    announce(population, &mut injector, &mut base, f, subframe_start, rng)?;

    // The slot's replies, decoded on the channel reply by reply (the
    // count-based engine resolves the same draws from a count).
    let mut transmissions = Vec::new();
    let mut kept = Vec::new();
    for global in 0..total {
        transmissions.clear();
        for tag in population.iter_mut() {
            if replied.contains(&tag.id()) || tag.is_detuned() {
                continue;
            }
            let Some(rel) = base.get(&tag.id()).map(|&b| global - b) else {
                continue; // never heard an announcement; stays silent
            };
            if let Some(reply) = tag.on_slot(rel, false) {
                replied.insert(tag.id());
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
            bs.set(global as usize, true)?;
        }
        if injector.crashed_after(global) {
            break;
        }
        if occupied {
            let remaining = total - (global + 1);
            if remaining == 0 {
                break;
            }
            subframe_start = global + 1;
            let f_sub = FrameSize::new(remaining)?;
            announce(
                population,
                &mut injector,
                &mut base,
                f_sub,
                subframe_start,
                rng,
            )?;
        }
    }

    let outcome = RoundOutcome {
        bitstring: bs,
        announcements: injector.announcements(),
    };
    Ok(shape_response(outcome, timing, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utrp::{simulate_round_reference, UtrpChallenge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::{ChannelConfig, Counter};

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
        // With all knobs at zero the fault-aware executor must agree
        // with BOTH fault-free engines exactly and never touch the RNG.
        for (n, f_raw, seed) in [(10u64, 32u64, 1u64), (60, 200, 2), (120, 90, 3)] {
            let ch = challenge(f_raw, seed);
            let mut plain = participants(n);
            let mut reference = plain.clone();
            let mut faulty = plain.clone();
            let a = simulate_round(&mut plain, ch.frame_size(), ch.nonces()).unwrap();
            let b = simulate_round_reference(&mut reference, ch.frame_size(), ch.nonces()).unwrap();
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
            assert_eq!(plain, faulty);
            use rand::Rng as _;
            let mut fresh = StdRng::seed_from_u64(999);
            assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "RNG was consumed");
        }
    }

    #[test]
    fn device_and_participant_fault_paths_agree() {
        // The fault-path triangle: under the same seed, scripted faults
        // and a lossy channel produce identical bitstrings,
        // announcement counts, and per-tag counters in both engines.
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
            let device = run_device_round_with(
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
