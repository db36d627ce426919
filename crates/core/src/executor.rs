//! The unified round-execution entry point.
//!
//! Before this module existed the workspace had *two* parallel families
//! of round executors: the fault-free paths
//! ([`trp::observed_bitstring`], [`utrp::run_honest_reader`]) and the
//! fault-aware ones in [`crate::faulty`], and every caller — sessions,
//! tests, CLI scenarios — chose between them by hand. [`RoundExecutor`]
//! collapses that choice behind one value: a [`Channel`] plus an
//! `Option<&FaultPlan>`. Callers run rounds through the executor and
//! never branch on faultiness again.
//!
//! [`RoundExecutor::is_faultless`] is the one place in the workspace
//! that chooses between the two families: with an ideal channel and no
//! (or an empty) plan, every method runs the fault-free engine,
//! producing byte-identical output and consuming **zero** randomness
//! from the caller's RNG; otherwise it runs the fault-aware one, which
//! never branches on faultiness itself. The regression tests in this
//! module pin that contract for both protocols.
//!
//! [`trp::observed_bitstring`]: crate::trp::observed_bitstring
//! [`utrp::run_honest_reader`]: crate::utrp::run_honest_reader

use rand::Rng;

use tagwatch_obs::{Obs, ObsEvent, ProtoKind};
use tagwatch_sim::{Channel, FastMod, FaultPlan, TagId, TagPopulation, TimingModel};

use crate::bitstring::Bitstring;
use crate::engine::RoundEngine;
use crate::error::CoreError;
use crate::faulty::{run_honest_reader_with, truncated, validate};
use crate::trp::{occupancy, slot, TrpChallenge};
use crate::utrp::{run_honest_reader_scratch, UtrpChallenge, UtrpResponse};

/// One configured way of executing protocol rounds: a radio channel and
/// an optional scripted fault plan.
///
/// The executor is cheap to clone and carries no per-round state; the
/// plan applies to *every* round run through it, so drivers that script
/// one-shot fault bursts swap the plan (or the whole executor) between
/// ticks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundExecutor {
    channel: Channel,
    plan: Option<FaultPlan>,
}

impl RoundExecutor {
    /// The ideal executor: lossless channel, no faults. Rounds run
    /// through it are byte-identical to the fault-free paths.
    #[must_use]
    pub fn ideal() -> Self {
        RoundExecutor::default()
    }

    /// An executor over `channel` with an optional scripted `plan`.
    #[must_use]
    pub fn new(channel: Channel, plan: Option<FaultPlan>) -> Self {
        RoundExecutor { channel, plan }
    }

    /// The executor's channel.
    #[must_use]
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The scripted plan, if any.
    #[must_use]
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Whether rounds through this executor can differ from the
    /// fault-free paths at all.
    #[must_use]
    pub fn is_faultless(&self) -> bool {
        self.channel.is_ideal() && self.plan.as_ref().is_none_or(FaultPlan::is_empty)
    }

    /// Runs one TRP round over the audible (non-detuned) tags of
    /// `floor` and returns the occupancy bitstring the reader reports.
    ///
    /// Faultless: identical to
    /// [`observed_bitstring`](crate::trp::observed_bitstring) over the
    /// audible IDs, written straight from the floor without collecting
    /// them, with no RNG consumption. Otherwise each audible tag
    /// that hears the broadcast (announcement 0 of the plan) transmits
    /// in its hash slot; scripted reply loss, the probabilistic channel,
    /// a scripted reader crash, and scripted truncation shape the
    /// result. TRP has no re-seeds or counters, so a truncated
    /// bitstring is the only shape-level fault (the server rejects it
    /// as [`CoreError::ResponseShapeMismatch`]).
    ///
    /// An enabled `obs` records round, slot-outcome and frame-size
    /// metrics and a round-completed flight event; the bitstring is
    /// identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for an invalid fault plan.
    pub fn run_trp<R: Rng + ?Sized>(
        &self,
        floor: &TagPopulation,
        challenge: &TrpChallenge,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<Bitstring, CoreError> {
        let audible = floor.iter().filter(|t| !t.is_detuned()).map(|t| t.id());
        let bs = if self.is_faultless() {
            occupancy(audible, challenge)
        } else {
            self.run_trp_faulty(audible, challenge, rng)?
        };
        if obs.enabled() {
            let frame = bs.len() as u64;
            let occupied = bs.count_ones() as u64;
            obs.inc(obs.m.rounds_total);
            obs.inc(obs.m.rounds_trp);
            obs.add(obs.m.slots_total, frame);
            obs.add(obs.m.slots_occupied, occupied);
            obs.set_gauge(obs.m.last_frame_size, frame);
            obs.observe(obs.m.frame_size, frame as f64);
            // One framed announcement, then the reader walks every
            // slot: the whole frame is min-scan cost on the cost
            // clock. TRP never touches the probe engine.
            obs.span_phase(tagwatch_obs::Phase::SubFrameSetup, 0, 0);
            obs.span_phase(tagwatch_obs::Phase::MinScan, frame, 0);
            obs.emit(ObsEvent::RoundCompleted {
                proto: ProtoKind::Trp,
                frame,
                occupied,
                reseeds: 0,
                elapsed_us: 0,
            });
        }
        Ok(bs)
    }

    /// The fault-aware TRP round behind [`RoundExecutor::run_trp`]: the
    /// tags that hear the one broadcast are counted into their slots,
    /// then the reader resolves each slot on the channel from its count,
    /// in slot order, up to a scripted crash.
    fn run_trp_faulty<R: Rng + ?Sized>(
        &self,
        audible: impl Iterator<Item = TagId>,
        challenge: &TrpChallenge,
        rng: &mut R,
    ) -> Result<Bitstring, CoreError> {
        let empty = FaultPlan::new();
        let plan = self.plan.as_ref().unwrap_or(&empty);
        validate(plan)?;

        let f = challenge.frame_size();
        let frame = FastMod::new(f);
        let r = challenge.plan().nonce().as_u64();
        let downlink_loss = self.channel.config().downlink_loss_prob;
        // TRP broadcasts exactly one announcement (index 0); a tag that
        // misses it stays silent for the round.
        let deaf = plan.missed_by(0);
        let mut transmitters = vec![0u32; f.as_usize()];
        for id in audible {
            if deaf.is_some_and(|tags| tags.contains(&id))
                || (downlink_loss > 0.0 && rng.gen_bool(downlink_loss))
            {
                continue;
            }
            transmitters[slot(id.fold64(), r, frame)] += 1;
        }

        // The reader listens through the crash slot; the rest of the
        // frame reads empty.
        let heard = plan
            .crash_slot()
            .map_or(f.get(), |crash| crash.saturating_add(1).min(f.get()));
        let mut bs = Bitstring::zeros(f.as_usize());
        for (i, &count) in transmitters[..heard as usize].iter().enumerate() {
            let count = if plan.reply_lost_at(i as u64) {
                0
            } else {
                count
            };
            if self.channel.resolve_slot(count as usize, rng).is_occupied() {
                bs.insert(i);
            }
        }
        Ok(truncated(bs, plan))
    }

    /// Runs one honest-reader UTRP round over `floor` through a
    /// caller-owned [`RoundEngine`] (a
    /// [`RoundScratch`](crate::engine::RoundScratch) or the pooled
    /// sharded engine), advancing each tag's counter by the
    /// announcements it actually heard. Long-running drivers (sessions,
    /// soak loops) reuse the engine's buffers tick after tick.
    ///
    /// Faultless: runs the round on `scratch`, byte-identical to
    /// [`run_honest_reader`](crate::utrp::run_honest_reader), with no
    /// RNG consumption, at any thread count. Otherwise it runs the
    /// count-based fault-aware engine of [`crate::faulty`]:
    /// scripted-fault rounds are cold and keep their own state.
    ///
    /// This is [`RoundExecutor::run_utrp_scratch_observed`] with no
    /// observer.
    ///
    /// # Errors
    ///
    /// Propagates executor errors (exhausted nonce sequence, invalid
    /// plan scalars).
    pub fn run_utrp_scratch<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        floor: &mut TagPopulation,
        challenge: &UtrpChallenge,
        timing: &TimingModel,
        rng: &mut R,
        scratch: &mut E,
    ) -> Result<UtrpResponse, CoreError> {
        self.run_utrp_scratch_observed(floor, challenge, timing, rng, scratch, &Obs::disabled())
    }

    /// [`RoundExecutor::run_utrp_scratch`] with telemetry: an enabled
    /// `obs` records round, slot-outcome, re-seed, frame-size and
    /// elapsed-time metrics (plus probe/candidate-filter totals on the
    /// faultless fast path, which runs through
    /// [`RoundEngine::run_observed`]) and emits a round-completed
    /// flight event. A disabled `obs` runs the engine's plain
    /// [`RoundEngine::run`]. The round result is bit-identical either
    /// way.
    ///
    /// # Errors
    ///
    /// Same as [`RoundExecutor::run_utrp_scratch`].
    pub fn run_utrp_scratch_observed<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        floor: &mut TagPopulation,
        challenge: &UtrpChallenge,
        timing: &TimingModel,
        rng: &mut R,
        scratch: &mut E,
        obs: &Obs,
    ) -> Result<UtrpResponse, CoreError> {
        let response = if self.is_faultless() {
            run_honest_reader_scratch(floor, challenge, timing, scratch, obs)?
        } else {
            let empty = FaultPlan::new();
            let plan = self.plan.as_ref().unwrap_or(&empty);
            run_honest_reader_with(floor, challenge, timing, &self.channel, plan, rng)?
        };
        if obs.enabled() {
            let frame = response.bitstring.len() as u64;
            let occupied = response.bitstring.count_ones() as u64;
            let reseeds = response.announcements.saturating_sub(1);
            obs.inc(obs.m.rounds_total);
            obs.inc(obs.m.rounds_utrp);
            obs.add(obs.m.slots_total, frame);
            obs.add(obs.m.slots_occupied, occupied);
            obs.add(obs.m.reseeds_total, reseeds);
            obs.set_gauge(obs.m.last_frame_size, frame);
            obs.observe(obs.m.frame_size, frame as f64);
            obs.observe(
                obs.m.round_elapsed_ms,
                response.elapsed.as_micros() as f64 / 1000.0,
            );
            obs.emit(ObsEvent::RoundCompleted {
                proto: ProtoKind::Utrp,
                frame,
                occupied,
                reseeds,
                elapsed_us: response.elapsed.as_micros(),
            });
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoundScratch;
    use crate::trp::observed_bitstring;
    use crate::utrp::run_honest_reader;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::{ChannelConfig, FrameSize, Nonce, TagId};

    fn trp_challenge(f: u64, r: u64) -> TrpChallenge {
        TrpChallenge::new(tagwatch_sim::aloha::FramePlan::new(
            FrameSize::new(f).unwrap(),
            Nonce::new(r),
        ))
    }

    fn utrp_challenge(f: u64, seed: u64) -> UtrpChallenge {
        let mut rng = StdRng::seed_from_u64(seed);
        UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng)
    }

    #[test]
    fn faultless_trp_is_byte_identical_and_rng_free() {
        // The pre-refactor fault-free path and the unified executor must
        // agree bit-for-bit when no faults are configured.
        let mut floor = TagPopulation::with_sequential_ids(80);
        let ids = floor.ids();
        floor.get_mut(ids[5]).unwrap().set_detuned(true);
        for (f, r) in [(128u64, 7u64), (300, 99), (64, 1)] {
            let ch = trp_challenge(f, r);
            let audible: Vec<TagId> = floor
                .iter()
                .filter(|t| !t.is_detuned())
                .map(|t| t.id())
                .collect();
            let legacy = observed_bitstring(&audible, &ch);
            let mut rng = StdRng::seed_from_u64(123);
            let unified = RoundExecutor::ideal()
                .run_trp(&floor, &ch, &mut rng, &Obs::disabled())
                .unwrap();
            assert_eq!(legacy, unified, "f={f} r={r}");
            let mut fresh = StdRng::seed_from_u64(123);
            assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "RNG was consumed");
        }
        // An executor holding Some(empty plan) still counts as faultless;
        // one holding a scripted fault does not.
        let with_empty = RoundExecutor::new(Channel::ideal(), Some(FaultPlan::new()));
        assert!(with_empty.is_faultless());
        let with_fault =
            RoundExecutor::new(Channel::ideal(), Some(FaultPlan::new().lose_replies_at(0)));
        assert!(!with_fault.is_faultless());
        assert!(with_fault.plan().is_some());
    }

    #[test]
    fn faultless_utrp_is_byte_identical_and_rng_free() {
        let ch = utrp_challenge(200, 2);
        let timing = TimingModel::gen2();
        let mut legacy_floor = TagPopulation::with_sequential_ids(60);
        let mut unified_floor = TagPopulation::with_sequential_ids(60);
        let legacy = run_honest_reader(&mut legacy_floor, &ch, &timing).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let unified = RoundExecutor::ideal()
            .run_utrp_scratch(
                &mut unified_floor,
                &ch,
                &timing,
                &mut rng,
                &mut RoundScratch::new(),
            )
            .unwrap();
        assert_eq!(legacy, unified);
        for (a, b) in legacy_floor.iter().zip(unified_floor.iter()) {
            assert_eq!(a.counter(), b.counter(), "counter of {}", a.id());
        }
        let mut fresh = StdRng::seed_from_u64(77);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "RNG was consumed");
    }

    #[test]
    fn faulty_utrp_matches_the_direct_fault_path() {
        // The executor is a facade, not a third engine: under faults it
        // must agree exactly with run_honest_reader_with.
        let ch = utrp_challenge(150, 3);
        let timing = TimingModel::gen2();
        let plan = FaultPlan::new()
            .lose_replies_at(2)
            .lose_announcement(1, [TagId::new(3)]);
        let channel = Channel::with_config(ChannelConfig {
            downlink_loss_prob: 0.03,
            ..ChannelConfig::default()
        })
        .unwrap();

        let mut direct_floor = TagPopulation::with_sequential_ids(40);
        let mut rng_direct = StdRng::seed_from_u64(5);
        let direct = run_honest_reader_with(
            &mut direct_floor,
            &ch,
            &timing,
            &channel,
            &plan,
            &mut rng_direct,
        )
        .unwrap();

        let mut exec_floor = TagPopulation::with_sequential_ids(40);
        let mut rng_exec = StdRng::seed_from_u64(5);
        let exec = RoundExecutor::new(channel, Some(plan))
            .run_utrp_scratch(
                &mut exec_floor,
                &ch,
                &timing,
                &mut rng_exec,
                &mut RoundScratch::new(),
            )
            .unwrap();

        assert_eq!(direct, exec);
        for (a, b) in direct_floor.iter().zip(exec_floor.iter()) {
            assert_eq!(a.counter(), b.counter());
        }
    }

    #[test]
    fn trp_scripted_faults_shape_the_bitstring() {
        let floor = TagPopulation::with_sequential_ids(30);
        let ch = trp_challenge(100, 11);
        let mut rng = StdRng::seed_from_u64(1);
        let clean = RoundExecutor::ideal()
            .run_trp(&floor, &ch, &mut rng, &Obs::disabled())
            .unwrap();
        let first = clean.iter_ones().next().unwrap() as u64;

        // Losing the first occupied slot's replies clears exactly it.
        let lossy = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().lose_replies_at(first)),
        );
        let out = lossy
            .run_trp(&floor, &ch, &mut rng, &Obs::disabled())
            .unwrap();
        assert!(!out.get(first as usize).unwrap());
        assert_eq!(out.count_ones(), clean.count_ones() - 1);

        // A crash empties everything past the crash slot.
        let crashed = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().crash_after_slot(10)),
        );
        let out = crashed
            .run_trp(&floor, &ch, &mut rng, &Obs::disabled())
            .unwrap();
        assert_eq!(out.len(), 100);
        for i in 11..100 {
            assert!(!out.get(i).unwrap(), "bit {i} survived the crash");
        }

        // Truncation shortens the response (a shape fault for verify).
        let truncated = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().truncate_response(13)),
        );
        let out = truncated
            .run_trp(&floor, &ch, &mut rng, &Obs::disabled())
            .unwrap();
        assert_eq!(out.len(), 13);
    }

    #[test]
    fn noisy_trp_rounds_are_pinned_under_every_plan_kind() {
        // Reply loss, phantoms, capture and downlink loss all draw from
        // the caller's RNG, so this pins the order of those draws: per
        // tag for the broadcast, then slot after slot, under each kind
        // of scripted fault. The RNG's next draw pins how many were made.
        let channel = Channel::with_config(ChannelConfig {
            reply_loss_prob: 0.2,
            phantom_reply_prob: 0.05,
            capture_prob: 0.5,
            downlink_loss_prob: 0.1,
        })
        .unwrap();
        let floor = TagPopulation::with_sequential_ids(40);
        let ch = trp_challenge(96, 2008);
        let ids = floor.ids();
        let plans = [
            FaultPlan::new(),
            FaultPlan::new().lose_replies_at(3).lose_replies_at(50),
            FaultPlan::new().lose_announcement(0, [ids[0], ids[7], ids[33]]),
            FaultPlan::new().crash_after_slot(40),
            FaultPlan::new().truncate_response(60),
        ];
        let pinned = [
            (
                "001110110000011000010001001000011010000000110010100100001001100000000101101010000100110101100000",
                0x455d_d5db_0a55_4e00,
            ),
            (
                "001010010100011001000000100100011010000000011000100011000001100001000101001000000100010000100010",
                0x2b6a_b1c1_61e7_9a21,
            ),
            (
                "001111010000101001000001000100010000100100011000100100001001110001000101001000010110010000100110",
                0x9795_2ce7_63fd_1bf7,
            ),
            (
                "001101010000011001000001000100011010000100000000000000000000000000000000000000000000000000000000",
                0xc275_a5d6_e419_b2a8,
            ),
            (
                "001101010010011001000000000100011010010100110010100100000001",
                0x37c2_592a_a099_ddc1,
            ),
        ];
        for (i, (plan, (bits, next))) in plans.into_iter().zip(pinned).enumerate() {
            let mut rng = StdRng::seed_from_u64(77 + i as u64);
            let out = RoundExecutor::new(channel, Some(plan))
                .run_trp(&floor, &ch, &mut rng, &Obs::disabled())
                .unwrap();
            assert_eq!(out.to_string(), bits, "plan {i}");
            assert_eq!(rng.gen::<u64>(), next, "plan {i}: RNG draws moved");
        }
    }

    #[test]
    fn trp_missed_broadcast_silences_the_tag() {
        let floor = TagPopulation::with_sequential_ids(10);
        let ch = trp_challenge(64, 4);
        let victim = floor.ids()[0];
        let mut rng = StdRng::seed_from_u64(0);
        let clean = RoundExecutor::ideal()
            .run_trp(&floor, &ch, &mut rng, &Obs::disabled())
            .unwrap();
        let deaf = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().lose_announcement(0, [victim])),
        );
        let out = deaf
            .run_trp(&floor, &ch, &mut rng, &Obs::disabled())
            .unwrap();
        // The victim's slot may be shared, so the count drops by 0 or 1
        // but never grows — and the victim alone cannot occupy its slot.
        assert!(out.count_ones() <= clean.count_ones());
        let others: Vec<TagId> = floor.ids().into_iter().filter(|&id| id != victim).collect();
        assert_eq!(out, observed_bitstring(&others, &ch));
    }
}
