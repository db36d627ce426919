//! TRP — the Trusted Reader Protocol (paper §4).
//!
//! One frame, one pass: the server picks `(f, r)` with `f` sized by
//! Eq. 2, the reader broadcasts it, every tag answers its hash-chosen
//! slot with a short burst, and the reader returns the occupancy
//! bitstring `bs`. The server — knowing every ID — has already computed
//! the bitstring an intact set must produce; any missing bit is
//! evidence, and with probability `> α` at least one of `m + 1` missing
//! tags lands in a slot no present tag covers.
//!
//! Two execution paths are provided and tested to agree:
//!
//! * [`run_reader`] — the *reference* path: a
//!   [`tagwatch_sim::Reader`] runs a presence frame over the tag
//!   population and a [`Channel`], including failure injection. Each
//!   present, non-detuned tag hashes its slot statelessly, as the
//!   server predicts it.
//! * [`observed_bitstring`] — the *fast* path for Monte-Carlo sweeps:
//!   pure hashing over the present IDs (exactly what an ideal-channel
//!   execution observes).
//!
//! Every fast-path bitstring — the server's prediction, the faultless
//! executor's round and the identification oracles — comes from one
//! writer, `occupancy`, which sets each tag's bit straight into the
//! [`Bitstring`] and reduces `mod f` with [`FastMod`], bit-identical to
//! the `%` of [`tagwatch_sim::slot_for`].

use rand::Rng;

use tagwatch_sim::aloha::FramePlan;
use tagwatch_sim::hash::{mix64, FastMod};
use tagwatch_sim::{Channel, FrameSize, Nonce, Reader, TagId, TagPopulation};

use crate::bitstring::Bitstring;
use crate::error::CoreError;
use crate::verdict::{MonitorReport, ProtocolKind, Verdict};

/// A single-use TRP challenge: the `(f, r)` pair the reader must
/// broadcast.
///
/// Verification consumes the challenge by value, so a bitstring can
/// never be replayed against the same `(f, r)` — the server's first
/// line of defence (§5.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrpChallenge {
    plan: FramePlan,
}

impl TrpChallenge {
    /// Creates a challenge with an explicit plan (tests; servers use
    /// [`TrpChallenge::generate`]).
    #[must_use]
    pub fn new(plan: FramePlan) -> Self {
        TrpChallenge { plan }
    }

    /// Draws a fresh random nonce for a frame of the given size.
    pub fn generate<R: Rng + ?Sized>(f: FrameSize, rng: &mut R) -> Self {
        TrpChallenge {
            plan: FramePlan::new(f, Nonce::new(rng.gen())),
        }
    }

    /// The frame plan to broadcast.
    #[must_use]
    pub fn plan(&self) -> FramePlan {
        self.plan
    }

    /// The challenge's frame size.
    #[must_use]
    pub fn frame_size(&self) -> FrameSize {
        self.plan.frame_size()
    }
}

/// The occupancy bitstring an ideal-channel execution of `challenge`
/// over `ids` produces: the bit of every tag's slot
/// `sn = h(id ⊕ r) mod f` is set, every other bit is clear.
///
/// [`expected_bitstring`] and [`observed_bitstring`] name the side of
/// the comparison a call sits on; the server and the executor, which
/// hold IDs in a registry or on a floor, pass an iterator instead of
/// collecting a slice.
pub(crate) fn occupancy<I: IntoIterator<Item = TagId>>(
    ids: I,
    challenge: &TrpChallenge,
) -> Bitstring {
    let frame = FastMod::new(challenge.frame_size());
    let r = challenge.plan.nonce().as_u64();
    let mut bs = Bitstring::zeros(challenge.frame_size().as_usize());
    for id in ids {
        bs.insert(slot(id.fold64(), r, frame));
    }
    bs
}

/// The TRP slot of a tag with folded ID `fold` under nonce `r`: the
/// slot [`tagwatch_sim::slot_for`] picks, with the reduction by
/// [`FastMod`].
#[inline]
pub(crate) fn slot(fold: u64, r: u64, frame: FastMod) -> usize {
    // Lossless: the remainder is below the frame, at most 2^24 slots.
    frame.rem(mix64(fold ^ r)) as usize
}

/// The bitstring an *intact* set must produce for this challenge — the
/// server's prediction from its ID registry (§4.1).
#[must_use]
pub fn expected_bitstring(ids: &[TagId], challenge: &TrpChallenge) -> Bitstring {
    occupancy(ids.iter().copied(), challenge)
}

/// The bitstring an ideal-channel execution over exactly `present_ids`
/// produces — the Monte-Carlo fast path. Identical math to
/// [`expected_bitstring`]; the distinct name marks *which side* of the
/// comparison a call sits on.
#[must_use]
pub fn observed_bitstring(present_ids: &[TagId], challenge: &TrpChallenge) -> Bitstring {
    expected_bitstring(present_ids, challenge)
}

/// Runs the full reference protocol (Algs. 1–3): the reader broadcasts
/// the challenge to the population over `channel` and assembles `bs`.
#[must_use]
pub fn run_reader(
    reader: &mut Reader,
    challenge: &TrpChallenge,
    tags: &TagPopulation,
    channel: &Channel,
) -> Bitstring {
    let execution = reader.run_presence_frame(&challenge.plan, tags, channel);
    Bitstring::from_bools(&execution.occupancy_bits())
}

/// Server-side verification: compares the reader's bitstring with the
/// prediction and issues a verdict.
///
/// Any disagreement — a missing `1` (a tag that should have answered)
/// or a spurious `1` (energy where none was predicted, impossible for
/// an intact set on an ideal channel and suspicious on any) — fails the
/// set.
///
/// # Errors
///
/// Returns [`CoreError::ResponseShapeMismatch`] if the bitstring length
/// differs from the challenge frame.
pub fn verify(
    ids: &[TagId],
    challenge: TrpChallenge,
    observed: &Bitstring,
) -> Result<MonitorReport, CoreError> {
    verify_ids(ids.iter().copied(), challenge, observed)
}

/// [`verify`] over any ID iterator, so the server predicts from its
/// registry without collecting it first.
pub(crate) fn verify_ids<I: IntoIterator<Item = TagId>>(
    ids: I,
    challenge: TrpChallenge,
    observed: &Bitstring,
) -> Result<MonitorReport, CoreError> {
    let f = challenge.frame_size().get();
    if observed.len() as u64 != f {
        return Err(CoreError::ResponseShapeMismatch {
            expected: f,
            received: observed.len() as u64,
        });
    }
    let expected = occupancy(ids, &challenge);
    let mismatched = expected.hamming_distance(observed)?;
    Ok(MonitorReport {
        protocol: ProtocolKind::Trp,
        verdict: if mismatched == 0 {
            Verdict::Intact
        } else {
            Verdict::NotIntact
        },
        frame_size: f,
        mismatched_slots: mismatched,
        late: false,
        elapsed: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::ReaderConfig;

    fn challenge(f: u64, r: u64) -> TrpChallenge {
        TrpChallenge::new(FramePlan::new(FrameSize::new(f).unwrap(), Nonce::new(r)))
    }

    #[test]
    fn intact_set_verifies() {
        let pop = TagPopulation::with_sequential_ids(200);
        let ch = challenge(400, 12345);
        let observed = observed_bitstring(&pop.ids(), &ch);
        let report = verify(&pop.ids(), ch, &observed).unwrap();
        assert_eq!(report.verdict, Verdict::Intact);
        assert_eq!(report.mismatched_slots, 0);
    }

    #[test]
    fn reference_reader_matches_fast_path() {
        let pop = TagPopulation::with_sequential_ids(150);
        let ch = challenge(256, 777);
        let mut reader = Reader::new(ReaderConfig::default());
        let via_reader = run_reader(&mut reader, &ch, &pop, &Channel::ideal());
        let via_hash = observed_bitstring(&pop.ids(), &ch);
        assert_eq!(via_reader, via_hash);
    }

    #[test]
    fn missing_tags_usually_detected_with_sized_frame() {
        // Size the frame by Eq. 2 and steal m + 1 tags: detection must
        // comfortably exceed alpha over repeated trials.
        use crate::frame::trp_frame_size;
        use crate::params::MonitorParams;

        let params = MonitorParams::new(300, 5, 0.95).unwrap();
        let f = trp_frame_size(&params).unwrap();
        let mut detected = 0;
        let trials = 400;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(t);
            let mut pop = TagPopulation::with_sequential_ids(300);
            let all_ids = pop.ids();
            pop.remove_random(6, &mut rng).unwrap();
            let ch = TrpChallenge::generate(f, &mut rng);
            let observed = observed_bitstring(&pop.ids(), &ch);
            let report = verify(&all_ids, ch, &observed).unwrap();
            if report.verdict == Verdict::NotIntact {
                detected += 1;
            }
        }
        let rate = detected as f64 / trials as f64;
        assert!(rate > 0.90, "detection rate {rate} too low");
    }

    #[test]
    fn spurious_energy_fails_verification() {
        // A bit set where no tag was predicted is suspicious (phantom
        // energy or a fabricated response) — fail safe.
        let pop = TagPopulation::with_sequential_ids(10);
        let ch = challenge(64, 5);
        let mut observed = observed_bitstring(&pop.ids(), &ch);
        let expected = expected_bitstring(&pop.ids(), &ch);
        let free_slot = (0..64usize)
            .find(|&i| !expected.get(i).unwrap())
            .expect("64 slots, 10 tags: an empty slot exists");
        observed.set(free_slot, true).unwrap();
        let report = verify(&pop.ids(), ch, &observed).unwrap();
        assert_eq!(report.verdict, Verdict::NotIntact);
    }

    #[test]
    fn wrong_length_response_is_rejected() {
        let pop = TagPopulation::with_sequential_ids(10);
        let ch = challenge(64, 5);
        let short = Bitstring::zeros(63);
        assert!(matches!(
            verify(&pop.ids(), ch, &short),
            Err(CoreError::ResponseShapeMismatch {
                expected: 64,
                received: 63
            })
        ));
    }

    #[test]
    fn replayed_bitstring_fails_fresh_challenge() {
        // §5.1: a new (f, r) invalidates previously collected
        // bitstrings. Capture bs under r₁, replay it against r₂.
        let pop = TagPopulation::with_sequential_ids(100);
        let old = challenge(256, 111);
        let replayed = observed_bitstring(&pop.ids(), &old);
        let fresh = challenge(256, 222);
        let report = verify(&pop.ids(), fresh, &replayed).unwrap();
        assert_eq!(report.verdict, Verdict::NotIntact);
    }

    #[test]
    fn generate_draws_distinct_nonces() {
        let f = FrameSize::new(64).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let a = TrpChallenge::generate(f, &mut rng);
        let b = TrpChallenge::generate(f, &mut rng);
        assert_ne!(a.plan().nonce(), b.plan().nonce());
    }

    #[test]
    fn detuned_tag_reads_as_missing() {
        // A physically blocked tag produces exactly the same evidence
        // as a stolen one — the reason tolerance m exists.
        let mut pop = TagPopulation::with_sequential_ids(50);
        let ids = pop.ids();
        pop.get_mut(ids[7]).unwrap().set_detuned(true);
        let ch = challenge(256, 42);
        let mut reader = Reader::new(ReaderConfig::default());
        let observed = run_reader(&mut reader, &ch, &pop, &Channel::ideal());
        let report = verify(&ids, ch, &observed).unwrap();
        // The detuned tag's slot may be covered by another tag, so
        // NotIntact is likely but not certain; what must hold is that
        // verification never *errors* and mismatches are bounded by 1.
        assert!(report.mismatched_slots <= 1);
    }
}
