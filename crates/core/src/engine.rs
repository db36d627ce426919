//! The struct-of-arrays UTRP round engine: the one production engine
//! of a UTRP round. Scanning an array of participant structs through an
//! index indirection on every announcement is the bottleneck at
//! million-tag populations: each probe gathers a 24-byte struct
//! through a second cache line, re-folds the 128-bit tag ID, wraps the
//! counter in a newtype, and ends in a 64-bit hardware division — tens
//! of cycles per tag, hundreds of thousands of tags, re-scanned after
//! *every* reply.
//!
//! [`RoundScratch`] states the round over three contiguous arrays:
//!
//! * `folded[i]` — the tag's ID pre-folded to 64 bits (done **once** at
//!   load, not once per announcement),
//! * `bases[i]` — the tag's pre-round counter as a raw `u64`,
//! * `orig[i]` — the tag's index in the caller's load order (for
//!   attribution and stable reporting).
//!
//! Retired tags are removed by `swap_remove` on all three arrays, so
//! the active set stays dense and every scan is a single linear pass.
//! Two further observations keep the inner loop branch-light:
//!
//! * Counters advance **uniformly** (+1 per announcement heard), so the
//!   effective counter is `base + announcements` — no per-tag writes
//!   mid-round, and when every base is equal (the steady state of a
//!   synced deployment) the whole counter term collapses into the
//!   announcement key: one [`mix64`] per tag instead of two.
//! * The `mod f` reduction uses [`FastMod`] — Lemire's exact remainder
//!   by multiplication — which is bit-identical to `%` (see its docs),
//!   so outcomes, soak digests, and recorded experiments are unchanged.
//!
//! ## One scan kernel
//!
//! The per-announcement minimum scan is [`ScanJob::scan_range`]: one
//! linear pass of hash, Lemire fraction and compare over a range of the
//! active arrays. Observed rounds run [`ScanJob::scan_range_counting`],
//! the same loop with probe accounting compiled in. A [`ScanJob`] holds
//! only slices and `Copy` parameters, so `tagwatch-analytics` scans
//! worker-owned shards of the active set with the same kernel on its
//! persistent-pool `PooledEngine` without `tagwatch-core` growing a
//! thread-pool dependency (deterministic merge: the global minimum over
//! shard minima, won by the members of every shard at that minimum —
//! the same tags the whole-set scan finds, so results are
//! shard-independent by construction; the differential tests pin it).
//! The colluding readers of `tagwatch-attack` step their two tag
//! subsets with the same kernel.
//!
//! ## Engine injection
//!
//! One level up, a whole round executor is pluggable through the
//! [`RoundEngine`] trait (load / run / bitstring / announcements):
//! [`RoundScratch`] is the scalar implementation, and the pooled
//! sharded engine in `tagwatch-analytics` implements the same trait
//! bit-identically, so executors, protocols, the server's verify
//! mirror, and sessions never know which engine they drive. The serial
//! skeleton both engines share — nonce order, sub-frame shrinking,
//! uniform-key collapse — lives in [`SubframeCursor`].
//!
//! ## Diagnosis replay
//!
//! The server's desync diagnosis tests thousands of counter hypotheses
//! that each differ from the mirror round in a few counters. Two
//! crate-private pieces let it pay only for the difference: a recorded
//! `Trajectory` of a round from any announcement on, and an early-exit
//! replay (`RoundScratch::run_matching`) that resumes at any recorded
//! announcement and stops at the first reply off the field's
//! bitstring.
//!
//! A record keeps its first departure `d` from the field. Before `d`
//! every recorded reply is the field's next set bit, so a hypothesis
//! that reproduces the field makes the recorded reply at each
//! announcement before `d`. While it does, every tag but the one it
//! changes picks and retires as recorded. So a hypothesis that changes
//! one tag's counter, removes one tag or adds one is decided by walking
//! that tag along the record (`Trajectory::walk`), one probe per
//! announcement, up to `d`; the caller goes on from `d` only when the
//! walk cannot reject there.
//!
//! ## Semantics
//!
//! Byte-identical to [`crate::faulty::run_device_round`], the oracle
//! that plays Algs. 6–7 slot by slot on the tag state machines: same
//! bitstring, same announcement count, same post-round counters. The
//! differential and property tests here and in [`crate::utrp`] pin the
//! agreement across population sizes, frame shapes, counter states,
//! and mute subsets.

use tagwatch_sim::hash::{mix64, FastMod};
use tagwatch_sim::{Counter, FrameSize, TagId, TagPopulation};

use crate::bitstring::Bitstring;
use crate::error::CoreError;
use crate::nonce::{NonceCursor, NonceSequence};
use crate::utrp::UtrpParticipant;

/// One announcement's minimum-slot scan over the active arrays.
///
/// A scan returns the minimal slot any scanned tag chose (`None` when
/// no tag is scanned), filling a member buffer with the *active-array
/// indices* of every tag that chose that slot, in ascending index order.
#[derive(Debug)]
pub struct ScanJob<'a> {
    folded: &'a [u64],
    bases: &'a [u64],
    nonce: u64,
    advance: u64,
    uniform_key: Option<u64>,
    frame: FastMod,
}

/// One announcement's scan parameters: the nonce, the counter advance,
/// the optional collapsed uniform key, and the sub-frame reducer.
///
/// Produced by [`SubframeCursor::announce`] and consumed by
/// [`ScanJob::new`]. All fields are plain `Copy` data, so a parallel
/// driver can ship a `ScanParams` to worker-owned shards by value and
/// every shard builds the *same* job over its own slice — the basis of
/// the pooled engine's bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanParams {
    /// The announcement nonce `r`.
    pub nonce: u64,
    /// The counter advance for this announcement (1-based ordinal).
    pub advance: u64,
    /// The pre-collapsed announcement key when every active base
    /// counter is equal: `r ⊕ mix64(base + advance)`.
    pub uniform_key: Option<u64>,
    /// The sub-frame reducer (divisor = slots remaining).
    pub frame: FastMod,
}

impl<'a> ScanJob<'a> {
    /// Builds a scan job over caller-owned active arrays.
    ///
    /// `folded` and `bases` must be the same length and aligned
    /// (element `i` of both describes the same tag). A sharded driver
    /// passes each worker's own slices here with the `ScanParams` of
    /// the current announcement; because every scan runs the same
    /// per-tag probe, shard scans are bit-identical to the
    /// corresponding range of a whole-set scan.
    #[must_use]
    pub fn new(folded: &'a [u64], bases: &'a [u64], params: &ScanParams) -> Self {
        debug_assert_eq!(folded.len(), bases.len(), "active arrays must be aligned");
        ScanJob {
            folded,
            bases,
            nonce: params.nonce,
            advance: params.advance,
            uniform_key: params.uniform_key,
            frame: params.frame,
        }
    }
}

impl ScanJob<'_> {
    /// Number of active tags in the scan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.folded.len()
    }

    /// Whether no tags are active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.folded.is_empty()
    }

    /// The sub-frame reducer (divisor = slots remaining).
    #[must_use]
    pub fn frame(&self) -> FastMod {
        self.frame
    }

    /// Scans `lo..hi` of the active arrays, returning the minimal slot
    /// in that range and pushing the (global) active indices of its
    /// members onto `members` in ascending order. `members` is cleared
    /// first.
    ///
    /// The scalar engine's whole-set scan and each shard of the pooled
    /// engine run this loop, so every engine computes the same per-tag
    /// slots: `mix64(folded ⊕ r ⊕ mix64(base + advance)) mod f`, with
    /// the counter term pre-collapsed into the key when all bases are
    /// equal.
    ///
    /// # Panics
    ///
    /// Panics if `lo..hi` is out of bounds for the active arrays.
    pub fn scan_range(&self, lo: usize, hi: usize, members: &mut Vec<u32>) -> Option<u64> {
        let mut stats = ScanStats::default();
        self.scan_range_impl::<false>(lo, hi, members, &mut stats)
    }

    /// [`ScanJob::scan_range`] that additionally accumulates probe
    /// accounting into `stats` — how many per-tag probes ran and how
    /// many the candidate pre-filter skipped. The selection logic is
    /// the *same monomorphized loop* as the plain scan (counting is a
    /// const-generic branch compiled out of the fast path), so results
    /// are bit-identical; only this variant pays for the counters.
    ///
    /// # Panics
    ///
    /// Panics if `lo..hi` is out of bounds for the active arrays.
    pub fn scan_range_counting(
        &self,
        lo: usize,
        hi: usize,
        members: &mut Vec<u32>,
        stats: &mut ScanStats,
    ) -> Option<u64> {
        self.scan_range_impl::<true>(lo, hi, members, stats)
    }

    fn scan_range_impl<const COUNT: bool>(
        &self,
        lo: usize,
        hi: usize,
        members: &mut Vec<u32>,
        stats: &mut ScanStats,
    ) -> Option<u64> {
        members.clear();
        let folded = &self.folded[lo..hi];
        let frame = self.frame;
        let mut best = u64::MAX;
        // Candidate pre-filter: once a best slot exists, a probe whose
        // Lemire fraction exceeds `threshold` is guaranteed to land
        // strictly above it (see `FastMod::candidate_threshold`), so the
        // exact remainder and the best/members bookkeeping are skipped.
        // In a dense frame `best` hits 0 within a handful of probes and
        // the steady-state iteration is just hash → fraction → compare,
        // with a branch that predicts "skip" almost every time. The
        // filter is conservative — sub-threshold probes are verified
        // with the exact remainder — so the scan is bit-identical to
        // the unfiltered one.
        let mut threshold = u128::MAX;
        if COUNT {
            stats.probes += (hi - lo) as u64;
        }
        match self.uniform_key {
            Some(key) => {
                for (j, &fv) in folded.iter().enumerate() {
                    let frac = frame.frac(mix64(fv ^ key));
                    if frac > threshold {
                        if COUNT {
                            stats.filtered += 1;
                        }
                        continue;
                    }
                    let s = frame.rem_of_frac(frac);
                    if s < best {
                        best = s;
                        threshold = frame.candidate_threshold(s);
                        members.clear();
                        members.push((lo + j) as u32);
                    } else if s == best {
                        members.push((lo + j) as u32);
                    }
                }
            }
            None => {
                let bases = &self.bases[lo..hi];
                for (j, (&fv, &bv)) in folded.iter().zip(bases).enumerate() {
                    let ct = mix64(bv.wrapping_add(self.advance));
                    let frac = frame.frac(mix64(fv ^ self.nonce ^ ct));
                    if frac > threshold {
                        if COUNT {
                            stats.filtered += 1;
                        }
                        continue;
                    }
                    let s = frame.rem_of_frac(frac);
                    if s < best {
                        best = s;
                        threshold = frame.candidate_threshold(s);
                        members.clear();
                        members.push((lo + j) as u32);
                    } else if s == best {
                        members.push((lo + j) as u32);
                    }
                }
            }
        }
        // The pre-filter may only skip probes that land strictly above
        // the running best: an unfiltered re-scan must agree on both
        // the minimum slot and the full replier set.
        #[cfg(debug_assertions)]
        {
            let slot_of = |j: usize| -> u64 {
                let fv = self.folded[lo + j];
                match self.uniform_key {
                    Some(key) => frame.rem(mix64(fv ^ key)),
                    None => {
                        let ct = mix64(self.bases[lo + j].wrapping_add(self.advance));
                        frame.rem(mix64(fv ^ self.nonce ^ ct))
                    }
                }
            };
            let brute = (0..hi - lo).map(slot_of).min();
            debug_assert_eq!(
                brute,
                if members.is_empty() { None } else { Some(best) },
                "candidate pre-filter must preserve the exact minimum"
            );
            if let Some(min) = brute {
                let full: Vec<u32> = (0..hi - lo)
                    .filter(|&j| slot_of(j) == min)
                    .map(|j| (lo + j) as u32)
                    .collect();
                debug_assert_eq!(
                    &full, members,
                    "candidate pre-filter must preserve the replier set"
                );
            }
        }
        if members.is_empty() {
            None
        } else {
            Some(best)
        }
    }
}

/// Probe accounting from a counting scan: the raw material for the
/// telemetry layer's probe / candidate-filter hit-rate metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Per-tag slot probes evaluated.
    pub probes: u64,
    /// Probes the candidate pre-filter skipped before the exact
    /// remainder.
    pub filtered: u64,
}

impl ScanStats {
    /// Adds `other`'s counts into `self` (the reduction step when
    /// chunked scans count independently).
    pub fn merge(&mut self, other: ScanStats) {
        self.probes += other.probes;
        self.filtered += other.filtered;
    }
}

/// One announcement's scan over the whole active set.
fn min_scan(job: &ScanJob<'_>, members: &mut Vec<u32>) -> Option<u64> {
    job.scan_range(0, job.len(), members)
}

/// Per-announcement sub-frame bookkeeping of one UTRP round: nonce
/// consumption order, announcement counting, the uniform-key collapse,
/// the global-slot mapping, and the shrinking sub-frame reducer.
///
/// [`RoundScratch::run`] and the pooled engine in `tagwatch-analytics`
/// both drive their rounds through this one struct, so the serial
/// skeleton of the round — everything *except* the min-scan itself —
/// has a single source of truth and cannot drift between the scalar
/// and sharded implementations.
#[derive(Debug, Clone)]
pub struct SubframeCursor {
    total: u64,
    subframe_start: u64,
    announcements: u64,
    frame: FastMod,
    done: bool,
}

impl SubframeCursor {
    /// Starts a round over frame size `f`: no announcements yet, the
    /// sub-frame is the whole frame.
    #[must_use]
    pub fn new(f: FrameSize) -> Self {
        SubframeCursor::resume(f, 1, SubFrame::whole(f))
    }

    /// A cursor just before announcement `next` (1-based) of a round
    /// over frame size `f`, whose sub-frame is `sub`: where an
    /// early-exit replay picks up a recorded round.
    fn resume(f: FrameSize, next: u64, sub: SubFrame) -> Self {
        SubframeCursor {
            total: f.get(),
            subframe_start: sub.start,
            announcements: next.saturating_sub(1),
            frame: sub.frame,
            done: false,
        }
    }

    /// Announcements made so far.
    #[must_use]
    pub fn announcements(&self) -> u64 {
        self.announcements
    }

    /// Whether the round is over (frame exhausted or explicit
    /// [`SubframeCursor::finish`]).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Starts the next announcement: consumes a nonce, advances the
    /// announcement count, and returns the scan parameters for the
    /// current sub-frame (collapsing the counter term into the key
    /// when `uniform_base` says every base is equal).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` has
    /// run out.
    pub fn announce(
        &mut self,
        nonces: &mut NonceCursor<'_>,
        uniform_base: Option<u64>,
    ) -> Result<ScanParams, CoreError> {
        let r = nonces.next_nonce()?.as_u64();
        self.announcements += 1;
        let advance = self.announcements;
        Ok(ScanParams {
            nonce: r,
            advance,
            uniform_key: uniform_base.map(|base| r ^ mix64(base.wrapping_add(advance))),
            frame: self.frame,
        })
    }

    /// Records the winning relative slot of the current announcement
    /// and returns the global frame slot. Shrinks the sub-frame to the
    /// slots after the winner; when none remain the round is done.
    pub fn record_reply(&mut self, rel: u64) -> u64 {
        let global = self.subframe_start + rel;
        debug_assert!(global < self.total, "reply slot must lie within the frame");
        let remaining = self.total - (global + 1);
        if remaining == 0 {
            self.done = true;
        } else {
            self.subframe_start = global + 1;
            self.frame = FastMod::from_divisor(remaining);
        }
        global
    }

    /// Ends the round after a silent announcement (no active tag
    /// replied: the rest of the frame is silence).
    pub fn finish(&mut self) {
        self.done = true;
    }

    /// The next announcement's sub-frame.
    fn sub_frame(&self) -> SubFrame {
        SubFrame {
            start: self.subframe_start,
            frame: self.frame,
        }
    }
}

/// One announcement's sub-frame: its first global slot and its reducer
/// (divisor = slots left in the frame from there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubFrame {
    start: u64,
    frame: FastMod,
}

impl SubFrame {
    /// The first announcement's sub-frame: the whole frame.
    pub(crate) fn whole(f: FrameSize) -> Self {
        SubFrame {
            start: 0,
            frame: FastMod::new(f),
        }
    }
}

/// One recorded announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    sub: SubFrame,
    nonce: u64,
    /// The global reply slot; `None` for the silent last announcement.
    reply: Option<u64>,
    /// Whether exactly one tag replied.
    sole: bool,
    /// Whether the field's bitstring has the reply slot empty.
    dropped: bool,
}

/// The first announcement whose recorded reply is not the field's next
/// set bit.
#[derive(Debug, Clone, Copy)]
struct Departure {
    /// The announcement `d` (1-based).
    at: u64,
    /// The recorded step at `d`.
    step: Step,
    /// The field's next set bit from `d`'s sub-frame start.
    field: Option<u64>,
    /// When one tag replied alone at `d`: its load index, and the
    /// smallest slot any other tag active at `d` chose (`None` when no
    /// other tag was active).
    alone: Option<(usize, Option<u64>)>,
}

/// A recorded UTRP round from announcement `start` on, kept for desync
/// diagnosis ([`RoundScratch::run_recorded`]): per announcement its
/// sub-frame, nonce, reply slot and whether one tag replied alone; per
/// tag (by load index) the announcement it replied in; and the first
/// departure from the field's bitstring.
///
/// A hypothesis that changes, removes or adds one tag is decided
/// against this record by [`Trajectory::walk`], which probes only that
/// one tag per announcement up to the departure.
#[derive(Debug)]
pub(crate) struct Trajectory {
    /// The first recorded announcement (1-based).
    start: u64,
    steps: Vec<Step>,
    /// Per load index: the 1-based announcement of the tag's reply
    /// (every recorded tag replies: a one-slot sub-frame takes all
    /// still active), or 0 when the tag was not in the recorded set.
    retired_at: Vec<u64>,
    /// `None` when the round reproduces the field's bitstring.
    departure: Option<Departure>,
}

/// What a hypothesis that changes one tag does against a
/// [`Trajectory`] ([`Trajectory::walk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// It leaves the field's bitstring by the record's departure.
    Rejected,
    /// It reproduces the field: the round's announcement total.
    Matches(u64),
    /// It makes the field's reply at the record's departure `at`, where
    /// the changed tag is in state `tag`.
    Departs { at: u64, tag: AtDeparture },
}

/// The changed tag at the record's departure, when a hypothesis makes
/// the field's reply there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AtDeparture {
    /// It retired earlier; the other tags make the reply.
    Retired,
    /// It is active; the other tags make the reply (it may join them).
    Active,
    /// It makes the reply alone.
    Alone,
}

impl Trajectory {
    fn step(&self, a: u64) -> &Step {
        &self.steps[(a - self.start) as usize]
    }

    /// One past the last recorded announcement.
    fn end(&self) -> u64 {
        self.start + self.steps.len() as u64
    }

    /// Whether tag `i` replied into a slot the field's bitstring has
    /// empty: the only tags a deep lag can explain.
    pub(crate) fn dropped(&self, i: usize) -> bool {
        let a = self.retired_at[i];
        a != 0 && self.step(a).dropped
    }

    /// Whether tag `i` is still active at announcement `a`.
    pub(crate) fn active_at(&self, i: usize, a: u64) -> bool {
        self.retired_at[i] >= a
    }

    /// The sub-frame of announcement `a` (1-based).
    pub(crate) fn sub_frame(&self, a: u64) -> SubFrame {
        self.step(a).sub
    }

    /// The sub-frame after the field's set bit at the departure: where
    /// the round goes on when one tag alone makes that reply. `None`
    /// when the record has no departure, the field has no bit left
    /// there, or that bit is the frame's last slot.
    pub(crate) fn after_field(&self) -> Option<SubFrame> {
        let departure = self.departure?;
        let slot = departure.field?;
        let sub = departure.step.sub;
        let remaining = sub.start + sub.frame.divisor() - (slot + 1);
        (remaining > 0).then(|| SubFrame {
            start: slot + 1,
            frame: FastMod::from_divisor(remaining),
        })
    }

    /// Decides the hypothesis that gives tag `i` pre-round counter
    /// `base` in place of its recorded state, every other tag as
    /// recorded: a changed counter when `i` is in the record, an added
    /// tag when it is not, and a removed tag when `base` is `None`.
    ///
    /// A hypothesis that reproduces the field makes the recorded reply
    /// `R_a` at every announcement `a` before the departure `d`, so up
    /// to `d` only tag `i` can differ from the record. The walk probes
    /// it as the scan kernel does (its slot `t_a` is the sub-frame start
    /// plus `mix64(folded ⊕ r ⊕ mix64(base + a)) mod f'`) and rejects
    /// where the reply would leave `R_a`: `t_a < R_a` while `i` is
    /// active (or any `t_a` at a silent end), or `i` replied alone at
    /// `R_a` in the record and does not reply there now. At `t_a = R_a`
    /// the tag retires. At `d` the other tags reply at `R_d`, or at the
    /// runner-up when `i` replied alone at `d`, and an active `i` at
    /// the smaller of that and `t_d`.
    ///
    /// `d` is checked first: when neither an active nor a retired `i`
    /// makes the field's reply there, no walk is needed.
    pub(crate) fn walk(&self, i: usize, folded: u64, base: Option<u64>) -> Walk {
        let probe = |a: u64, step: &Step, base: u64| {
            let ct = mix64(base.wrapping_add(a));
            step.sub.start + step.sub.frame.rem(mix64(folded ^ step.nonce ^ ct))
        };
        // What the departure makes of the hypothesis if `i` reaches it
        // retired, and if it reaches it active.
        let (mut if_retired, mut if_active) = (None, None);
        if let Some(departure) = &self.departure {
            let others = match departure.alone {
                Some((sole, runner_up)) if sole == i => runner_up,
                _ => departure.step.reply,
            };
            if_retired = (others == departure.field).then_some(AtDeparture::Retired);
            if_active = base.and_then(|base| {
                let slot = probe(departure.at, &departure.step, base);
                let reply = others.map_or(slot, |other| other.min(slot));
                (Some(reply) == departure.field).then_some(if if_retired.is_some() {
                    AtDeparture::Active
                } else {
                    AtDeparture::Alone
                })
            });
            if if_retired.is_none() && if_active.is_none() {
                return Walk::Rejected;
            }
        }
        let recorded = self.retired_at[i];
        let alone_at = |a: u64| recorded == a && self.step(a).sole;
        let end = self.departure.map_or(self.end(), |departure| departure.at);
        let mut present = base;
        let mut a = self.start;
        while let Some(base) = present.filter(|_| a < end) {
            let step = self.step(a);
            // Before the departure every reply is the field's, so only
            // a record without one ends silent.
            let Some(reply) = step.reply else {
                return Walk::Rejected;
            };
            let slot = probe(a, step, base);
            if slot < reply || (slot > reply && alone_at(a)) {
                return Walk::Rejected;
            }
            if slot == reply {
                present = None;
            }
            a += 1;
        }
        // Without `i` from `a` on, the round is the record's but where
        // `i` was recorded replying alone: before `end` that departs.
        if present.is_none() && (a..end).contains(&recorded) && alone_at(recorded) {
            return Walk::Rejected;
        }
        let tag = match (self.departure, present) {
            (None, _) => return Walk::Matches(self.end() - 1),
            (Some(_), None) => if_retired,
            (Some(_), Some(_)) => if_active,
        };
        tag.map_or(Walk::Rejected, |tag| Walk::Departs { at: end, tag })
    }
}

/// Reusable round state: the struct-of-arrays active set, the member
/// buffers, and the output bitstring, all retained across rounds so a
/// long monitoring session performs no per-round allocation in steady
/// state (buffers grow to the population size once and stay).
///
/// Typical use:
///
/// ```rust
/// use rand::SeedableRng;
/// use tagwatch_core::engine::RoundScratch;
/// use tagwatch_core::utrp::UtrpChallenge;
/// use tagwatch_sim::{Counter, FrameSize, TagId, TimingModel};
///
/// # fn main() -> Result<(), tagwatch_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ch = UtrpChallenge::generate(FrameSize::new(64)?, &TimingModel::gen2(), &mut rng);
///
/// let mut scratch = RoundScratch::new();
/// scratch.load_pairs((1..=20u64).map(|i| (TagId::from(i), Counter::ZERO)));
/// let announcements = scratch.run(ch.frame_size(), ch.nonces())?;
/// assert_eq!(scratch.bitstring().len(), 64);
/// assert!(announcements >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RoundScratch {
    folded: Vec<u64>,
    bases: Vec<u64>,
    orig: Vec<u32>,
    members: Vec<u32>,
    members_orig: Vec<u32>,
    bitstring: Bitstring,
    announcements: u64,
    uniform_base: Option<u64>,
    loaded: u32,
}

impl Default for RoundScratch {
    fn default() -> Self {
        RoundScratch::new()
    }
}

impl RoundScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        RoundScratch {
            folded: Vec::new(),
            bases: Vec::new(),
            orig: Vec::new(),
            members: Vec::new(),
            members_orig: Vec::new(),
            bitstring: Bitstring::zeros(0),
            announcements: 0,
            uniform_base: None,
            loaded: 0,
        }
    }

    /// Loads the round's participants from `(id, counter, mute)`
    /// triples. Mute tags never enter the active arrays (they cannot
    /// reply) but still occupy a load index, so attribution indices
    /// always refer to the caller's original order.
    pub fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I) {
        self.folded.clear();
        self.bases.clear();
        self.orig.clear();
        self.loaded = 0;
        let mut uniform = true;
        let mut first_base: Option<u64> = None;
        for (id, ct, mute) in parts {
            let index = self.loaded;
            self.loaded += 1;
            if mute {
                continue;
            }
            let base = ct.get();
            match first_base {
                None => first_base = Some(base),
                Some(b) if b != base => uniform = false,
                Some(_) => {}
            }
            self.folded.push(id.fold64());
            self.bases.push(base);
            self.orig.push(index);
        }
        self.uniform_base = if uniform { first_base } else { None };
    }

    /// Loads from `(id, counter)` pairs — e.g. the server's registry
    /// mirror iterated in place, with no intermediate `Vec`.
    pub fn load_pairs<I: IntoIterator<Item = (TagId, Counter)>>(&mut self, pairs: I) {
        self.load(pairs.into_iter().map(|(id, ct)| (id, ct, false)));
    }

    /// Loads from a physical tag population (detuned tags are mute).
    pub fn load_population(&mut self, population: &TagPopulation) {
        self.load(
            population
                .iter()
                .map(|t| (t.id(), t.counter(), t.is_detuned())),
        );
    }

    /// Loads a copy of `from`'s loaded set with every base counter
    /// advanced by `shift`: a uniform lead, without re-folding an ID.
    /// `from` must not have run since its load.
    pub(crate) fn load_shifted(&mut self, from: &RoundScratch, shift: u64) {
        self.folded.clone_from(&from.folded);
        self.orig.clone_from(&from.orig);
        self.bases.clear();
        self.bases
            .extend(from.bases.iter().map(|base| base.wrapping_add(shift)));
        self.uniform_base = from.uniform_base.map(|base| base.wrapping_add(shift));
        self.loaded = from.loaded;
    }

    /// How many participants the last load saw (including mute ones).
    #[must_use]
    pub fn loaded(&self) -> usize {
        self.loaded as usize
    }

    /// The occupancy bitstring of the last run.
    #[must_use]
    pub fn bitstring(&self) -> &Bitstring {
        &self.bitstring
    }

    /// Moves the last run's bitstring out (the scratch keeps an empty
    /// one and re-grows on the next run — use when the caller needs an
    /// owned artifact, e.g. a reader response).
    #[must_use]
    pub fn take_bitstring(&mut self) -> Bitstring {
        std::mem::replace(&mut self.bitstring, Bitstring::zeros(0))
    }

    /// Announcements made by the last run.
    #[must_use]
    pub fn announcements(&self) -> u64 {
        self.announcements
    }

    /// Runs one UTRP round over the loaded participants, returning the
    /// announcement count. The bitstring is left in
    /// [`RoundScratch::bitstring`].
    ///
    /// Counters are **not** written back anywhere — the round's only
    /// counter effect is uniform (+announcements for every loaded tag,
    /// mute included), which the caller applies to its own store.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` is
    /// shorter than the frame.
    pub fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError> {
        self.run_inner(f, nonces, min_scan, |_, _| {})
    }

    /// [`RoundScratch::run`] with telemetry: when `obs` is enabled the
    /// round runs through the counting scan and records probe and
    /// candidate-filter totals; when disabled it is exactly
    /// [`RoundScratch::run`]. Either way the round result is
    /// bit-identical to the uninstrumented one.
    ///
    /// # Errors
    ///
    /// As [`RoundScratch::run`].
    pub fn run_observed(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: &tagwatch_obs::Obs,
    ) -> Result<u64, CoreError> {
        if !obs.enabled() {
            return self.run(f, nonces);
        }
        let mut stats = ScanStats::default();
        let spans_on = obs.spans_enabled();
        let mut announcement = 0u64;
        let announcements = self.run_inner(
            f,
            nonces,
            |job, members| {
                announcement += 1;
                let probes_before = stats.probes;
                let rel = job.scan_range_counting(0, job.len(), members, &mut stats);
                if spans_on {
                    // Phase attribution by the cost clock. Slots charged
                    // per announcement telescope exactly to the frame size:
                    // a reply at relative slot `rel` elapses `rel + 1`
                    // slots of its sub-frame; silence elapses the whole
                    // remaining sub-frame (the divisor) and ends the round.
                    let slots = rel.map_or_else(|| job.frame().divisor(), |r| r + 1);
                    let probes = stats.probes - probes_before;
                    obs.span_phase(tagwatch_obs::Phase::SubFrameSetup, 0, 0);
                    let phase = if announcement == 1 {
                        tagwatch_obs::Phase::MinScan
                    } else {
                        tagwatch_obs::Phase::ReSeed
                    };
                    obs.span_phase(phase, slots, probes);
                }
                rel
            },
            |_, _| {},
        )?;
        obs.add(obs.m.probes_total, stats.probes);
        obs.add(obs.m.probes_filtered, stats.filtered);
        Ok(announcements)
    }

    /// [`RoundScratch::run`] invoking `on_reply(global_slot,
    /// orig_indices)` for every occupied slot, with the replying tags'
    /// original load indices in ascending order — the engine behind slot
    /// attribution.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` is
    /// shorter than the frame.
    pub fn run_attributed_with<F>(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        on_reply: F,
    ) -> Result<u64, CoreError>
    where
        F: FnMut(u64, &[u32]),
    {
        self.run_inner(f, nonces, min_scan, on_reply)
    }

    /// Runs the loaded tags from announcement `from` (1-based) over
    /// sub-frame `sub` to the end of the round, recording its
    /// [`Trajectory`] against the field's `observed` bitstring and
    /// naming tags by load index; a record from announcement 1 over the
    /// whole frame is the full round's. When one tag replies alone at
    /// the record's first departure from `observed`, one more scan of
    /// the active set finds the runner-up.
    ///
    /// The run consumes the active arrays and counts no probes; the
    /// bitstring and announcement count of the last full run are left
    /// as they were.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if `observed` is not `f`
    /// bits long, and [`CoreError::NonceSequenceExhausted`] if `nonces`
    /// runs out before the round ends.
    pub(crate) fn run_recorded(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        from: u64,
        sub: SubFrame,
        observed: &Bitstring,
    ) -> Result<Trajectory, CoreError> {
        if observed.len() != f.as_usize() {
            return Err(CoreError::LengthMismatch {
                left: f.as_usize(),
                right: observed.len(),
            });
        }
        let mut record = Trajectory {
            start: from,
            steps: Vec::new(),
            retired_at: vec![0; self.loaded()],
            departure: None,
        };
        let mut cursor = nonces.cursor_at(from.saturating_sub(1) as usize);
        let mut walk = SubframeCursor::resume(f, from, sub);
        loop {
            let sub = walk.sub_frame();
            let params = walk.announce(&mut cursor, self.uniform_base)?;
            let announced = walk.announcements();
            let job = ScanJob::new(&self.folded, &self.bases, &params);
            let rel = min_scan(&job, &mut self.members);
            let reply = rel.map(|r| sub.start + r);
            let step = Step {
                sub,
                nonce: params.nonce,
                reply,
                sole: self.members.len() == 1,
                dropped: reply.is_some_and(|slot| matches!(observed.get(slot as usize), Ok(false))),
            };
            if record.departure.is_none() {
                let field = observed.next_one(sub.start as usize).map(|bit| bit as u64);
                if field != reply {
                    let alone = step.sole.then(|| {
                        let alone = self.members[0] as usize;
                        let others = &mut self.members_orig;
                        let below = job.scan_range(0, alone, others);
                        let above = job.scan_range(alone + 1, job.len(), others);
                        let runner_up = below.into_iter().chain(above).min();
                        (self.orig[alone] as usize, runner_up.map(|r| sub.start + r))
                    });
                    record.departure = Some(Departure {
                        at: announced,
                        step,
                        field,
                        alone,
                    });
                }
            }
            record.steps.push(step);
            let Some(rel) = rel else {
                return Ok(record);
            };
            walk.record_reply(rel);
            for &m in &self.members {
                record.retired_at[self.orig[m as usize] as usize] = announced;
            }
            if walk.is_done() {
                return Ok(record);
            }
            self.retire_members();
        }
    }

    /// The early-exit replay behind desync diagnosis: runs the loaded
    /// tags from announcement `from` (1-based) over sub-frame `sub`,
    /// stopping at the first reply slot that is not the next bit set in
    /// `observed`. Returns `Some(announcements)`, the round's total,
    /// only when the round reproduces `observed` exactly from
    /// `sub.start` on: every reply lands on the next set bit, and no set
    /// bit is left when a silent announcement or the frame's last slot
    /// ends the round. Returns `None` at the first departure, or when
    /// `observed` is not `f` bits long. Bits before `sub.start` are not
    /// examined: a caller resuming mid-round vouches for them.
    ///
    /// The run consumes the active arrays and counts no probes; the
    /// bitstring and announcement count of the last full run are left
    /// as they were.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` runs
    /// out before the round ends.
    pub(crate) fn run_matching(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        from: u64,
        sub: SubFrame,
        observed: &Bitstring,
    ) -> Result<Option<u64>, CoreError> {
        if observed.len() != f.as_usize() {
            return Ok(None);
        }
        let mut cursor = nonces.cursor_at(from.saturating_sub(1) as usize);
        let mut walk = SubframeCursor::resume(f, from, sub);
        loop {
            let next = observed.next_one(walk.subframe_start as usize);
            let params = walk.announce(&mut cursor, self.uniform_base)?;
            let job = ScanJob::new(&self.folded, &self.bases, &params);
            let Some(rel) = min_scan(&job, &mut self.members) else {
                return Ok(next.is_none().then(|| walk.announcements()));
            };
            if next != Some((walk.subframe_start + rel) as usize) {
                return Ok(None);
            }
            walk.record_reply(rel);
            if walk.is_done() {
                return Ok(Some(walk.announcements()));
            }
            self.retire_members();
        }
    }

    /// Swap-removes the tags in the member buffer from the active
    /// arrays, in descending index order so earlier indices stay valid.
    fn retire_members(&mut self) {
        for &mi in self.members.iter().rev() {
            let i = mi as usize;
            self.folded.swap_remove(i);
            self.bases.swap_remove(i);
            self.orig.swap_remove(i);
        }
    }

    fn run_inner<S, F>(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        mut scanner: S,
        mut on_reply: F,
    ) -> Result<u64, CoreError>
    where
        S: FnMut(&ScanJob<'_>, &mut Vec<u32>) -> Option<u64>,
        F: FnMut(u64, &[u32]),
    {
        self.bitstring.reset(f.as_usize());
        self.announcements = 0;
        let mut cursor = nonces.cursor();
        let mut walk = SubframeCursor::new(f);

        // Zero-alloc contract: the active arrays only shrink during a
        // round (swap_remove), so their capacity must never move.
        #[cfg(debug_assertions)]
        let caps = (
            self.folded.capacity(),
            self.bases.capacity(),
            self.orig.capacity(),
        );

        loop {
            let params = walk.announce(&mut cursor, self.uniform_base)?;
            self.announcements = walk.announcements();
            let job = ScanJob::new(&self.folded, &self.bases, &params);
            let Some(rel) = scanner(&job, &mut self.members) else {
                // No active tag replies: the rest of the frame is
                // silence and the round ends (counters advanced once
                // for this final announcement, as in the reference).
                break;
            };

            let global = walk.record_reply(rel);
            self.bitstring.set(global as usize, true)?;

            // Attribution wants original load indices ascending; the
            // member buffer holds active indices (ascending by scanner
            // contract, but active order is scrambled by swap_remove).
            self.members_orig.clear();
            self.members_orig
                .extend(self.members.iter().map(|&i| self.orig[i as usize]));
            self.members_orig.sort_unstable();
            on_reply(global, &self.members_orig);

            debug_assert!(
                self.members.windows(2).all(|w| w[0] < w[1]),
                "scanner contract: member indices strictly ascending"
            );
            debug_assert!(
                self.members
                    .last()
                    .is_none_or(|&mi| (mi as usize) < self.folded.len()),
                "scanner contract: member indices within the active arrays"
            );
            self.retire_members();
            debug_assert!(
                self.folded.len() == self.bases.len() && self.folded.len() == self.orig.len(),
                "active arrays must retire in lockstep"
            );

            if walk.is_done() {
                break;
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            caps,
            (
                self.folded.capacity(),
                self.bases.capacity(),
                self.orig.capacity(),
            ),
            "a round must not reallocate the active arrays"
        );
        Ok(self.announcements)
    }
}

/// A pluggable executor of one UTRP round: load an active set, run the
/// round, read back the bitstring and announcement count.
///
/// [`RoundScratch`] is the canonical scalar implementation;
/// `tagwatch-analytics` provides `PooledEngine`, a sharded multi-core
/// implementation over a persistent worker pool. Executors, protocols,
/// the server's verify mirror, and sessions are generic over this
/// trait, which makes parallelism an implementation detail: every
/// implementation must be **bit-identical** to [`RoundScratch`] —
/// same bitstring, same announcement count, same observed probe totals
/// — at any thread count. The differential and property tests pin it.
pub trait RoundEngine {
    /// Loads the round's participants from `(id, counter, mute)`
    /// triples. Mute tags never reply but still occupy a load index,
    /// so attribution indices always refer to the caller's original
    /// order.
    fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I);

    /// Runs one UTRP round over the loaded participants, returning the
    /// announcement count; the bitstring is left in
    /// [`RoundEngine::bitstring`]. Counters are not written back — the
    /// round's only counter effect is uniform (+announcements per
    /// loaded tag), which the caller applies to its own store.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonceSequenceExhausted`] if `nonces` is
    /// shorter than the frame.
    fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError>;

    /// [`RoundEngine::run`] with telemetry: when `obs` is enabled the
    /// implementation additionally records probe and candidate-filter
    /// totals. The round result must be bit-identical either way, and
    /// the probe total must be chunking- and thread-invariant (it is
    /// `Σ active_i` for any exact engine).
    ///
    /// # Errors
    ///
    /// As [`RoundEngine::run`].
    fn run_observed(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: &tagwatch_obs::Obs,
    ) -> Result<u64, CoreError>;

    /// The occupancy bitstring of the last run.
    fn bitstring(&self) -> &Bitstring;

    /// Moves the last run's bitstring out, leaving an empty one.
    fn take_bitstring(&mut self) -> Bitstring;

    /// Announcements made by the last run.
    fn announcements(&self) -> u64;

    /// Loads from [`UtrpParticipant`]s (counters at pre-round values).
    fn load_participants(&mut self, parts: &[UtrpParticipant]) {
        self.load(parts.iter().map(|p| (p.id, p.counter, p.mute)));
    }

    /// Loads from `(id, counter)` pairs — e.g. the server's registry
    /// mirror iterated in place.
    fn load_pairs<I: IntoIterator<Item = (TagId, Counter)>>(&mut self, pairs: I) {
        self.load(pairs.into_iter().map(|(id, ct)| (id, ct, false)));
    }

    /// Loads from a physical tag population (detuned tags are mute).
    fn load_population(&mut self, population: &TagPopulation) {
        self.load(
            population
                .iter()
                .map(|t| (t.id(), t.counter(), t.is_detuned())),
        );
    }
}

impl RoundEngine for RoundScratch {
    fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I) {
        RoundScratch::load(self, parts);
    }

    fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError> {
        RoundScratch::run(self, f, nonces)
    }

    fn run_observed(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: &tagwatch_obs::Obs,
    ) -> Result<u64, CoreError> {
        RoundScratch::run_observed(self, f, nonces, obs)
    }

    fn bitstring(&self) -> &Bitstring {
        RoundScratch::bitstring(self)
    }

    fn take_bitstring(&mut self) -> Bitstring {
        RoundScratch::take_bitstring(self)
    }

    fn announcements(&self) -> u64 {
        RoundScratch::announcements(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::device_round_over;
    use crate::utrp::UtrpChallenge;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tagwatch_sim::TimingModel;

    fn challenge(f: u64, seed: u64) -> UtrpChallenge {
        let mut rng = StdRng::seed_from_u64(seed);
        UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng)
    }

    fn mixed_parts(n: u64) -> Vec<UtrpParticipant> {
        (1..=n)
            .map(|i| {
                let mut p = UtrpParticipant::new(TagId::from(i), Counter::new(i % 5));
                p.mute = i % 13 == 0;
                p
            })
            .collect()
    }

    #[test]
    fn scratch_matches_reference_and_reuses_buffers() {
        let mut scratch = RoundScratch::new();
        for (n, f_raw, seed) in [(1u64, 4u64, 1u64), (30, 64, 2), (120, 90, 3), (90, 256, 4)] {
            let ch = challenge(f_raw, seed);
            let parts = mixed_parts(n);
            let expected = device_round_over(&mut parts.clone(), &ch);

            scratch.load_participants(&parts);
            let announcements = scratch.run(ch.frame_size(), ch.nonces()).unwrap();
            assert_eq!(*scratch.bitstring(), expected.bitstring, "n={n} f={f_raw}");
            assert_eq!(announcements, expected.announcements, "n={n} f={f_raw}");
        }
    }

    #[test]
    fn uniform_counter_key_collapse_is_exact() {
        // All-equal bases take the one-mix64 fast path; shifting a
        // single tag's counter forces the general path. Both must agree
        // with the device oracle bit-for-bit.
        let ch = challenge(128, 7);
        for bump in [0u64, 1] {
            let mut parts: Vec<UtrpParticipant> = (1..=60u64)
                .map(|i| UtrpParticipant::new(TagId::from(i), Counter::new(41)))
                .collect();
            parts[17].counter = Counter::new(41 + bump);
            let expected = device_round_over(&mut parts.clone(), &ch);
            let mut scratch = RoundScratch::new();
            scratch.load_participants(&parts);
            scratch.run(ch.frame_size(), ch.nonces()).unwrap();
            assert_eq!(*scratch.bitstring(), expected.bitstring, "bump={bump}");
            assert_eq!(scratch.announcements(), expected.announcements);
        }
    }

    #[test]
    fn attribution_reports_orig_indices_ascending() {
        let ch = challenge(50, 9);
        // Dense population so some slots collide.
        let parts: Vec<UtrpParticipant> = (1..=120u64)
            .map(|i| UtrpParticipant::new(TagId::from(i), Counter::ZERO))
            .collect();
        let mut scratch = RoundScratch::new();
        scratch.load_participants(&parts);
        let mut seen: Vec<u32> = Vec::new();
        let mut slots: Vec<u64> = Vec::new();
        scratch
            .run_attributed_with(ch.frame_size(), ch.nonces(), |slot, members| {
                assert!(!members.is_empty());
                assert!(members.windows(2).all(|w| w[0] < w[1]), "not ascending");
                slots.push(slot);
                seen.extend_from_slice(members);
            })
            .unwrap();
        // Slots strictly increase (each reply ends a sub-frame).
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
        // Every non-mute participant replies exactly once.
        seen.sort_unstable();
        let expected: Vec<u32> = (0..120).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn chunked_scan_merge_equals_sequential() {
        // Simulate a sharded scan in-process: scan fixed chunks, merge
        // by (min slot, chunk index order). Must equal the whole-set
        // scan on every announcement of a real round.
        let ch = challenge(96, 11);
        let parts = mixed_parts(200);

        let mut seq = RoundScratch::new();
        seq.load_participants(&parts);
        seq.run(ch.frame_size(), ch.nonces()).unwrap();
        let seq_bs = seq.take_bitstring();
        let seq_announced = seq.announcements();

        let mut chunked = RoundScratch::new();
        chunked.load_participants(&parts);
        let mut chunk_members: Vec<u32> = Vec::new();
        chunked
            .run_inner(
                ch.frame_size(),
                ch.nonces(),
                |job, members| {
                    members.clear();
                    let mut best: Option<u64> = None;
                    let chunk = 17;
                    let mut lo = 0;
                    while lo < job.len() {
                        let hi = (lo + chunk).min(job.len());
                        if let Some(m) = job.scan_range(lo, hi, &mut chunk_members) {
                            match best {
                                Some(b) if m > b => {}
                                Some(b) if m == b => members.extend_from_slice(&chunk_members),
                                _ => {
                                    best = Some(m);
                                    members.clear();
                                    members.extend_from_slice(&chunk_members);
                                }
                            }
                        }
                        lo = hi;
                    }
                    best
                },
                |_, _| {},
            )
            .unwrap();
        assert_eq!(*chunked.bitstring(), seq_bs);
        assert_eq!(chunked.announcements(), seq_announced);
    }

    #[test]
    fn subframe_cursor_replays_reference_bookkeeping() {
        // Drive a round "by hand" through SubframeCursor + ScanJob::new
        // over scratch-owned slices — the exact shape of the pooled
        // driver — and compare to RoundScratch::run.
        let ch = challenge(128, 31);
        let parts = mixed_parts(150);
        let mut expected = RoundScratch::new();
        expected.load_participants(&parts);
        expected.run(ch.frame_size(), ch.nonces()).unwrap();

        // Build each job from announce()'s ScanParams over hand-owned
        // arrays to prove the cursor produces the same parameters
        // run_inner does.
        let mut cursor = ch.nonces().cursor();
        let mut walk = SubframeCursor::new(ch.frame_size());
        let mut bits = Bitstring::zeros(ch.frame_size().as_usize());
        let mut folded: Vec<u64> = (0..150u64)
            .filter(|i| (i + 1) % 13 != 0)
            .map(|i| TagId::from(i + 1).fold64())
            .collect();
        let mut bases: Vec<u64> = (0..150u64)
            .filter(|i| (i + 1) % 13 != 0)
            .map(|i| (i + 1) % 5)
            .collect();
        let mut members = Vec::new();
        loop {
            let params = walk.announce(&mut cursor, None).unwrap();
            let job = ScanJob::new(&folded, &bases, &params);
            let Some(rel) = job.scan_range(0, job.len(), &mut members) else {
                break;
            };
            let global = walk.record_reply(rel);
            bits.set(global as usize, true).unwrap();
            for &mi in members.iter().rev() {
                folded.swap_remove(mi as usize);
                bases.swap_remove(mi as usize);
            }
            if walk.is_done() {
                break;
            }
        }
        assert_eq!(bits, *expected.bitstring());
        assert_eq!(walk.announcements(), expected.announcements());
    }

    #[test]
    fn all_mute_or_empty_loads_announce_once() {
        let ch = challenge(16, 5);
        let mut scratch = RoundScratch::new();
        scratch.load_pairs(std::iter::empty());
        assert_eq!(scratch.run(ch.frame_size(), ch.nonces()).unwrap(), 1);
        assert_eq!(scratch.bitstring().count_ones(), 0);

        let mut muted = mixed_parts(5);
        for p in &mut muted {
            p.mute = true;
        }
        scratch.load_participants(&muted);
        assert_eq!(scratch.loaded(), 5);
        assert_eq!(scratch.run(ch.frame_size(), ch.nonces()).unwrap(), 1);
        assert_eq!(scratch.bitstring().count_ones(), 0);
    }

    /// Non-mute participants with mixed counters (diagnosis loads the
    /// registry, where no tag is mute).
    fn audible_parts(n: u64) -> Vec<UtrpParticipant> {
        (1..=n)
            .map(|i| UtrpParticipant::new(TagId::from(i), Counter::new(i % 5)))
            .collect()
    }

    fn flipped(bs: &Bitstring, bit: usize) -> Bitstring {
        let mut out = bs.clone();
        out.set(bit, !bs.get(bit).unwrap()).unwrap();
        out
    }

    #[test]
    fn early_exit_run_accepts_exactly_the_full_runs_bitstring() {
        // From announcement 1 the early-exit run must answer Some(a)
        // exactly when the full run yields `observed` in `a`
        // announcements: the run's own bitstring, every one-bit flip of
        // it, and other rounds' bitstrings.
        for (n, f_raw, seed) in [
            (1u64, 8u64, 41u64),
            (20, 40, 42),
            (60, 150, 43),
            (150, 90, 44),
        ] {
            let ch = challenge(f_raw, seed);
            let parts = audible_parts(n);
            let mut full = RoundScratch::new();
            full.load_participants(&parts);
            let announcements = full.run(ch.frame_size(), ch.nonces()).unwrap();
            let bs = full.take_bitstring();
            let mut observed: Vec<Bitstring> = (0..bs.len()).map(|b| flipped(&bs, b)).collect();
            observed.push(bs.clone());
            for other in [challenge(f_raw, seed + 100), challenge(f_raw, seed + 200)] {
                full.load_participants(&parts);
                full.run(other.frame_size(), other.nonces()).unwrap();
                observed.push(full.take_bitstring());
            }
            let mut scratch = RoundScratch::new();
            for obs in &observed {
                scratch.load_participants(&parts);
                let got = scratch
                    .run_matching(
                        ch.frame_size(),
                        ch.nonces(),
                        1,
                        SubFrame::whole(ch.frame_size()),
                        obs,
                    )
                    .unwrap();
                assert_eq!(
                    got,
                    (*obs == bs).then_some(announcements),
                    "n={n} f={f_raw}"
                );
            }
        }
    }

    #[test]
    fn resumed_early_exit_run_agrees_with_a_full_run() {
        // Resumed at every recorded announcement with the tags still
        // active there, the run must finish the recorded round: accept
        // its bitstring with the full announcement count, and reject a
        // flip at or after the resumed sub-frame's start.
        for (n, f_raw, seed) in [(30u64, 64u64, 51u64), (80, 60, 52), (120, 400, 53)] {
            let ch = challenge(f_raw, seed);
            let f = ch.frame_size();
            let parts = audible_parts(n);
            let mut full = RoundScratch::new();
            full.load_participants(&parts);
            let announcements = full.run(f, ch.nonces()).unwrap();
            let bs = full.take_bitstring();
            full.load_participants(&parts);
            let record = full
                .run_recorded(f, ch.nonces(), 1, SubFrame::whole(f), &bs)
                .unwrap();
            assert!(record.departure.is_none());
            // A tag is active up to its attributed reply; every tag
            // replies, since the frame's last slot takes all still active.
            let mut replied = vec![0; parts.len()];
            let mut announced = 0;
            full.load_participants(&parts);
            full.run_attributed_with(f, ch.nonces(), |_, members| {
                announced += 1;
                for &i in members {
                    replied[i as usize] = announced;
                }
            })
            .unwrap();
            assert!(replied.iter().all(|&at| at > 0), "n={n}");
            for a in 1..=announcements {
                for (i, &at) in replied.iter().enumerate() {
                    assert_eq!(record.active_at(i, a), at >= a, "n={n} a={a} i={i}");
                }
            }
            let mut scratch = RoundScratch::new();
            for a in 1..=announcements {
                let sub = record.sub_frame(a);
                let active = || {
                    parts
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (p.id, p.counter, !record.active_at(i, a)))
                };
                scratch.load(active());
                let got = scratch.run_matching(f, ch.nonces(), a, sub, &bs).unwrap();
                assert_eq!(got, Some(announcements), "n={n} f={f_raw} a={a}");
                // Recorded from `a`, the round is the full record's tail.
                scratch.load(active());
                let tail = scratch.run_recorded(f, ch.nonces(), a, sub, &bs).unwrap();
                assert_eq!(tail.steps[..], record.steps[(a - 1) as usize..]);
                assert!(tail.departure.is_none());
                for (i, &retired) in tail.retired_at.iter().enumerate() {
                    let expected = if record.active_at(i, a) {
                        record.retired_at[i]
                    } else {
                        0
                    };
                    assert_eq!(retired, expected, "n={n} f={f_raw} a={a} i={i}");
                }
                for bit in [sub.start as usize, f.as_usize() - 1] {
                    scratch.load(active());
                    let got = scratch
                        .run_matching(f, ch.nonces(), a, sub, &flipped(&bs, bit))
                        .unwrap();
                    assert_eq!(got, None, "n={n} f={f_raw} a={a} bit={bit}");
                }
            }
        }
    }

    /// Decides the hypothesis that gives tag `i` of `set` base `base`
    /// (`None`: absent) on top of `record`, as the diagnosis does: the
    /// walk, and a replay of the active set from the record's departure
    /// when the walk cannot decide. Load indices are `set` indices.
    fn decided(
        scratch: &mut RoundScratch,
        record: &Trajectory,
        set: &[(TagId, Counter)],
        (i, base): (usize, Option<u64>),
        ch: &UtrpChallenge,
        field: &Bitstring,
    ) -> (Walk, Option<u64>) {
        let walk = record.walk(i, set[i].0.fold64(), base);
        let got = match walk {
            Walk::Rejected => None,
            Walk::Matches(announcements) => Some(announcements),
            Walk::Departs { at, tag } => {
                let base = base.filter(|_| tag != AtDeparture::Retired);
                scratch.load(set.iter().enumerate().map(|(j, &(id, ct))| {
                    let base = if j == i {
                        base
                    } else {
                        record.active_at(j, at).then_some(ct.get())
                    };
                    (id, base.map_or(ct, Counter::new), base.is_none())
                }));
                let sub = record.sub_frame(at);
                scratch
                    .run_matching(ch.frame_size(), ch.nonces(), at, sub, field)
                    .unwrap()
            }
        };
        (walk, got)
    }

    /// A random registry of 2–24 tags with uniform or mixed counters.
    fn random_registry(rng: &mut StdRng, mixed: bool) -> Vec<(TagId, Counter)> {
        let n = rng.gen_range(2..=24usize);
        let base = rng.gen_range(8..1_000u64);
        (0..n)
            .map(|_| {
                let ct = if mixed {
                    base + rng.gen_range(0..6u64)
                } else {
                    base
                };
                (TagId::from(rng.gen::<u64>()), Counter::new(ct))
            })
            .collect()
    }

    /// Fields a diagnosis meets for `registry`'s round: one lagged tag,
    /// two, one stolen, and the mirror with one bit flipped. Those equal
    /// to the mirror's own bitstring are left out.
    fn random_fields(
        rng: &mut StdRng,
        registry: &[(TagId, Counter)],
        ch: &UtrpChallenge,
    ) -> Vec<Bitstring> {
        let n = registry.len();
        let mut rounds = RoundScratch::new();
        let mut run = |parts: &[(TagId, Counter)]| {
            rounds.load_pairs(parts.iter().copied());
            rounds.run(ch.frame_size(), ch.nonces()).unwrap();
            rounds.take_bitstring()
        };
        let lagged = |lags: &[(usize, u64)]| {
            let mut field = registry.to_vec();
            for &(k, lag) in lags {
                field[k].1 = Counter::new(field[k].1.get() - lag);
            }
            field
        };
        let (k1, k2) = (rng.gen_range(0..n), rng.gen_range(1..n));
        let k2 = (k1 + k2) % n;
        let mut robbed = registry.to_vec();
        robbed.remove(k1);
        let mirror = run(registry);
        let fields = [
            run(&lagged(&[(k1, rng.gen_range(1..=8))])),
            run(&lagged(&[
                (k1, rng.gen_range(1..=8)),
                (k2, rng.gen_range(1..=8)),
            ])),
            run(&robbed),
            flipped(&mirror, rng.gen_range(0..ch.frame_size().as_usize())),
        ];
        fields
            .into_iter()
            .filter(|field| *field != mirror)
            .collect()
    }

    #[test]
    fn walk_rejects_only_what_the_full_replay_rejects() {
        // For every tag and every lag 1..=8, against fields from a round
        // with one lagged tag, with two, one stolen, and with one
        // flipped bit: a hypothesis the walk rejects must not reproduce
        // the field in a full run, and one it keeps must be decided by
        // the replay from `d` exactly as by the full run. The counters
        // tally, from each hypothesis's own attributed round, the three
        // cases that need the per-step sole-replier flag and the
        // runner-up.
        let mut rng = StdRng::seed_from_u64(71);
        let (mut runner_up, mut retired, mut alone) = (0usize, 0usize, 0usize);
        let mut scratch = RoundScratch::new();
        for case in 0..120 {
            let registry = random_registry(&mut rng, case % 2 == 1);
            let n = registry.len();
            let f = FrameSize::new(rng.gen_range(1..=3 * n as u64)).unwrap();
            let ch = UtrpChallenge::generate(f, &TimingModel::gen2(), &mut rng);
            let nonces = ch.nonces();
            let whole = SubFrame::whole(f);
            for field in random_fields(&mut rng, &registry, &ch) {
                let field = &field;
                scratch.load_pairs(registry.iter().copied());
                let record = scratch.run_recorded(f, nonces, 1, whole, field).unwrap();
                let d = record.departure.expect("a mismatch departs").at;
                for (i, &(_, ct)) in registry.iter().enumerate() {
                    for lag in 1..=8 {
                        let base = ct.get() - lag;
                        let mut hypothesis = registry.clone();
                        hypothesis[i].1 = Counter::new(base);
                        let context = format!("case={case} n={n} f={f} i={i} lag={lag}");

                        scratch.load_pairs(hypothesis.iter().copied());
                        let full = scratch.run_matching(f, nonces, 1, whole, field).unwrap();
                        let (walk, got) = decided(
                            &mut scratch,
                            &record,
                            &registry,
                            (i, Some(base)),
                            &ch,
                            field,
                        );
                        assert_eq!(got, full, "{walk:?}: {context}");
                        if let Walk::Departs { at, .. } = walk {
                            assert_eq!(at, d, "{context}");
                        }

                        let mut replies: Vec<(u64, Vec<u32>)> = Vec::new();
                        scratch.load_pairs(hypothesis.iter().copied());
                        scratch
                            .run_attributed_with(f, nonces, |slot, members| {
                                replies.push((slot, members.to_vec()));
                            })
                            .unwrap();
                        let retires = replies
                            .iter()
                            .position(|(_, members)| members.contains(&(i as u32)))
                            .map_or(u64::MAX, |k| k as u64 + 1);
                        if full.is_some() && record.retired_at[i] == d && record.step(d).sole {
                            if retires < d {
                                retired += 1;
                            } else {
                                runner_up += 1;
                            }
                        }
                        let first_off = replies
                            .iter()
                            .zip(&record.steps)
                            .position(|((slot, _), step)| Some(*slot) != step.reply);
                        if let Some(k) = first_off.filter(|&k| (k as u64) + 1 < d) {
                            let (slot, members) = &replies[k];
                            if *members == [i as u32] && Some(*slot) < record.steps[k].reply {
                                alone += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            runner_up > 0 && retired > 0 && alone > 0,
            "cases reached: runner-up {runner_up}, retired before d {retired}, \
             alone before the recorded reply {alone}"
        );
    }

    #[test]
    fn continuation_decisions_agree_with_full_replays() {
        // Records from later announcements, of the sets a diagnosis
        // records past the mirror's departure `d`: the mirror's active
        // set at `d` from the sub-frame after the field's bit there,
        // that set less `d`'s sole replier from `d`, and the active set
        // at a random announcement less a random tag. For every tag of
        // the registry, removed from the record's set or given a counter
        // (a changed tag when the set has it, an added one when not),
        // the walk and the replay from the record's departure must
        // decide as a full early-exit run of the same set from the
        // record's start. Every walk outcome must be reached.
        let mut rng = StdRng::seed_from_u64(72);
        let mut reached = [0usize; 5];
        let mut scratch = RoundScratch::new();
        for case in 0..80 {
            let registry = random_registry(&mut rng, case % 2 == 1);
            let n = registry.len();
            let f = FrameSize::new(rng.gen_range(1..=3 * n as u64)).unwrap();
            let ch = UtrpChallenge::generate(f, &TimingModel::gen2(), &mut rng);
            let nonces = ch.nonces();
            for field in random_fields(&mut rng, &registry, &ch) {
                let field = &field;
                scratch.load_pairs(registry.iter().copied());
                let mirror = scratch
                    .run_recorded(f, nonces, 1, SubFrame::whole(f), field)
                    .unwrap();
                let departure = mirror.departure.expect("a mismatch departs");
                let d = departure.at;
                // (start, its sub-frame, the mirror's active set at, less)
                let mut starts: Vec<(u64, SubFrame, u64, Option<usize>)> = Vec::new();
                if let Some(sub) = mirror.after_field() {
                    starts.push((d + 1, sub, d, None));
                }
                if let Some((sole, _)) = departure.alone {
                    starts.push((d, mirror.sub_frame(d), d, Some(sole)));
                }
                let a = rng.gen_range(1..mirror.end());
                starts.push((a, mirror.sub_frame(a), a, Some(rng.gen_range(0..n))));
                for (start, sub, at, less) in starts {
                    let kept = |j: usize| Some(j) != less && mirror.active_at(j, at);
                    scratch.load(
                        registry
                            .iter()
                            .enumerate()
                            .map(|(j, &(id, ct))| (id, ct, !kept(j))),
                    );
                    let record = scratch.run_recorded(f, nonces, start, sub, field).unwrap();
                    assert_eq!(record.start, start);
                    for (i, &(_, ct)) in registry.iter().enumerate() {
                        let bases = [None, Some(ct.get())]
                            .into_iter()
                            .chain((0..3).map(|_| Some(ct.get() - rng.gen_range(1..=8u64))));
                        for base in bases {
                            let context =
                                format!("case={case} n={n} f={f} start={start} i={i} {base:?}");
                            scratch.load(registry.iter().enumerate().map(|(j, &(id, ct))| {
                                let base = if j == i {
                                    base
                                } else {
                                    kept(j).then_some(ct.get())
                                };
                                (id, base.map_or(ct, Counter::new), base.is_none())
                            }));
                            let full = scratch.run_matching(f, nonces, start, sub, field).unwrap();
                            let (walk, got) =
                                decided(&mut scratch, &record, &registry, (i, base), &ch, field);
                            assert_eq!(got, full, "{walk:?}: {context}");
                            reached[match walk {
                                Walk::Rejected => 0,
                                Walk::Matches(_) => 1,
                                Walk::Departs { tag, .. } => 2 + tag as usize,
                            }] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            reached.iter().all(|&count| count > 0),
            "rejected, matches, departs retired / active / alone: {reached:?}"
        );
    }

    #[test]
    fn early_exit_run_handles_every_way_a_round_ends() {
        let run = |parts: &[UtrpParticipant], ch: &UtrpChallenge, observed: &Bitstring| {
            let mut scratch = RoundScratch::new();
            scratch.load_participants(parts);
            let whole = SubFrame::whole(ch.frame_size());
            scratch
                .run_matching(ch.frame_size(), ch.nonces(), 1, whole, observed)
                .unwrap()
        };
        let bits =
            |s: &str| Bitstring::from_bools(&s.chars().map(|c| c == '1').collect::<Vec<_>>());

        // A 1-slot frame: one announcement, the slot occupied iff any
        // tag is active.
        let one = challenge(1, 61);
        assert_eq!(run(&audible_parts(3), &one, &bits("1")), Some(1));
        assert_eq!(run(&audible_parts(3), &one, &bits("0")), None);
        assert_eq!(run(&[], &one, &bits("0")), Some(1));
        assert_eq!(run(&[], &one, &bits("1")), None);

        // A silent end: few tags in a wide frame retire before it runs
        // out, and a set bit left after the last reply is a departure.
        let wide = challenge(64, 62);
        let parts = audible_parts(5);
        let mut full = RoundScratch::new();
        full.load_participants(&parts);
        let announcements = full.run(wide.frame_size(), wide.nonces()).unwrap();
        let bs = full.take_bitstring();
        let last = bs.iter_ones().last().unwrap();
        assert!(last + 1 < bs.len(), "the round must end silent");
        assert_eq!(announcements, bs.count_ones() as u64 + 1);
        assert_eq!(run(&parts, &wide, &bs), Some(announcements));
        assert_eq!(run(&parts, &wide, &flipped(&bs, bs.len() - 1)), None);

        // A frame-exhausted end: dense tags occupy the last slot, which
        // ends the round with tags still active.
        let narrow = challenge(8, 63);
        let parts = audible_parts(200);
        full.load_participants(&parts);
        let announcements = full.run(narrow.frame_size(), narrow.nonces()).unwrap();
        let bs = full.take_bitstring();
        assert!(bs.get(bs.len() - 1).unwrap(), "the last slot must reply");
        assert_eq!(announcements, bs.count_ones() as u64);
        assert_eq!(run(&parts, &narrow, &bs), Some(announcements));

        // A wrong-length observation never matches.
        let mut longer = bs.to_bools();
        longer.push(false);
        assert_eq!(run(&parts, &narrow, &Bitstring::from_bools(&longer)), None);
        assert_eq!(
            run(&parts, &narrow, &Bitstring::from_bools(&longer[..6])),
            None
        );
    }
}
