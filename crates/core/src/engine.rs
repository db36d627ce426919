//! The struct-of-arrays UTRP round engine.
//!
//! [`crate::utrp::SubsetRound`] — the original engine — keeps an
//! array-of-structs `Vec<UtrpParticipant>` and walks it through an
//! index indirection (`active: Vec<usize>`) on every announcement. At
//! million-tag populations that layout is the bottleneck: each probe
//! gathers a 24-byte struct through a second cache line, re-folds the
//! 128-bit tag ID, wraps the counter in a newtype, and ends in a
//! 64-bit hardware division — tens of cycles per tag, hundreds of
//! thousands of tags, re-scanned after *every* reply.
//!
//! [`RoundScratch`] re-states the same round over three contiguous
//! arrays:
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
//! `Trajectory` of the mirror round, along which a single changed tag
//! can be walked alone, and an early-exit replay
//! (`RoundScratch::run_matching`) that resumes at any recorded
//! announcement and stops at the first reply off the field's
//! bitstring.
//!
//! ## Semantics
//!
//! Byte-identical to [`crate::utrp::simulate_round_reference`], the
//! literal Algs. 6–7 execution: same bitstring, same announcement
//! count, same post-round counters. The differential and property
//! tests in [`crate::utrp`] pin the agreement across population sizes,
//! frame shapes, counter states, and mute subsets.

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
#[derive(Debug, Clone, Copy)]
struct Step {
    sub: SubFrame,
    nonce: u64,
    /// The global reply slot; `None` for the silent last announcement.
    reply: Option<u64>,
    /// Whether the field's bitstring has the reply slot empty.
    dropped: bool,
}

/// A recorded UTRP round, kept for desync diagnosis
/// ([`RoundScratch::run_recorded`]): per announcement its sub-frame,
/// nonce and reply slot; per tag (by load index) the announcement it
/// replied in; and the first announcement whose reply departs from the
/// field's bitstring.
///
/// A hypothesis that changes one tag's counter replays this round
/// exactly until that tag picks a slot the record did not: every other
/// tag sees the same nonces, sub-frames and counters. So
/// [`Trajectory::first_change`] probes only that one tag per
/// announcement, and the whole active set is scanned only from the
/// announcement where the hypothesis parts from the record.
#[derive(Debug)]
pub(crate) struct Trajectory {
    steps: Vec<Step>,
    /// Per load index: the 1-based announcement of the tag's reply, or
    /// 0 when the frame ran out before it replied.
    retired_at: Vec<u64>,
    /// The 1-based announcement whose reply first departs from the
    /// field's bitstring; `steps.len() + 1` when the round reproduces
    /// it.
    diverged: u64,
}

impl Trajectory {
    /// Whether tag `i` replied into a slot the field's bitstring has
    /// empty: the only tags a deep lag can explain.
    pub(crate) fn dropped(&self, i: usize) -> bool {
        let a = self.retired_at[i] as usize;
        a > 0 && self.steps[a - 1].dropped
    }

    /// Whether tag `i` is still active at announcement `a`.
    pub(crate) fn active_at(&self, i: usize, a: u64) -> bool {
        let retired = self.retired_at[i];
        retired == 0 || retired >= a
    }

    /// The sub-frame of announcement `a` (1-based).
    pub(crate) fn sub_frame(&self, a: u64) -> SubFrame {
        self.steps[a as usize - 1].sub
    }

    /// The first announcement at which tag `i`, with pre-round counter
    /// `base` in place of its recorded one, would change the recorded
    /// round: it replies before the recorded reply, joins the reply
    /// set, or leaves the reply set it was recorded in. The walk probes
    /// the tag as the scan kernel does, `mix64(folded ⊕ r ⊕ mix64(base
    /// + a)) mod f'`.
    ///
    /// `None` when the tag changes nothing up to its recorded reply (the
    /// hypothesis is the recorded round) or up to the round's first
    /// departure from the field (the hypothesis departs there too).
    /// Either way it cannot reproduce a bitstring the record departs
    /// from.
    pub(crate) fn first_change(&self, i: usize, folded: u64, base: u64) -> Option<u64> {
        let retired = self.retired_at[i];
        let last = if retired == 0 {
            self.diverged
        } else {
            retired.min(self.diverged)
        };
        for (a, step) in (1..=last).zip(&self.steps) {
            // An active tag always replies somewhere, so the walk never
            // reaches a silent announcement.
            let reply = step.reply?;
            let ct = mix64(base.wrapping_add(a));
            let slot = step.sub.start + step.sub.frame.rem(mix64(folded ^ step.nonce ^ ct));
            if a == retired {
                return (slot != reply).then_some(a);
            }
            if slot <= reply {
                return Some(a);
            }
        }
        None
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

    /// Loads from [`UtrpParticipant`]s (counters at pre-round values).
    pub fn load_participants(&mut self, parts: &[UtrpParticipant]) {
        self.load(parts.iter().map(|p| (p.id, p.counter, p.mute)));
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

    /// [`RoundScratch::run`] that records the round's [`Trajectory`]
    /// against the field's `observed` bitstring, naming tags by load
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if `observed` is not `f`
    /// bits long, and otherwise as [`RoundScratch::run`].
    pub(crate) fn run_recorded(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        observed: &Bitstring,
    ) -> Result<Trajectory, CoreError> {
        if observed.len() != f.as_usize() {
            return Err(CoreError::LengthMismatch {
                left: f.as_usize(),
                right: observed.len(),
            });
        }
        let mut replies: Vec<u64> = Vec::new();
        let mut retired_at = vec![0u64; self.loaded()];
        let announcements = self.run_attributed_with(f, nonces, |slot, members| {
            replies.push(slot);
            for &i in members {
                retired_at[i as usize] = replies.len() as u64;
            }
        })?;
        let mut steps = Vec::with_capacity(announcements as usize);
        let mut sub = SubFrame::whole(f);
        for (k, nonce) in nonces.iter().take(announcements as usize).enumerate() {
            let reply = replies.get(k).copied();
            let dropped =
                reply.is_some_and(|slot| matches!(observed.get(slot as usize), Ok(false)));
            steps.push(Step {
                sub,
                nonce: nonce.as_u64(),
                reply,
                dropped,
            });
            if let Some(slot) = reply.filter(|&slot| slot + 1 < f.get()) {
                sub = SubFrame {
                    start: slot + 1,
                    frame: FastMod::from_divisor(f.get() - (slot + 1)),
                };
            }
        }
        let diverged = steps
            .iter()
            .position(|s| observed.next_one(s.sub.start as usize).map(|i| i as u64) != s.reply)
            .unwrap_or(steps.len()) as u64
            + 1;
        Ok(Trajectory {
            steps,
            retired_at,
            diverged,
        })
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
    use crate::utrp::{simulate_round_reference, UtrpChallenge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
            let mut reference = parts.clone();
            let expected =
                simulate_round_reference(&mut reference, ch.frame_size(), ch.nonces()).unwrap();

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
        // with the reference bit-for-bit.
        let ch = challenge(128, 7);
        for bump in [0u64, 1] {
            let mut parts: Vec<UtrpParticipant> = (1..=60u64)
                .map(|i| UtrpParticipant::new(TagId::from(i), Counter::new(41)))
                .collect();
            parts[17].counter = Counter::new(41 + bump);
            let mut reference = parts.clone();
            let expected =
                simulate_round_reference(&mut reference, ch.frame_size(), ch.nonces()).unwrap();
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
            let record = full.run_recorded(f, ch.nonces(), &bs).unwrap();
            let mut scratch = RoundScratch::new();
            for a in 1..=announcements {
                let sub = record.sub_frame(a);
                let active = || {
                    parts
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| record.active_at(i, a))
                        .map(|(_, p)| (p.id, p.counter))
                };
                scratch.load_pairs(active());
                let got = scratch.run_matching(f, ch.nonces(), a, sub, &bs).unwrap();
                assert_eq!(got, Some(announcements), "n={n} f={f_raw} a={a}");
                for bit in [sub.start as usize, f.as_usize() - 1] {
                    scratch.load_pairs(active());
                    let got = scratch
                        .run_matching(f, ch.nonces(), a, sub, &flipped(&bs, bit))
                        .unwrap();
                    assert_eq!(got, None, "n={n} f={f_raw} a={a} bit={bit}");
                }
            }
        }
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
