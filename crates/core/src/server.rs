//! The monitoring server.
//!
//! The server owns the ground truth: the registry of tag IDs (and, for
//! UTRP, a mirror of every tag's hardware counter), the monitoring
//! policy `(m, α)`, and the challenge/verify lifecycle. Challenges are
//! consumed by value at verification so no `(f, r)` can be replayed —
//! the paper's freshness requirement enforced by the type system.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;

use rand::Rng;

use tagwatch_sim::{Counter, FrameSize, TagId, TimingModel};

use crate::bitstring::Bitstring;
use crate::engine::{AtDeparture, RoundEngine, RoundScratch, SubFrame, Trajectory, Walk};
use crate::error::CoreError;
use crate::frame::{trp_frame_size, utrp_frame_size, UtrpSizing};
use crate::params::MonitorParams;
use crate::trp::{self, TrpChallenge};
use crate::utrp::{UtrpChallenge, UtrpResponse};
use crate::verdict::{MonitorReport, ProtocolKind, Verdict};

/// Configuration for a [`MonitorServer`] beyond the core policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Timing model used to derive UTRP deadlines.
    pub timing: TimingModel,
    /// UTRP frame sizing knobs (sync budget `c`, safety pad).
    pub utrp_sizing: UtrpSizing,
    /// How far the desync diagnosis searches (in announcements) when a
    /// UTRP bitstring mismatches: counter leads/lags of `1..=window`
    /// are hypothesized and tested for an exact bitstring match. `0`
    /// (the default) disables diagnosis — every mismatch alarms as
    /// [`Verdict::NotIntact`].
    ///
    /// Diagnosis is deliberately **opt-in**: a colluding reader holding
    /// a stolen tag produces the *same* single-lag signature as a tag
    /// that benignly missed an announcement (the stolen tag genuinely
    /// lags), so enabling a window lets some collusion rounds end
    /// [`Verdict::Desynced`] instead of alarming outright. The verdict
    /// is still a detection — the set is never accepted as intact and
    /// the named suspect fails its physical check — but the paper's
    /// *per-round alarm* rate against colluders only holds at `0`.
    /// Deployments that enable it should pair it with the session
    /// layer's strike/quarantine ladder.
    pub desync_window: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            timing: TimingModel::gen2(),
            utrp_sizing: UtrpSizing::default(),
            desync_window: 0,
        }
    }
}

/// A diagnosed explanation for a mismatched UTRP round, held by the
/// server until [`MonitorServer::resync_from_hypothesis`] applies it
/// (optimistic recovery — the next round confirms or refutes it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResyncHypothesis {
    /// Every tag's true counter leads the mirror by `lead` (the mirror
    /// missed a whole round's advance, e.g. the reader crashed after
    /// announcing but before its response was verified).
    UniformLead {
        /// Announcements the mirror is behind by.
        lead: u64,
        /// Announcements of the matching hypothesized round (the field
        /// tags advanced by this much *during* the diagnosed round).
        announcements: u64,
    },
    /// One tag's true counter lags the mirror by `lag` (it missed
    /// downlink announcements in an earlier round).
    SingleLag {
        /// The lagging tag.
        tag: TagId,
        /// Announcements it missed.
        lag: u64,
        /// Announcements of the matching hypothesized round.
        announcements: u64,
    },
}

impl ResyncHypothesis {
    /// The tags this hypothesis singles out (empty for a uniform lead).
    #[must_use]
    pub fn suspects(&self) -> Vec<TagId> {
        match self {
            ResyncHypothesis::UniformLead { .. } => Vec::new(),
            ResyncHypothesis::SingleLag { tag, .. } => vec![*tag],
        }
    }
}

/// The back-end server of the monitoring system.
///
/// ```rust
/// use rand::SeedableRng;
/// use tagwatch_core::MonitorServer;
/// use tagwatch_sim::TagId;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let ids: Vec<TagId> = (1..=500u64).map(TagId::from).collect();
/// let mut server = MonitorServer::new(ids, 10, 0.95)?;
///
/// let challenge = server.issue_trp_challenge(&mut rng)?;
/// // ... field: reader scans tags, returns a bitstring ...
/// # let bs = tagwatch_core::trp::expected_bitstring(&server.registered_ids(), &challenge);
/// let report = server.verify_trp(challenge, &bs)?;
/// assert!(report.verdict.is_intact());
/// # Ok::<(), tagwatch_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MonitorServer {
    params: MonitorParams,
    config: ServerConfig,
    registry: BTreeMap<TagId, Counter>,
    counters_synced: bool,
    pending_resync: Option<ResyncHypothesis>,
    history: Vec<MonitorReport>,
    // Reusable mirror-simulation state: verify_utrp predicts the
    // expected round into this scratch every tick, so the hot path
    // performs no per-round allocation (buffers grow to the registry
    // size once and stay).
    scratch: RoundScratch,
    // Eq. 2 and Eq. 3 frames, each solved by the first challenge of its
    // protocol (or an earlier `trp_frame` / `utrp_frame` call). Their
    // inputs (`params`, `config.utrp_sizing`) are set only in
    // `with_config`, so one answer (or one sizing error) serves every
    // later challenge.
    trp_frame: OnceCell<Result<FrameSize, CoreError>>,
    utrp_frame: OnceCell<Result<FrameSize, CoreError>>,
}

impl MonitorServer {
    /// Creates a server monitoring `ids` with tolerance `m` and
    /// confidence `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for duplicate IDs or an
    /// invalid `(n, m, alpha)` combination (see [`MonitorParams::new`]).
    pub fn new<I: IntoIterator<Item = TagId>>(
        ids: I,
        m: u64,
        alpha: f64,
    ) -> Result<Self, CoreError> {
        Self::with_config(ids, m, alpha, ServerConfig::default())
    }

    /// [`MonitorServer::new`] with explicit timing and sizing knobs.
    ///
    /// # Errors
    ///
    /// Same as [`MonitorServer::new`].
    pub fn with_config<I: IntoIterator<Item = TagId>>(
        ids: I,
        m: u64,
        alpha: f64,
        config: ServerConfig,
    ) -> Result<Self, CoreError> {
        let mut registry = BTreeMap::new();
        for id in ids {
            if registry.insert(id, Counter::ZERO).is_some() {
                return Err(CoreError::InvalidParams {
                    reason: format!("duplicate tag id {id} in registry"),
                });
            }
        }
        let params = MonitorParams::new(registry.len() as u64, m, alpha)?;
        Ok(MonitorServer {
            params,
            config,
            registry,
            counters_synced: true,
            pending_resync: None,
            history: Vec::new(),
            scratch: RoundScratch::new(),
            trp_frame: OnceCell::new(),
            utrp_frame: OnceCell::new(),
        })
    }

    /// The monitoring policy.
    #[must_use]
    pub fn params(&self) -> MonitorParams {
        self.params
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of registered tags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether the registry is empty (never true for a constructed
    /// server, which requires `n ≥ 1`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }

    /// All registered IDs, ascending.
    #[must_use]
    pub fn registered_ids(&self) -> Vec<TagId> {
        self.registry.keys().copied().collect()
    }

    /// The mirrored counter for one tag.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTag`] for unregistered IDs.
    pub fn counter_of(&self, id: TagId) -> Result<Counter, CoreError> {
        self.registry
            .get(&id)
            .copied()
            .ok_or_else(|| CoreError::UnknownTag { id: id.to_string() })
    }

    /// Whether the counter mirror is trusted (see
    /// [`CoreError::CounterDesync`]).
    #[must_use]
    pub fn counters_synced(&self) -> bool {
        self.counters_synced
    }

    /// Every verification this server has performed, in order.
    #[must_use]
    pub fn history(&self) -> &[MonitorReport] {
        &self.history
    }

    /// Reports that raised an alarm.
    #[must_use]
    pub fn alarms(&self) -> Vec<&MonitorReport> {
        self.history.iter().filter(|r| r.is_alarm()).collect()
    }

    // ------------------------------------------------------------------
    // TRP
    // ------------------------------------------------------------------

    /// Issues a fresh TRP challenge: frame sized by Eq. 2, random nonce.
    ///
    /// The frame is solved once per server, by its first TRP challenge;
    /// later challenges reuse it and draw only the nonce from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoFeasibleFrame`] if sizing fails
    /// (practically unreachable for valid parameters).
    pub fn issue_trp_challenge<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<TrpChallenge, CoreError> {
        Ok(TrpChallenge::generate(self.trp_frame()?, rng))
    }

    /// The frame every TRP challenge of this server uses (Eq. 2),
    /// solved by the first call and remembered. A monitoring session
    /// calls it when it is built, so that the solve runs outside its
    /// ticks.
    ///
    /// # Errors
    ///
    /// Same as [`MonitorServer::issue_trp_challenge`].
    pub fn trp_frame(&self) -> Result<FrameSize, CoreError> {
        self.trp_frame
            .get_or_init(|| trp_frame_size(&self.params))
            .clone()
    }

    /// Verifies a TRP response, consuming the challenge.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ResponseShapeMismatch`] if the bitstring
    /// length disagrees with the challenge.
    pub fn verify_trp(
        &mut self,
        challenge: TrpChallenge,
        observed: &Bitstring,
    ) -> Result<MonitorReport, CoreError> {
        let report = trp::verify_ids(self.registry.keys().copied(), challenge, observed)?;
        self.history.push(report.clone());
        Ok(report)
    }

    // ------------------------------------------------------------------
    // UTRP
    // ------------------------------------------------------------------

    /// Issues a fresh UTRP challenge: frame sized by Eq. 3 (plus the
    /// configured pad), a committed nonce sequence, and a deadline.
    ///
    /// The frame is solved once per server, by its first UTRP
    /// challenge (a sizing error is remembered the same way); later
    /// challenges reuse it, so the RNG stream is that of
    /// [`MonitorServer::issue_utrp_challenge_with_frame`] at that frame.
    ///
    /// # Errors
    ///
    /// * [`CoreError::CounterDesync`] — a previous UTRP round failed, so
    ///   the counter mirror cannot be trusted; call
    ///   [`MonitorServer::resync_counters`] after a physical audit.
    /// * [`CoreError::InvalidParams`] / [`CoreError::NoFeasibleFrame`] —
    ///   sizing failures.
    pub fn issue_utrp_challenge<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<UtrpChallenge, CoreError> {
        self.issue_utrp_challenge_with_frame(self.utrp_frame()?, rng)
    }

    /// The frame every UTRP challenge of this server uses (Eq. 3 plus
    /// the configured pad), solved by the first call and remembered
    /// like [`MonitorServer::trp_frame`]; a sizing error is remembered
    /// the same way.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParams`] / [`CoreError::NoFeasibleFrame`] —
    /// sizing failures.
    pub fn utrp_frame(&self) -> Result<FrameSize, CoreError> {
        self.utrp_frame
            .get_or_init(|| utrp_frame_size(&self.params, self.config.utrp_sizing))
            .clone()
    }

    /// Issues a UTRP challenge with an explicit frame size.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CounterDesync`] when the mirror is
    /// untrusted.
    pub fn issue_utrp_challenge_with_frame<R: Rng + ?Sized>(
        &self,
        f: FrameSize,
        rng: &mut R,
    ) -> Result<UtrpChallenge, CoreError> {
        if !self.counters_synced {
            return Err(CoreError::CounterDesync);
        }
        Ok(UtrpChallenge::generate(f, &self.config.timing, rng))
    }

    /// Verifies a UTRP response, consuming the challenge.
    ///
    /// The server recomputes the expected round from its registry
    /// mirror. A response is accepted only if it arrived within the
    /// deadline *and* matches bit-for-bit; on success the counter mirror
    /// advances by the round's announcement count.
    ///
    /// A timely mismatch is first run through a bounded desync
    /// diagnosis (see [`ServerConfig::desync_window`]): if the observed
    /// bitstring is *exactly* the round an intact population would have
    /// produced under a hypothesized counter lead/lag, the verdict is
    /// [`Verdict::Desynced`] and the hypothesis is held for
    /// [`MonitorServer::resync_from_hypothesis`]. Either way the mirror
    /// is marked desynchronized — a desynced round never silently
    /// passes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ResponseShapeMismatch`] for a wrong-length
    /// bitstring.
    pub fn verify_utrp(
        &mut self,
        challenge: UtrpChallenge,
        response: &UtrpResponse,
    ) -> Result<MonitorReport, CoreError> {
        // Mirror prediction runs in the server's reusable scratch.
        // (Taken out of `self` for the duration to keep the borrow
        // checker happy about the simultaneous registry iteration.)
        let mut scratch = std::mem::take(&mut self.scratch);
        let report = self.verify_utrp_with(challenge, response, &mut scratch);
        self.scratch = scratch;
        report
    }

    /// [`MonitorServer::verify_utrp`] with a caller-owned
    /// [`RoundEngine`] for the mirror prediction — the injection point
    /// that lets the pooled sharded engine serve the verify side too,
    /// so a million-tag mirror round parallelizes exactly like the
    /// field round. Verdicts are engine-independent: every engine is
    /// bit-identical by contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ResponseShapeMismatch`] for a wrong-length
    /// bitstring.
    pub fn verify_utrp_with<E: RoundEngine>(
        &mut self,
        challenge: UtrpChallenge,
        response: &UtrpResponse,
        engine: &mut E,
    ) -> Result<MonitorReport, CoreError> {
        let f = challenge.frame_size().get();
        if response.bitstring.len() as u64 != f {
            return Err(CoreError::ResponseShapeMismatch {
                expected: f,
                received: response.bitstring.len() as u64,
            });
        }
        // The registry is streamed straight from the BTreeMap into the
        // engine's arrays — no intermediate Vec, no fresh bitstring.
        engine.load_pairs(self.registry.iter().map(|(&id, &ct)| (id, ct)));
        let announcements = engine.run(challenge.frame_size(), challenge.nonces())?;
        let late = !challenge.timer().accepts(response.elapsed);
        let mismatched = engine.bitstring().hamming_distance(&response.bitstring)?;

        let verdict = if late {
            // A blown deadline is the paper's collusion signal; no
            // counter hypothesis can excuse it.
            self.pending_resync = None;
            Verdict::NotIntact
        } else if mismatched == 0 {
            Verdict::Intact
        } else {
            // Diagnosis is the cold path: only now materialize the
            // registry as a Vec for the hypothesis search.
            let registry: Vec<(TagId, Counter)> =
                self.registry.iter().map(|(&id, &ct)| (id, ct)).collect();
            if let Some(hypothesis) = Self::diagnose_desync(
                self.config.desync_window,
                &registry,
                &challenge,
                &response.bitstring,
            )? {
                let suspects = hypothesis.suspects();
                self.pending_resync = Some(hypothesis);
                Verdict::Desynced { suspects }
            } else {
                self.pending_resync = None;
                Verdict::NotIntact
            }
        };

        if verdict.is_intact() {
            for ct in self.registry.values_mut() {
                *ct = Counter::new(ct.get().wrapping_add(announcements));
            }
        } else {
            self.counters_synced = false;
        }

        let report = MonitorReport {
            protocol: ProtocolKind::Utrp,
            verdict,
            frame_size: f,
            mismatched_slots: mismatched,
            late,
            elapsed: Some(response.elapsed),
        };
        self.history.push(report.clone());
        Ok(report)
    }

    /// Searches the bounded hypothesis space for a counter
    /// desynchronization that explains `observed` *exactly*. `observed`
    /// must differ from the mirror's own prediction (verification only
    /// diagnoses mismatches).
    ///
    /// Two shapes are considered, cheapest first:
    ///
    /// 1. **Uniform lead** — every tag's true counter is `d` ahead of
    ///    the mirror (the mirror missed a whole round's advance, e.g.
    ///    the reader crashed between announcing and being verified).
    /// 2. **Single lag** — one tag is `d` behind the mirror (it missed
    ///    `d` downlink announcements). Searched lag-major so the
    ///    smallest (most parsimonious) lag wins; shallow lags try every
    ///    tag, deeper lags only the tags the mirror expected in a slot
    ///    that came back empty.
    ///
    /// Requiring an exact bitstring match keeps this fail-safe: a theft
    /// of more than one tag, or any reply the mirror cannot predict,
    /// leaves residual mismatches under every hypothesis and the round
    /// alarms as [`Verdict::NotIntact`].
    ///
    /// Each hypothesis costs only what it changes. A uniform lead is
    /// replayed with an early exit at its first reply off `observed`,
    /// from a copy of the registry folded once. A single lag is decided
    /// by walking its one tag along the recorded mirror round
    /// ([`crate::engine::Trajectory::walk`]) up to the record's first
    /// departure `d` from `observed`, one probe per announcement: before
    /// `d` every recorded reply is a set bit of `observed`, so a
    /// hypothesis that reproduces it leaves every other tag as
    /// recorded. Past `d` a survivor is one of two rounds whatever its
    /// lag, each recorded once: the mirror's active set at `d` from the
    /// sub-frame after `observed`'s bit, when the lagged tag alone makes
    /// that reply (the survivor is that round without the tag), or that
    /// set without the tag from `d`, when the tag was `d`'s sole
    /// recorded replier and the runner-up makes the reply (the survivor
    /// is that round plus the tag while it stays active). The tag is
    /// walked along that record in turn, and the active set is replayed
    /// only from the record's own departure. The verdicts are those of
    /// re-simulating every hypothesis in full.
    fn diagnose_desync(
        window: u64,
        registry: &[(TagId, Counter)],
        challenge: &UtrpChallenge,
        observed: &Bitstring,
    ) -> Result<Option<ResyncHypothesis>, CoreError> {
        if window == 0 {
            return Ok(None);
        }
        let (f, nonces) = (challenge.frame_size(), challenge.nonces());
        let mut loaded = RoundScratch::new();
        loaded.load_pairs(registry.iter().copied());
        let mut scratch = RoundScratch::new();

        // Hypothesis 1: the whole population uniformly leads the mirror.
        let whole = SubFrame::whole(f);
        for lead in 1..=window {
            scratch.load_shifted(&loaded, lead);
            if let Some(announcements) = scratch.run_matching(f, nonces, 1, whole, observed)? {
                return Ok(Some(ResyncHypothesis::UniformLead {
                    lead,
                    announcements,
                }));
            }
        }

        // Hypothesis 2: exactly one tag lags the mirror. Record the
        // mirror round once; only tags it placed in a slot that came
        // back empty can lag deeply.
        scratch.load_shifted(&loaded, 0);
        let mirror = scratch.run_recorded(f, nonces, 1, whole, observed)?;
        // Loads the registry as `record` has it active at announcement
        // `at`, with `changed` giving one tag's base (`None`: absent).
        let load_at = |scratch: &mut RoundScratch,
                       record: &Trajectory,
                       at: u64,
                       changed: Option<(usize, Option<u64>)>| {
            scratch.load(registry.iter().enumerate().map(|(j, &(id, ct))| {
                let base = match changed {
                    Some((i, base)) if i == j => base,
                    _ => record.active_at(j, at).then_some(ct.get()),
                };
                (id, base.map_or(ct, Counter::new), base.is_none())
            }));
        };
        // Walks tag `i` at `base` along `record`, replaying from the
        // record's departure when the walk cannot decide.
        let decide = |scratch: &mut RoundScratch,
                      record: &Trajectory,
                      i: usize,
                      folded: u64,
                      base: Option<u64>| {
            match record.walk(i, folded, base) {
                Walk::Rejected => Ok(None),
                Walk::Matches(announcements) => Ok(Some(announcements)),
                Walk::Departs { at, tag } => {
                    let base = base.filter(|_| tag != AtDeparture::Retired);
                    load_at(scratch, record, at, Some((i, base)));
                    scratch.run_matching(f, nonces, at, record.sub_frame(at), observed)
                }
            }
        };
        // The two rounds past the mirror's departure, recorded on first
        // use: the lagged tag alone made the reply, or the runner-up did.
        let (mut alone, mut runner_up): (Option<Trajectory>, Option<Trajectory>) = (None, None);
        // Lag-major search: the smallest lag that explains the round
        // wins. A wrong tag can collide into an exact match by chance
        // at some deep lag (the hash takes arbitrary counter values),
        // so testing every tag at lag 1 before anyone at lag 2 keeps
        // the true, parsimonious hypothesis ahead of such flukes.
        //
        // At shallow lags (<= 4) every tag is tried — a lagging tag
        // whose expected slot was shared leaves no empty slot to
        // attribute. Deeper lags only test the attributed candidates.
        const SHALLOW: u64 = 4;
        let every: Vec<usize> = (0..registry.len()).collect();
        let deep: Vec<usize> = every
            .iter()
            .copied()
            .filter(|&i| mirror.dropped(i))
            .collect();
        for lag in 1..=window {
            for &i in if lag <= SHALLOW { &every } else { &deep } {
                let (tag, ct) = registry[i];
                let base = ct.get().wrapping_sub(lag);
                let folded = tag.fold64();
                let matched = match mirror.walk(i, folded, Some(base)) {
                    Walk::Rejected => None,
                    Walk::Matches(announcements) => Some(announcements),
                    Walk::Departs {
                        at,
                        tag: AtDeparture::Alone,
                    } => match mirror.after_field() {
                        // The lagged tag's reply fills the frame's last slot.
                        None => Some(at),
                        Some(sub) => {
                            let record = match alone {
                                Some(ref record) => record,
                                None => {
                                    load_at(&mut scratch, &mirror, at, None);
                                    alone.insert(scratch.run_recorded(
                                        f,
                                        nonces,
                                        at + 1,
                                        sub,
                                        observed,
                                    )?)
                                }
                            };
                            decide(&mut scratch, record, i, folded, None)?
                        }
                    },
                    Walk::Departs { at, tag: state } => {
                        // Only `d`'s sole recorded replier gets here.
                        let record = match runner_up {
                            Some(ref record) => record,
                            None => {
                                load_at(&mut scratch, &mirror, at, Some((i, None)));
                                runner_up.insert(scratch.run_recorded(
                                    f,
                                    nonces,
                                    at,
                                    mirror.sub_frame(at),
                                    observed,
                                )?)
                            }
                        };
                        let base = Some(base).filter(|_| state == AtDeparture::Active);
                        decide(&mut scratch, record, i, folded, base)?
                    }
                };
                if let Some(announcements) = matched {
                    return Ok(Some(ResyncHypothesis::SingleLag {
                        tag,
                        lag,
                        announcements,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// The desync hypothesis held from the last [`Verdict::Desynced`]
    /// round, if any.
    #[must_use]
    pub fn pending_resync(&self) -> Option<&ResyncHypothesis> {
        self.pending_resync.as_ref()
    }

    /// Applies the pending desync hypothesis to the counter mirror and
    /// marks it synchronized, returning the suspect tags (empty for a
    /// uniform lead).
    ///
    /// This is *optimistic* recovery: the mirror is corrected to what
    /// the hypothesis says the field looks like, and the next UTRP
    /// round (with fresh nonces) confirms or refutes it. A wrong
    /// hypothesis mismatches again and re-desyncs — the set is never
    /// silently accepted as intact on the strength of a hypothesis
    /// alone.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoResyncHypothesis`] when the last round was
    /// not diagnosed as a desync (use [`MonitorServer::resync_counters`]
    /// with a physical audit instead).
    pub fn resync_from_hypothesis(&mut self) -> Result<Vec<TagId>, CoreError> {
        let hypothesis = self
            .pending_resync
            .take()
            .ok_or(CoreError::NoResyncHypothesis)?;
        let suspects = hypothesis.suspects();
        match hypothesis {
            ResyncHypothesis::UniformLead {
                lead,
                announcements,
            } => {
                // Catch the mirror up by the missed lead, then apply
                // the diagnosed round's advance that verify_utrp
                // withheld when it refused to pass the round.
                for ct in self.registry.values_mut() {
                    *ct = Counter::new(ct.get().wrapping_add(lead).wrapping_add(announcements));
                }
            }
            ResyncHypothesis::SingleLag {
                tag,
                lag,
                announcements,
            } => {
                for (&id, ct) in &mut self.registry {
                    let base = if id == tag {
                        ct.get().wrapping_sub(lag)
                    } else {
                        ct.get()
                    };
                    *ct = Counter::new(base.wrapping_add(announcements));
                }
            }
        }
        self.counters_synced = true;
        Ok(suspects)
    }

    /// Captures a durable image of the server's state (see
    /// [`crate::registry`]).
    #[must_use]
    pub fn snapshot(&self) -> crate::registry::RegistrySnapshot {
        crate::registry::RegistrySnapshot {
            tolerance: self.params.tolerance(),
            alpha: self.params.confidence(),
            counters_synced: self.counters_synced,
            entries: self.registry.iter().map(|(&id, &ct)| (id, ct)).collect(),
        }
    }

    /// Restores a server from a snapshot (verification history is not
    /// persisted; it restarts empty). A server restored from
    /// [`MonitorServer::snapshot`] issues and verifies exactly as the
    /// original would, which the soak checkpoint's warm restart relies
    /// on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] if the snapshot's policy or
    /// ID set fails validation.
    pub fn from_snapshot(
        snapshot: crate::registry::RegistrySnapshot,
        config: ServerConfig,
    ) -> Result<Self, CoreError> {
        let mut server = MonitorServer::with_config(
            snapshot.entries.iter().map(|&(id, _)| id),
            snapshot.tolerance,
            snapshot.alpha,
            config,
        )?;
        for (id, ct) in snapshot.entries {
            *server
                .registry
                .get_mut(&id)
                // lint:allow(s2-panic): every id was inserted into the registry by the with_config call directly above; the two loops iterate the same snapshot entries
                .expect("ids inserted just above") = ct;
        }
        server.counters_synced = snapshot.counters_synced;
        Ok(server)
    }

    /// Restores the counter mirror from a trusted physical audit and
    /// marks it synchronized.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTag`] if the audit mentions an
    /// unregistered tag; registered tags absent from the audit keep
    /// their current mirror value.
    pub fn resync_counters<I: IntoIterator<Item = (TagId, Counter)>>(
        &mut self,
        audited: I,
    ) -> Result<(), CoreError> {
        for (id, ct) in audited {
            match self.registry.get_mut(&id) {
                Some(slot) => *slot = ct,
                None => {
                    return Err(CoreError::UnknownTag { id: id.to_string() });
                }
            }
        }
        // The audit supersedes any diagnosed hypothesis.
        self.pending_resync = None;
        self.counters_synced = true;
        Ok(())
    }
}

impl fmt::Display for MonitorServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "monitor server: {} tags, {}, {} verifications, {} alarms",
            self.registry.len(),
            self.params,
            self.history.len(),
            self.alarms().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trp::observed_bitstring;
    use crate::utrp::{attributed_round, expected_round, run_honest_reader};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::TagPopulation;

    fn ids(n: u64) -> Vec<TagId> {
        (1..=n).map(TagId::from).collect()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn construction_validates() {
        assert!(MonitorServer::new(ids(100), 5, 0.95).is_ok());
        assert!(MonitorServer::new(ids(5), 5, 0.95).is_err());
        let dup = vec![TagId::new(1), TagId::new(1)];
        assert!(matches!(
            MonitorServer::new(dup, 0, 0.9),
            Err(CoreError::InvalidParams { .. })
        ));
    }

    #[test]
    fn trp_round_trip_intact() {
        let mut server = MonitorServer::new(ids(300), 5, 0.95).unwrap();
        let mut r = rng(1);
        let ch = server.issue_trp_challenge(&mut r).unwrap();
        let bs = observed_bitstring(&server.registered_ids(), &ch);
        let report = server.verify_trp(ch, &bs).unwrap();
        assert!(report.verdict.is_intact());
        assert_eq!(server.history().len(), 1);
        assert!(server.alarms().is_empty());
    }

    #[test]
    fn trp_detects_theft_beyond_tolerance() {
        let mut server = MonitorServer::new(ids(300), 5, 0.95).unwrap();
        let mut detected = 0;
        let trials = 300;
        for seed in 0..trials {
            let mut r = rng(seed);
            let ch = server.issue_trp_challenge(&mut r).unwrap();
            let mut pop = TagPopulation::with_sequential_ids(300);
            pop.remove_random(6, &mut r).unwrap();
            let bs = observed_bitstring(&pop.ids(), &ch);
            let report = server.verify_trp(ch, &bs).unwrap();
            if report.is_alarm() {
                detected += 1;
            }
        }
        assert!(
            detected as f64 / trials as f64 > 0.9,
            "detected {detected}/{trials}"
        );
    }

    #[test]
    fn utrp_round_trip_intact_advances_mirror() {
        let mut server = MonitorServer::new(ids(100), 5, 0.95).unwrap();
        let mut r = rng(2);
        let ch = server.issue_utrp_challenge(&mut r).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(100);
        let response = run_honest_reader(&mut pop, &ch, &server.config().timing.clone()).unwrap();
        let report = server.verify_utrp(ch, &response).unwrap();
        assert!(report.verdict.is_intact(), "{report}");
        assert!(server.counters_synced());
        // Mirror matches the field counters exactly.
        for tag in pop.iter() {
            assert_eq!(server.counter_of(tag.id()).unwrap(), tag.counter());
        }
        assert_eq!(
            response.announcements,
            server.counter_of(TagId::new(1)).unwrap().get()
        );
    }

    #[test]
    fn consecutive_utrp_rounds_stay_synced() {
        let mut server = MonitorServer::new(ids(60), 3, 0.9).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(60);
        let timing = server.config().timing;
        for seed in 0..5u64 {
            let mut r = rng(100 + seed);
            let ch = server.issue_utrp_challenge(&mut r).unwrap();
            let response = run_honest_reader(&mut pop, &ch, &timing).unwrap();
            let report = server.verify_utrp(ch, &response).unwrap();
            assert!(report.verdict.is_intact(), "round {seed}: {report}");
        }
        assert_eq!(server.history().len(), 5);
    }

    #[test]
    fn utrp_failure_desyncs_and_blocks_until_resync() {
        let mut server = MonitorServer::new(ids(100), 5, 0.95).unwrap();
        let mut r = rng(3);
        let ch = server.issue_utrp_challenge(&mut r).unwrap();

        // Steal 6 tags (> m): honest scan of the remainder must fail.
        let mut pop = TagPopulation::with_sequential_ids(100);
        pop.split_random(6, &mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch, &server.config().timing.clone()).unwrap();
        let report = server.verify_utrp(ch, &response).unwrap();
        assert!(report.is_alarm());
        assert!(!server.counters_synced());

        // Further UTRP challenges blocked...
        assert!(matches!(
            server.issue_utrp_challenge(&mut r),
            Err(CoreError::CounterDesync)
        ));
        // ...until a physical audit resyncs the mirror.
        server
            .resync_counters(pop.iter().map(|t| (t.id(), t.counter())))
            .unwrap();
        assert!(server.issue_utrp_challenge(&mut r).is_ok());
    }

    #[test]
    fn late_utrp_response_is_rejected() {
        let mut server = MonitorServer::new(ids(50), 3, 0.9).unwrap();
        let mut r = rng(4);
        let ch = server.issue_utrp_challenge(&mut r).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(50);
        let mut response =
            run_honest_reader(&mut pop, &ch, &server.config().timing.clone()).unwrap();
        // Correct bitstring, blown deadline.
        response.elapsed = ch.timer().deadline() + tagwatch_sim::SimDuration::from_micros(1);
        let report = server.verify_utrp(ch, &response).unwrap();
        assert!(report.is_alarm());
        assert!(report.late);
        assert_eq!(report.mismatched_slots, 0);
    }

    #[test]
    fn wrong_shape_utrp_response_errors() {
        let mut server = MonitorServer::new(ids(50), 3, 0.9).unwrap();
        let mut r = rng(5);
        let ch = server.issue_utrp_challenge(&mut r).unwrap();
        let response = UtrpResponse {
            bitstring: Bitstring::zeros(1),
            elapsed: tagwatch_sim::SimDuration::ZERO,
            announcements: 1,
        };
        assert!(matches!(
            server.verify_utrp(ch, &response),
            Err(CoreError::ResponseShapeMismatch { .. })
        ));
    }

    #[test]
    fn resync_rejects_unknown_tags() {
        let mut server = MonitorServer::new(ids(10), 1, 0.9).unwrap();
        let err = server
            .resync_counters([(TagId::new(999), Counter::ZERO)])
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownTag { .. }));
    }

    #[test]
    fn counter_of_unknown_tag_errors() {
        let server = MonitorServer::new(ids(10), 1, 0.9).unwrap();
        assert!(server.counter_of(TagId::new(11)).is_err());
        assert_eq!(server.counter_of(TagId::new(10)).unwrap(), Counter::ZERO);
    }

    #[test]
    fn snapshot_round_trip_preserves_counters_and_policy() {
        let mut server = MonitorServer::new(ids(40), 3, 0.9).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(40);
        let mut r = rng(31);
        // Advance state with a real round so counters are non-trivial.
        let ch = server.issue_utrp_challenge(&mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch, &server.config().timing.clone()).unwrap();
        server.verify_utrp(ch, &response).unwrap();

        let text = server.snapshot().to_text();
        let restored = MonitorServer::from_snapshot(
            crate::registry::RegistrySnapshot::from_text(&text).unwrap(),
            *server.config(),
        )
        .unwrap();
        assert_eq!(restored.snapshot(), server.snapshot());
        assert_eq!(restored.params(), server.params());
        assert_eq!(restored.counters_synced(), server.counters_synced());
        for id in server.registered_ids() {
            assert_eq!(
                restored.counter_of(id).unwrap(),
                server.counter_of(id).unwrap()
            );
        }
        // It draws the same next challenge from the same RNG.
        assert_eq!(
            format!("{:?}", restored.issue_utrp_challenge(&mut rng(9)).unwrap()),
            format!("{:?}", server.issue_utrp_challenge(&mut rng(9)).unwrap())
        );
        // The restored server verifies the field exactly like the old one.
        let ch = restored.issue_utrp_challenge(&mut r).unwrap();
        let mut restored = restored;
        let response = run_honest_reader(&mut pop, &ch, &restored.config().timing.clone()).unwrap();
        assert!(restored
            .verify_utrp(ch, &response)
            .unwrap()
            .verdict
            .is_intact());
    }

    #[test]
    fn snapshot_preserves_desync_state() {
        let mut server = MonitorServer::new(ids(30), 2, 0.9).unwrap();
        let mut r = rng(32);
        let ch = server.issue_utrp_challenge(&mut r).unwrap();
        let mut robbed = TagPopulation::with_sequential_ids(30);
        robbed.remove_random(3, &mut r).unwrap();
        let response =
            run_honest_reader(&mut robbed, &ch, &server.config().timing.clone()).unwrap();
        server.verify_utrp(ch, &response).unwrap();
        assert!(!server.counters_synced());

        let restored = MonitorServer::from_snapshot(server.snapshot(), *server.config()).unwrap();
        assert!(!restored.counters_synced());
        assert!(matches!(
            restored.issue_utrp_challenge(&mut r),
            Err(CoreError::CounterDesync)
        ));
    }

    #[test]
    fn display_summarizes_state() {
        let server = MonitorServer::new(ids(10), 1, 0.9).unwrap();
        let text = server.to_string();
        assert!(text.contains("10 tags"));
        assert!(text.contains("0 alarms"));
    }

    // ------------------------------------------------------------------
    // Frame memo
    // ------------------------------------------------------------------

    #[test]
    fn memoised_frames_equal_the_free_functions() {
        let config = ServerConfig {
            utrp_sizing: UtrpSizing {
                sync_budget: 35,
                safety_pad: 3,
            },
            ..ServerConfig::default()
        };
        let mut r = rng(41);
        for &(n, m, alpha) in &[(60u64, 3u64, 0.9), (500, 10, 0.95), (2000, 30, 0.99)] {
            let server = MonitorServer::with_config(ids(n), m, alpha, config).unwrap();
            let params = server.params();
            let trp = trp_frame_size(&params).unwrap();
            let utrp = utrp_frame_size(&params, config.utrp_sizing).unwrap();
            assert_ne!(
                utrp,
                utrp_frame_size(&params, UtrpSizing::default()).unwrap()
            );
            for _ in 0..2 {
                let ch = server.issue_trp_challenge(&mut r).unwrap();
                assert_eq!(ch.frame_size(), trp, "trp n={n} m={m} α={alpha}");
                let ch = server.issue_utrp_challenge(&mut r).unwrap();
                assert_eq!(ch.frame_size(), utrp, "utrp n={n} m={m} α={alpha}");
            }
            let clone = server.clone();
            let ch = clone.issue_trp_challenge(&mut r).unwrap();
            assert_eq!(ch.frame_size(), trp, "cloned trp n={n} m={m} α={alpha}");
            let ch = clone.issue_utrp_challenge(&mut r).unwrap();
            assert_eq!(ch.frame_size(), utrp, "cloned utrp n={n} m={m} α={alpha}");
        }
    }

    #[test]
    fn memoised_utrp_challenges_draw_the_unmemoised_rng_stream() {
        let server = MonitorServer::new(ids(80), 4, 0.95).unwrap();
        let timing = server.config().timing;
        let f = utrp_frame_size(&server.params(), server.config().utrp_sizing).unwrap();
        let (mut ra, mut rb) = (rng(42), rng(42));
        for round in 0..5 {
            assert_eq!(
                server.issue_utrp_challenge(&mut ra).unwrap(),
                UtrpChallenge::generate(f, &timing, &mut rb),
                "challenge {round}"
            );
        }
    }

    #[test]
    fn sizing_errors_are_remembered_per_protocol() {
        // n = m + 1: TRP sizes, UTRP has no valid colluder split.
        let server = MonitorServer::new(ids(6), 5, 0.95).unwrap();
        let mut r = rng(43);
        for _ in 0..2 {
            assert!(matches!(
                server.issue_utrp_challenge(&mut r),
                Err(CoreError::InvalidParams { .. })
            ));
        }
        assert!(server.issue_trp_challenge(&mut r).is_ok());
    }

    // ------------------------------------------------------------------
    // Desync diagnosis and recovery
    // ------------------------------------------------------------------

    fn wide_window_config(window: u64) -> ServerConfig {
        ServerConfig {
            desync_window: window,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn uniform_lead_after_lost_round_is_diagnosed_and_recovered() {
        let mut server =
            MonitorServer::with_config(ids(30), 2, 0.9, wide_window_config(64)).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(30);
        let timing = server.config().timing;
        let mut r = rng(41);

        // Round 0 runs in the field but its response never reaches the
        // server (reader crashed after the frame): every tag advanced,
        // the mirror did not.
        let ch0 = server.issue_utrp_challenge(&mut r).unwrap();
        let lost = run_honest_reader(&mut pop, &ch0, &timing).unwrap();
        assert!(lost.announcements > 0);

        // Round 1 mismatches, but is exactly an intact population
        // leading the mirror uniformly.
        let ch1 = server.issue_utrp_challenge(&mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch1, &timing).unwrap();
        let report = server.verify_utrp(ch1, &response).unwrap();
        assert_eq!(report.verdict, Verdict::Desynced { suspects: vec![] });
        assert!(!report.is_alarm());
        assert!(!server.counters_synced());
        assert!(matches!(
            server.pending_resync(),
            Some(ResyncHypothesis::UniformLead { lead, .. }) if *lead == lost.announcements
        ));

        // Optimistic recovery: apply the hypothesis, no suspects.
        assert_eq!(server.resync_from_hypothesis().unwrap(), vec![]);
        assert!(server.counters_synced());
        for tag in pop.iter() {
            assert_eq!(server.counter_of(tag.id()).unwrap(), tag.counter());
        }

        // The next round confirms it.
        let ch2 = server.issue_utrp_challenge(&mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch2, &timing).unwrap();
        assert!(server
            .verify_utrp(ch2, &response)
            .unwrap()
            .verdict
            .is_intact());
    }

    #[test]
    fn single_lag_after_missed_announcement_is_diagnosed_and_recovered() {
        let mut server =
            MonitorServer::with_config(ids(25), 2, 0.9, wide_window_config(8)).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(25);
        let timing = server.config().timing;
        let mut r = rng(42);

        // Round 1: pick the tag that replies in the first occupied slot
        // and script away the round's LAST announcement for it — the
        // bitstring is untouched (it already replied) but its counter
        // ends one short of everyone else's.
        let ch1 = server.issue_utrp_challenge(&mut r).unwrap();
        let registry: Vec<(TagId, Counter)> = server
            .registered_ids()
            .into_iter()
            .map(|id| (id, Counter::ZERO))
            .collect();
        let (dry, attribution) = attributed_round(&registry, &ch1).unwrap();
        let first_slot = dry.bitstring.iter_ones().next().unwrap();
        let victim = attribution[first_slot][0];
        assert!(dry.announcements >= 2, "need a re-seed after the victim");
        let plan =
            tagwatch_sim::FaultPlan::new().lose_announcement(dry.announcements - 1, [victim]);

        let response = crate::faulty::run_honest_reader_with(
            &mut pop,
            &ch1,
            &timing,
            &tagwatch_sim::Channel::ideal(),
            &plan,
            &mut r,
        )
        .unwrap();
        let report = server.verify_utrp(ch1, &response).unwrap();
        assert!(
            report.verdict.is_intact(),
            "missed announcement is invisible this round"
        );
        // ...but the mirror now silently overstates the victim by one.
        let field_victim = pop.iter().find(|t| t.id() == victim).unwrap().counter();
        assert_eq!(
            server.counter_of(victim).unwrap().get(),
            field_victim.get() + 1
        );

        // Round 2: the stale counter surfaces as a mismatch that is
        // exactly one lagging tag.
        let ch2 = server.issue_utrp_challenge(&mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch2, &timing).unwrap();
        let report = server.verify_utrp(ch2, &response).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Desynced {
                suspects: vec![victim]
            },
            "round 2: {report}"
        );
        assert!(matches!(
            server.pending_resync(),
            Some(ResyncHypothesis::SingleLag { tag, lag: 1, .. }) if *tag == victim
        ));

        // Recover and confirm.
        assert_eq!(server.resync_from_hypothesis().unwrap(), vec![victim]);
        for tag in pop.iter() {
            assert_eq!(server.counter_of(tag.id()).unwrap(), tag.counter());
        }
        let ch3 = server.issue_utrp_challenge(&mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch3, &timing).unwrap();
        assert!(server
            .verify_utrp(ch3, &response)
            .unwrap()
            .verdict
            .is_intact());
    }

    #[test]
    fn theft_is_not_misdiagnosed_as_desync() {
        let mut server =
            MonitorServer::with_config(ids(100), 5, 0.95, wide_window_config(8)).unwrap();
        let mut r = rng(43);
        let ch = server.issue_utrp_challenge(&mut r).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(100);
        pop.remove_random(6, &mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch, &server.config().timing.clone()).unwrap();
        let report = server.verify_utrp(ch, &response).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::NotIntact,
            "theft must alarm: {report}"
        );
        assert!(server.pending_resync().is_none());
        assert!(matches!(
            server.resync_from_hypothesis(),
            Err(CoreError::NoResyncHypothesis)
        ));
    }

    #[test]
    fn zero_window_disables_diagnosis() {
        let mut server =
            MonitorServer::with_config(ids(30), 2, 0.9, wide_window_config(0)).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(30);
        let timing = server.config().timing;
        let mut r = rng(44);
        let ch0 = server.issue_utrp_challenge(&mut r).unwrap();
        run_honest_reader(&mut pop, &ch0, &timing).unwrap(); // lost round
        let ch1 = server.issue_utrp_challenge(&mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch1, &timing).unwrap();
        let report = server.verify_utrp(ch1, &response).unwrap();
        assert_eq!(report.verdict, Verdict::NotIntact);
        assert!(server.pending_resync().is_none());
    }

    #[test]
    fn physical_audit_supersedes_pending_hypothesis() {
        let mut server =
            MonitorServer::with_config(ids(30), 2, 0.9, wide_window_config(64)).unwrap();
        let mut pop = TagPopulation::with_sequential_ids(30);
        let timing = server.config().timing;
        let mut r = rng(45);
        let ch0 = server.issue_utrp_challenge(&mut r).unwrap();
        run_honest_reader(&mut pop, &ch0, &timing).unwrap(); // lost round
        let ch1 = server.issue_utrp_challenge(&mut r).unwrap();
        let response = run_honest_reader(&mut pop, &ch1, &timing).unwrap();
        assert!(server
            .verify_utrp(ch1, &response)
            .unwrap()
            .verdict
            .is_desynced());
        assert!(server.pending_resync().is_some());

        server
            .resync_counters(pop.iter().map(|t| (t.id(), t.counter())))
            .unwrap();
        assert!(server.pending_resync().is_none());
        assert!(matches!(
            server.resync_from_hypothesis(),
            Err(CoreError::NoResyncHypothesis)
        ));
    }

    // ------------------------------------------------------------------
    // Differential check of the diagnosis search
    // ------------------------------------------------------------------

    /// The brute-force diagnosis: every hypothesis re-simulated as a
    /// full round, deep-lag candidates attributed by `attributed_round`
    /// and looked up with `Vec::contains`. `diagnose_desync` must return
    /// exactly what this returns.
    fn diagnose_desync_brute_force(
        window: u64,
        registry: &[(TagId, Counter)],
        challenge: &UtrpChallenge,
        observed: &Bitstring,
    ) -> Result<Option<ResyncHypothesis>, CoreError> {
        if window == 0 {
            return Ok(None);
        }
        for lead in 1..=window {
            let shifted: Vec<(TagId, Counter)> = registry
                .iter()
                .map(|&(id, ct)| (id, Counter::new(ct.get().wrapping_add(lead))))
                .collect();
            let round = expected_round(&shifted, challenge)?;
            if round.bitstring == *observed {
                return Ok(Some(ResyncHypothesis::UniformLead {
                    lead,
                    announcements: round.announcements,
                }));
            }
        }
        let (expected, attribution) = attributed_round(registry, challenge)?;
        let mut candidates: Vec<TagId> = Vec::new();
        let dropped = expected
            .bitstring
            .iter_ones()
            .filter(|&slot| matches!(observed.get(slot), Ok(false)));
        for slot in dropped {
            for &tag in &attribution[slot] {
                if !candidates.contains(&tag) {
                    candidates.push(tag);
                }
            }
        }
        const SHALLOW: u64 = 4;
        for lag in 1..=window {
            for &(tag, _) in registry {
                if lag > SHALLOW && !candidates.contains(&tag) {
                    continue;
                }
                let shifted: Vec<(TagId, Counter)> = registry
                    .iter()
                    .map(|&(id, ct)| {
                        if id == tag {
                            (id, Counter::new(ct.get().wrapping_sub(lag)))
                        } else {
                            (id, ct)
                        }
                    })
                    .collect();
                let round = expected_round(&shifted, challenge)?;
                if round.bitstring == *observed {
                    return Ok(Some(ResyncHypothesis::SingleLag {
                        tag,
                        lag,
                        announcements: round.announcements,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// The field bitstrings a diagnosis meets: the mirror's round under
    /// a uniform lead or one lagging tag (inside and beyond `window`),
    /// one leading tag, two lagging tags, 1–3 stolen tags, and the
    /// mirror's own bitstring with one bit flipped.
    fn perturbed_fields(
        registry: &[(TagId, Counter)],
        challenge: &UtrpChallenge,
        window: u64,
        rng: &mut StdRng,
    ) -> Vec<Bitstring> {
        let n = registry.len();
        let shift = |k: usize, by: fn(u64, u64) -> u64, d: u64| -> Vec<(TagId, Counter)> {
            let mut field = registry.to_vec();
            field[k].1 = Counter::new(by(field[k].1.get(), d));
            field
        };
        let depth = |rng: &mut StdRng| rng.gen_range(1..=window + 3);
        let lead = depth(rng);
        let uniform: Vec<(TagId, Counter)> = registry
            .iter()
            .map(|&(id, ct)| (id, Counter::new(ct.get().wrapping_add(lead))))
            .collect();
        let lagging = shift(rng.gen_range(0..n), u64::wrapping_sub, depth(rng));
        let leading = shift(rng.gen_range(0..n), u64::wrapping_add, rng.gen_range(1..=8));
        let (k1, k2) = (rng.gen_range(0..n), rng.gen_range(0..n - 1));
        let mut two = shift(k1, u64::wrapping_sub, depth(rng));
        let k2 = if k2 >= k1 { k2 + 1 } else { k2 };
        two[k2].1 = Counter::new(two[k2].1.get().wrapping_sub(depth(rng)));
        let mut robbed = registry.to_vec();
        for _ in 0..rng.gen_range(1..=3.min(n - 1)) {
            robbed.remove(rng.gen_range(0..robbed.len()));
        }
        let mut fields: Vec<Bitstring> = [uniform, lagging, leading, two, robbed]
            .iter()
            .map(|field| expected_round(field, challenge).unwrap().bitstring)
            .collect();
        let mut flipped = expected_round(registry, challenge).unwrap().bitstring;
        let bit = rng.gen_range(0..flipped.len());
        flipped.set(bit, !flipped.get(bit).unwrap()).unwrap();
        fields.push(flipped);
        fields
    }

    /// One differential case: a random registry of `n` tags (mixed
    /// counters or uniform), a random frame, and every field
    /// `perturbed_fields` draws, each diagnosed both ways.
    fn diagnosis_case(
        n: usize,
        f_pick: u64,
        window: u64,
        mixed: bool,
        seed: u64,
    ) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = rng.gen_range(0..1_000u64);
        let mut ids: BTreeMap<TagId, Counter> = BTreeMap::new();
        while ids.len() < n {
            let ct = if mixed {
                base + rng.gen_range(0..6u64)
            } else {
                base
            };
            ids.insert(TagId::from(rng.gen::<u64>()), Counter::new(ct));
        }
        let registry: Vec<(TagId, Counter)> = ids.into_iter().collect();
        let f = FrameSize::new(1 + f_pick % (3 * n as u64)).unwrap();
        let challenge = UtrpChallenge::generate(f, &TimingModel::gen2(), &mut rng);
        let mirror = expected_round(&registry, &challenge).unwrap().bitstring;
        for observed in perturbed_fields(&registry, &challenge, window, &mut rng) {
            if observed == mirror {
                continue;
            }
            let fast = MonitorServer::diagnose_desync(window, &registry, &challenge, &observed);
            let brute = diagnose_desync_brute_force(window, &registry, &challenge, &observed);
            prop_assert_eq!(
                fast.unwrap(),
                brute.unwrap(),
                "n={} f={} window={}",
                n,
                f,
                window
            );
        }
        Ok(())
    }

    /// The branches past the mirror's departure that the single-lag
    /// search takes, in its order up to its first match, each with the
    /// lagged tag's index: `alone` (the tag alone makes the field's
    /// reply at `d`; `last` when that reply is the frame's last slot,
    /// which ends the round), `active` and `retired` (`d`'s sole recorded
    /// replier, active at `d` or retired before it, the runner-up
    /// making the reply), and `replayed` (the walk along the
    /// continuation reaches its own departure).
    fn branches_taken(
        window: u64,
        registry: &[(TagId, Counter)],
        challenge: &UtrpChallenge,
        observed: &Bitstring,
    ) -> Vec<(&'static str, usize)> {
        let (f, nonces) = (challenge.frame_size(), challenge.nonces());
        let first = match diagnose_desync_brute_force(window, registry, challenge, observed) {
            Ok(Some(ResyncHypothesis::UniformLead { .. })) => return Vec::new(),
            Ok(Some(ResyncHypothesis::SingleLag { tag, lag, .. })) => Some((tag, lag)),
            _ => None,
        };
        let mut scratch = RoundScratch::new();
        scratch.load_pairs(registry.iter().copied());
        let mirror = scratch
            .run_recorded(f, nonces, 1, SubFrame::whole(f), observed)
            .unwrap();
        // The mirror's active set at `d`, without one tag, recorded
        // from announcement `from` over `sub`.
        let mut record_from = |d: u64, without: Option<usize>, from: u64, sub: SubFrame| {
            scratch.load(
                registry
                    .iter()
                    .enumerate()
                    .map(|(j, &(id, ct))| (id, ct, Some(j) == without || !mirror.active_at(j, d))),
            );
            scratch
                .run_recorded(f, nonces, from, sub, observed)
                .unwrap()
        };
        let mut taken = Vec::new();
        for lag in 1..=window {
            for (i, &(tag, ct)) in registry.iter().enumerate() {
                if lag > 4 && !mirror.dropped(i) {
                    continue;
                }
                let base = ct.get().wrapping_sub(lag);
                if let Walk::Departs { at, tag: state } = mirror.walk(i, tag.fold64(), Some(base)) {
                    let (name, continuation, base) = match (state, mirror.after_field()) {
                        (AtDeparture::Alone, None) => ("last", None, None),
                        (AtDeparture::Alone, Some(sub)) => {
                            ("alone", Some(record_from(at, None, at + 1, sub)), None)
                        }
                        (AtDeparture::Active, _) => (
                            "active",
                            Some(record_from(at, Some(i), at, mirror.sub_frame(at))),
                            Some(base),
                        ),
                        (AtDeparture::Retired, _) => (
                            "retired",
                            Some(record_from(at, Some(i), at, mirror.sub_frame(at))),
                            None,
                        ),
                    };
                    taken.push((name, i));
                    if let Some(record) = continuation {
                        if let Walk::Departs { .. } = record.walk(i, tag.fold64(), base) {
                            taken.push(("replayed", i));
                        }
                    }
                }
                if first == Some((tag, lag)) {
                    return taken;
                }
            }
        }
        taken
    }

    /// A targeted diagnosis case: `n` tags of mixed counters drawn from
    /// `seed`, an `f`-slot challenge, and the field with tag `k` lagged
    /// by `lag`, or stolen when `lag` is `None`.
    fn targeted_case(
        (n, f, seed): (usize, u64, u64),
        k: usize,
        lag: Option<u64>,
    ) -> (Vec<(TagId, Counter)>, UtrpChallenge, Bitstring) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x7467));
        let mut ids: BTreeMap<TagId, Counter> = BTreeMap::new();
        while ids.len() < n {
            let id = TagId::from(rng.gen::<u64>());
            ids.insert(id, Counter::new(100 + rng.gen_range(0..6u64)));
        }
        let registry: Vec<(TagId, Counter)> = ids.into_iter().collect();
        let challenge =
            UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng);
        let mut floor = registry.clone();
        match lag {
            Some(lag) => floor[k].1 = Counter::new(floor[k].1.get() - lag),
            None => {
                floor.remove(k);
            }
        }
        let observed = expected_round(&floor, &challenge).unwrap().bitstring;
        (registry, challenge, observed)
    }

    #[test]
    fn targeted_cases_reach_every_branch_past_the_departure() {
        // Seeds found by search, each sending the field's own tag `k`
        // down the named branches, where a hypothesis on `k` is the
        // diagnosis.
        let cases = [
            // The lagged tag alone makes the field's reply at `d`, and
            // the walk along the continuation reaches that record's own
            // departure, where the replay matches.
            ((37, 78, 0), 18, Some(8), &["alone", "replayed"][..]),
            // The lagged tag alone makes the field's reply at `d`, in
            // the frame's last slot: the round ends there.
            ((13, 26, 127), 3, Some(4), &["last"][..]),
            // A stolen tag that was `d`'s sole recorded replier, walked
            // as an added tag along the runner-up's continuation; at
            // some lag it only ever replies together with other tags,
            // so the theft reads as that tag lagging.
            ((24, 37, 10), 22, None, &["active"][..]),
            // The lagged tag retired before `d`: the hypothesis is the
            // continuation, and its verdict is the record's own.
            ((17, 39, 12), 11, Some(5), &["retired"][..]),
            // The lagged tag, active at `d` behind the runner-up, walked
            // along that continuation to its own departure, where the
            // replay matches.
            ((31, 61, 43), 18, Some(1), &["active", "replayed"][..]),
        ];
        let window = 96;
        for (shape, k, lag, branches) in cases {
            let (registry, challenge, observed) = targeted_case(shape, k, lag);
            let context = format!("case {shape:?} k={k} lag={lag:?}");
            let fast = MonitorServer::diagnose_desync(window, &registry, &challenge, &observed);
            let brute = diagnose_desync_brute_force(window, &registry, &challenge, &observed);
            let brute = brute.unwrap();
            assert_eq!(fast.unwrap(), brute, "{context}");
            assert_eq!(
                brute.map(|hypothesis| hypothesis.suspects()),
                Some(vec![registry[k].0]),
                "{context}"
            );
            let taken = branches_taken(window, &registry, &challenge, &observed);
            for &branch in branches {
                assert!(taken.contains(&(branch, k)), "{context}: {taken:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn diagnosis_agrees_with_brute_force(
            n in 2usize..=220,
            f_pick in any::<u64>(),
            window in 1u64..=130,
            mixed in any::<bool>(),
            seed in any::<u64>(),
        ) {
            diagnosis_case(n, f_pick, window, mixed, seed)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The same differential check over 300 cases (about two
        /// minutes in release): `cargo test --release -p tagwatch-core
        /// --lib -- --ignored diagnosis`.
        #[test]
        #[ignore = "slow; run with --ignored"]
        fn diagnosis_agrees_with_brute_force_deep(
            n in 2usize..=220,
            f_pick in any::<u64>(),
            window in 1u64..=130,
            mixed in any::<bool>(),
            seed in any::<u64>(),
        ) {
            diagnosis_case(n, f_pick, window, mixed, seed)?;
        }
    }
}
