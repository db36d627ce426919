//! The multi-core round engine: a persistent, dependency-free worker
//! pool driving sharded UTRP rounds, bit-identical to the scalar
//! [`RoundScratch`] at any thread count.
//!
//! ## Why a persistent pool
//!
//! The per-announcement minimum scan is short — a million-tag round
//! opens at ~1 ms of probe work and *shrinks* every announcement as
//! tags retire. A `std::thread::scope` fan-out (as
//! [`crate::parallel`] uses for coarse Monte-Carlo trials) pays a
//! spawn + join round trip per call, tens of microseconds, which at
//! per-announcement granularity erases the parallel win. The
//! [`PooledEngine`] spawns its workers **once**; between announcements
//! they park on a blocking channel `recv`, so per-announcement
//! dispatch is two channel hops per worker and no thread is ever
//! created on the hot path.
//!
//! ## Why worker-owned shards
//!
//! The workspace forbids `unsafe` (lint rule s1), so scoped borrows of
//! the active arrays cannot be smuggled across `'static` worker
//! threads. Instead each worker **owns** its shard of the active-tag
//! arrays (`folded`/`bases`, copied once per round at load), and all
//! round state that crosses threads is plain `Copy` data
//! ([`ScanParams`], slots, [`ScanStats`]). Retirement (`swap_remove`)
//! and every re-seed scan stay local to a shard; nothing is shared,
//! nothing is locked.
//!
//! ## Determinism
//!
//! Every announcement reduces the active set to its minimum reply slot
//! plus the tags that chose it. Each shard scans its slice of the
//! active arrays with the same [`ScanJob`] kernel the scalar engine
//! runs, so every tag's slot comes from identical code. The merge
//! takes the global minimum as the min over shard minima, an
//! order-free reduction, so the order in which replies arrive cannot
//! matter; the winners are exactly the members of every shard whose
//! minimum equals it, and each such shard retires its own. Together
//! they are the tags the sequential scan finds at that minimum, so
//! every announcement retires the same tags as the scalar engine, not
//! merely the same final bitstring. A round's observables — bitstring,
//! announcement count, probe totals — depend only on the *set* of
//! active tags per announcement, never on array order or shard
//! boundaries, so any shard count (including 1, the scalar engine)
//! produces byte-identical results. The serial skeleton (nonce order,
//! sub-frame shrinking, uniform-key collapse) is not reimplemented: it
//! is the same [`SubframeCursor`] the scalar engine runs.
//!
//! Probe accounting sums per-shard [`ScanStats`]: `probes` is
//! thread-invariant (`Σ active_i` for any exact engine), while
//! `filtered` is strategy-dependent diagnostics (the candidate filter
//! warms up per shard).
//!
//! ## Small rounds fall back to scalar
//!
//! Below [`POOL_THRESHOLD`] active tags the dispatch round trip would
//! cost more than the round itself, so the engine runs its embedded
//! scalar [`RoundScratch`] instead — same results, with the fallback
//! counted on [`PooledEngine::scalar_fallbacks`]. The engine never
//! writes fallback events into `obs`: an exact engine must be
//! observably indistinguishable from the scalar engine at every
//! thread count, or the committed golden digests would fork on the
//! operator's `--threads` choice. A pool configured with
//! `threads <= 1` never spawns workers and *is* the scalar engine (no
//! fallback accounting: scalar is the chosen path, not a fallback).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use tagwatch_core::engine::{
    RoundEngine, RoundScratch, ScanJob, ScanParams, ScanStats, SubframeCursor,
};
use tagwatch_core::nonce::NonceSequence;
use tagwatch_core::{Bitstring, CoreError};
use tagwatch_obs::Obs;
use tagwatch_sim::{Counter, FrameSize, TagId, TagPopulation};

/// Active-set size below which a pooled round runs on the embedded
/// scalar engine instead of dispatching to the workers.
///
/// Every announcement pays a dispatch round trip (two channel hops per
/// worker plus a wake-up), so a scan must cover a few thousand tags
/// before the pool can pay for it. The value was set on a one-core
/// host, where the pool never ran, and is not re-derived yet: the
/// repository benchmark's traced `fleet` run (n = 10⁴, above the
/// threshold; `results/benchmark/fleet_traced.txt`) reads
/// `pool.speedup` 0.36 at two threads on a 2-vCPU host, so there the
/// pool engages and loses (see docs/PERFORMANCE.md). The soak default
/// (n = 60) and every golden-digest workload sit far below and always
/// take the scalar path.
pub const POOL_THRESHOLD: usize = 8192;

/// One staged participant, shipped to workers at load time. Folding
/// the 128-bit ID happens on the worker (in parallel), not at staging.
#[derive(Debug, Clone, Copy)]
struct LoadRec {
    id: TagId,
    base: u64,
}

/// Commands a worker parks on. All payloads are owned or `Copy`; the
/// staging buffer crosses as an `Arc` that the worker drops before it
/// acknowledges, so the main side can reuse the allocation.
enum Cmd {
    /// Copy `data[lo..hi]` into the worker's shard (folding IDs), then
    /// acknowledge with an empty reply.
    Load {
        data: Arc<Vec<LoadRec>>,
        lo: usize,
        hi: usize,
    },
    /// Retire the previous announcement's winners if this shard held
    /// the global minimum, then scan the shard and reply.
    Scan {
        params: ScanParams,
        /// The previous announcement's global minimum (relative slot):
        /// the shard retires its stored members iff its own last
        /// minimum equals it. `None` on the first announcement.
        retire_prev: Option<u64>,
        /// Count probe accounting (observed rounds).
        count: bool,
    },
}

/// One worker's answer to a command. Replies are deliberately
/// anonymous: the min-merge is order-independent and winners stay
/// worker-local, so the main side only needs to count one reply per
/// worker per dispatch.
struct Reply {
    min: Option<u64>,
    stats: ScanStats,
}

/// Worker-side shard state: the owned slices of the active arrays plus
/// the last scan's result, kept so retirement can be folded into the
/// next dispatch (one message round trip per announcement, not two).
#[derive(Default)]
struct Shard {
    folded: Vec<u64>,
    bases: Vec<u64>,
    members: Vec<u32>,
    last_min: Option<u64>,
}

fn worker_loop(rx: &Receiver<Cmd>, tx: &Sender<Reply>) {
    let mut st = Shard::default();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Load { data, lo, hi } => {
                st.folded.clear();
                st.bases.clear();
                st.members.clear();
                st.last_min = None;
                for rec in &data[lo..hi] {
                    st.folded.push(rec.id.fold64());
                    st.bases.push(rec.base);
                }
                // Drop our Arc clone before acknowledging: after the
                // ack the main side may mutate the staging buffer in
                // place (`Arc::make_mut` finds it unique again).
                drop(data);
                if tx
                    .send(Reply {
                        min: None,
                        stats: ScanStats::default(),
                    })
                    .is_err()
                {
                    return;
                }
            }
            Cmd::Scan {
                params,
                retire_prev,
                count,
            } => {
                if let (Some(best), Some(mine)) = (retire_prev, st.last_min) {
                    if mine == best {
                        // This shard held (part of) the previous
                        // minimum: swap-remove its members, descending
                        // so earlier indices stay valid — the same
                        // retirement the scalar engine performs.
                        for &mi in st.members.iter().rev() {
                            st.folded.swap_remove(mi as usize);
                            st.bases.swap_remove(mi as usize);
                        }
                    }
                }
                let job = ScanJob::new(&st.folded, &st.bases, &params);
                let mut stats = ScanStats::default();
                let min = if count {
                    job.scan_range_counting(0, job.len(), &mut st.members, &mut stats)
                } else {
                    job.scan_range(0, job.len(), &mut st.members)
                };
                st.last_min = min;
                if tx.send(Reply { min, stats }).is_err() {
                    return;
                }
            }
        }
    }
}

fn pool_disconnected() -> CoreError {
    CoreError::InvalidParams {
        reason: "round pool worker disconnected".to_string(),
    }
}

/// The persistent sharded round engine. See the module docs for the
/// design; the headline contract is that it implements [`RoundEngine`]
/// **bit-identically** to [`RoundScratch`] at every thread count, so
/// executors, protocols, sessions, and the soak driver can hold one
/// and let `set_threads`-style knobs remain pure implementation
/// detail.
#[derive(Debug)]
pub struct PooledEngine {
    /// Embedded scalar engine: the whole engine when `threads <= 1`,
    /// and the small-round fallback otherwise.
    scalar: RoundScratch,
    workers: Vec<JoinHandle<()>>,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rx: Option<Receiver<Reply>>,
    /// Reusable load staging buffer, shared with workers during a load
    /// and reclaimed (`Arc::make_mut`) once they have acknowledged.
    staging: Arc<Vec<LoadRec>>,
    threshold: usize,
    /// Whether the *current* load went to the workers (vs the scalar
    /// fallback).
    used_pool: bool,
    /// Rounds a multi-thread pool ran on the scalar path.
    fallbacks: u64,
    /// A worker vanished mid-protocol (only possible through a panic
    /// or forced teardown); all subsequent pooled runs error rather
    /// than return partial rounds.
    broken: bool,
    uniform_base: Option<u64>,
    bitstring: Bitstring,
    announcements: u64,
}

impl std::fmt::Debug for Cmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cmd::Load { lo, hi, .. } => f
                .debug_struct("Load")
                .field("lo", lo)
                .field("hi", hi)
                .finish(),
            Cmd::Scan { params, .. } => f.debug_struct("Scan").field("params", params).finish(),
        }
    }
}

impl PooledEngine {
    /// An engine with `threads` shards and the default
    /// [`POOL_THRESHOLD`]. `threads <= 1` spawns no workers at all —
    /// the engine is exactly the scalar [`RoundScratch`] — so holding
    /// a `PooledEngine::new(1)` is free of threading side effects and
    /// byte-identical to the pre-pool code paths.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::with_threshold(threads, POOL_THRESHOLD)
    }

    /// [`PooledEngine::new`] with an explicit scalar-fallback
    /// threshold. Tests use a tiny threshold to force small rounds
    /// through the pool; production code should keep the measured
    /// default.
    #[must_use]
    pub fn with_threshold(threads: usize, threshold: usize) -> Self {
        let mut engine = PooledEngine {
            scalar: RoundScratch::new(),
            workers: Vec::new(),
            cmd_txs: Vec::new(),
            reply_rx: None,
            staging: Arc::new(Vec::new()),
            threshold,
            used_pool: false,
            fallbacks: 0,
            broken: false,
            uniform_base: None,
            bitstring: Bitstring::zeros(0),
            announcements: 0,
        };
        if threads > 1 {
            let (reply_tx, reply_rx) = channel::<Reply>();
            for shard in 0..threads {
                let (cmd_tx, cmd_rx) = channel::<Cmd>();
                let tx = reply_tx.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("tagwatch-pool-{shard}"))
                    .spawn(move || worker_loop(&cmd_rx, &tx));
                match spawned {
                    Ok(handle) => {
                        engine.workers.push(handle);
                        engine.cmd_txs.push(cmd_tx);
                    }
                    // Spawn failure (resource exhaustion) degrades the
                    // shard count; results are thread-count-invariant,
                    // so a smaller pool is still exact.
                    Err(_) => break,
                }
            }
            if engine.workers.len() > 1 {
                engine.reply_rx = Some(reply_rx);
            } else {
                // 0 or 1 usable worker: a pool would add dispatch cost
                // for no parallelism. Tear down and stay scalar.
                engine.cmd_txs.clear();
                engine.join_workers();
            }
        }
        engine
    }

    /// Shards this engine scans with (1 = scalar).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len().max(1)
    }

    /// Rounds a multi-thread pool ran on the scalar fallback path
    /// (always 0 for a single-thread engine — there, scalar is the
    /// engine, not a fallback).
    #[must_use]
    pub fn scalar_fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// The scalar-fallback threshold in effect.
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    fn join_workers(&mut self) {
        // Closing the command channels unparks every worker with a
        // recv error; join is then immediate. A worker that panicked
        // already delivered its error through the channel teardown, so
        // the join result carries nothing we still need.
        self.cmd_txs.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Ships the staged load to the workers as contiguous shards and
    /// waits for every ack.
    fn dispatch_load(&mut self) {
        let n = self.staging.len();
        let t = self.cmd_txs.len();
        let chunk = n.div_ceil(t);
        for (shard, tx) in self.cmd_txs.iter().enumerate() {
            let lo = (shard * chunk).min(n);
            let hi = ((shard + 1) * chunk).min(n);
            if tx
                .send(Cmd::Load {
                    data: Arc::clone(&self.staging),
                    lo,
                    hi,
                })
                .is_err()
            {
                self.broken = true;
            }
        }
        if self.broken {
            return;
        }
        if let Some(rx) = &self.reply_rx {
            for _ in 0..t {
                if rx.recv().is_err() {
                    self.broken = true;
                    return;
                }
            }
        }
    }

    /// The pooled round: the scalar engine's loop with the scan
    /// dispatched to the shards. Retirement of an announcement's
    /// winners rides on the *next* dispatch, so steady state is one
    /// message round trip per announcement.
    fn run_pooled(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: Option<&Obs>,
    ) -> Result<u64, CoreError> {
        if self.broken {
            return Err(pool_disconnected());
        }
        let Some(reply_rx) = &self.reply_rx else {
            return Err(pool_disconnected());
        };
        let count = obs.is_some_and(Obs::enabled);
        let spans_on = obs.is_some_and(Obs::spans_enabled);
        self.bitstring.reset(f.as_usize());
        self.announcements = 0;
        let mut cursor = nonces.cursor();
        let mut walk = SubframeCursor::new(f);
        let mut stats = ScanStats::default();
        let mut retire_prev: Option<u64> = None;
        loop {
            let params = walk.announce(&mut cursor, self.uniform_base)?;
            self.announcements = walk.announcements();
            let probes_before = stats.probes;
            for tx in &self.cmd_txs {
                if tx
                    .send(Cmd::Scan {
                        params,
                        retire_prev,
                        count,
                    })
                    .is_err()
                {
                    self.broken = true;
                    return Err(pool_disconnected());
                }
            }
            let mut best: Option<u64> = None;
            for _ in 0..self.cmd_txs.len() {
                let Ok(reply) = reply_rx.recv() else {
                    self.broken = true;
                    return Err(pool_disconnected());
                };
                stats.merge(reply.stats);
                best = match (best, reply.min) {
                    (Some(b), Some(m)) => Some(b.min(m)),
                    (b, m) => b.or(m),
                };
            }
            if spans_on {
                if let Some(obs) = obs {
                    // Identical phase attribution to the scalar
                    // engine's observed path: slots telescope to the
                    // frame size, probes are the merged (shard-order-
                    // independent) per-announcement delta.
                    let slots = best.map_or_else(|| params.frame.divisor(), |r| r + 1);
                    let probes = stats.probes - probes_before;
                    obs.span_phase(tagwatch_obs::Phase::SubFrameSetup, 0, 0);
                    let phase = if self.announcements == 1 {
                        tagwatch_obs::Phase::MinScan
                    } else {
                        tagwatch_obs::Phase::ReSeed
                    };
                    obs.span_phase(phase, slots, probes);
                }
            }
            let Some(rel) = best else {
                // Silent announcement: the rest of the frame is
                // silence and the round ends.
                break;
            };
            let global = walk.record_reply(rel);
            self.bitstring.set(global as usize, true)?;
            retire_prev = Some(rel);
            if walk.is_done() {
                break;
            }
        }
        if count {
            if let Some(obs) = obs {
                obs.add(obs.m.probes_total, stats.probes);
                obs.add(obs.m.probes_filtered, stats.filtered);
            }
        }
        Ok(self.announcements)
    }

    fn run_inner(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: Option<&Obs>,
    ) -> Result<u64, CoreError> {
        if self.used_pool {
            return self.run_pooled(f, nonces, obs);
        }
        // Fallback rounds count on the engine but deliberately emit
        // nothing to `obs` (see the module docs).
        if !self.cmd_txs.is_empty() {
            self.fallbacks += 1;
        }
        match obs {
            Some(obs) => self.scalar.run_observed(f, nonces, obs),
            None => RoundScratch::run(&mut self.scalar, f, nonces),
        }
    }
}

impl Drop for PooledEngine {
    fn drop(&mut self) {
        self.join_workers();
    }
}

impl RoundEngine for PooledEngine {
    fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I) {
        if self.cmd_txs.is_empty() {
            // Single-thread engine: no staging detour, the scalar
            // scratch loads exactly as it always has.
            RoundEngine::load(&mut self.scalar, parts);
            self.used_pool = false;
            return;
        }
        // Stage actives once (mute tags drop here, as in the scalar
        // load), tracking the uniform-counter collapse the same way.
        let buf = Arc::make_mut(&mut self.staging);
        buf.clear();
        let mut uniform = true;
        let mut first_base: Option<u64> = None;
        for (id, ct, mute) in parts {
            if mute {
                continue;
            }
            let base = ct.get();
            match first_base {
                None => first_base = Some(base),
                Some(b) if b != base => uniform = false,
                Some(_) => {}
            }
            buf.push(LoadRec { id, base });
        }
        self.uniform_base = if uniform { first_base } else { None };
        if buf.len() < self.threshold {
            // Below the dispatch break-even: replay the staging into
            // the scalar engine. Original-order indices differ from a
            // direct load (mute tags dropped at staging), but no
            // engine observable depends on them.
            let scalar = &mut self.scalar;
            RoundEngine::load(
                scalar,
                self.staging
                    .iter()
                    .map(|r| (r.id, Counter::new(r.base), false)),
            );
            self.used_pool = false;
            return;
        }
        self.used_pool = true;
        self.dispatch_load();
    }

    fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError> {
        self.run_inner(f, nonces, None)
    }

    fn run_observed(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: &Obs,
    ) -> Result<u64, CoreError> {
        self.run_inner(f, nonces, Some(obs))
    }

    fn bitstring(&self) -> &Bitstring {
        if self.used_pool {
            &self.bitstring
        } else {
            RoundScratch::bitstring(&self.scalar)
        }
    }

    fn take_bitstring(&mut self) -> Bitstring {
        if self.used_pool {
            std::mem::replace(&mut self.bitstring, Bitstring::zeros(0))
        } else {
            RoundScratch::take_bitstring(&mut self.scalar)
        }
    }

    fn announcements(&self) -> u64 {
        if self.used_pool {
            self.announcements
        } else {
            RoundScratch::announcements(&self.scalar)
        }
    }

    fn load_population(&mut self, population: &TagPopulation) {
        self.load(
            population
                .iter()
                .map(|t| (t.id(), t.counter(), t.is_detuned())),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::worker_threads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_core::utrp::{UtrpChallenge, UtrpParticipant};
    use tagwatch_sim::TimingModel;

    fn challenge(f: u64, seed: u64) -> UtrpChallenge {
        let mut rng = StdRng::seed_from_u64(seed);
        UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng)
    }

    fn parts(n: u64) -> Vec<UtrpParticipant> {
        (1..=n)
            .map(|i| {
                let mut p = UtrpParticipant::new(TagId::from(i), Counter::new(i % 6));
                p.mute = i % 17 == 0;
                p
            })
            .collect()
    }

    fn scalar_round(population: &[UtrpParticipant], ch: &UtrpChallenge) -> (Bitstring, u64) {
        let mut scratch = RoundScratch::new();
        scratch.load_participants(population);
        let ann = scratch.run(ch.frame_size(), ch.nonces()).unwrap();
        (scratch.take_bitstring(), ann)
    }

    #[test]
    fn pooled_round_is_bit_identical_across_thread_counts() {
        // Small threshold forces the pool to engage; mid-round
        // retirement and re-seed scans happen on every announcement.
        for (n, f, seed) in [(700u64, 96u64, 1u64), (1500, 256, 2), (2000, 128, 3)] {
            let population = parts(n);
            let ch = challenge(f, seed);
            let (seq_bs, seq_ann) = scalar_round(&population, &ch);
            for threads in [1usize, 2, 3, worker_threads()] {
                let mut engine = PooledEngine::with_threshold(threads, 64);
                engine.load_participants(&population);
                let ann = engine.run(ch.frame_size(), ch.nonces()).unwrap();
                assert_eq!(*engine.bitstring(), seq_bs, "threads={threads} n={n}");
                assert_eq!(ann, seq_ann, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn pooled_engine_reuses_across_rounds_and_loads() {
        // The same engine must serve many rounds (session lifetime)
        // with per-round loads, mixing pool and fallback rounds.
        let mut engine = PooledEngine::with_threshold(3, 256);
        for seed in 0..6u64 {
            let n = if seed % 2 == 0 { 600 } else { 40 }; // pool / fallback
            let population = parts(n);
            let ch = challenge(128, 100 + seed);
            let (seq_bs, seq_ann) = scalar_round(&population, &ch);
            engine.load_participants(&population);
            let ann = engine.run(ch.frame_size(), ch.nonces()).unwrap();
            assert_eq!(*engine.bitstring(), seq_bs, "seed={seed}");
            assert_eq!(ann, seq_ann, "seed={seed}");
        }
        assert_eq!(engine.scalar_fallbacks(), 3);
    }

    #[test]
    fn observed_pooled_round_keeps_probes_thread_invariant() {
        let population = parts(900);
        let ch = challenge(96, 7);

        let seq_obs = Obs::new();
        let mut seq = RoundScratch::new();
        seq.load_participants(&population);
        let seq_ann = seq
            .run_observed(ch.frame_size(), ch.nonces(), &seq_obs)
            .unwrap();
        let seq_probes = seq_obs.counter(seq_obs.m.probes_total);
        assert!(seq_probes > 0);

        for threads in [2usize, 3, worker_threads().max(2)] {
            let obs = Obs::new();
            let mut engine = PooledEngine::with_threshold(threads, 64);
            engine.load_participants(&population);
            let ann = engine
                .run_observed(ch.frame_size(), ch.nonces(), &obs)
                .unwrap();
            assert_eq!(ann, seq_ann, "threads={threads}");
            assert_eq!(*engine.bitstring(), *seq.bitstring(), "threads={threads}");
            // Probes are thread-invariant; filtered is per-shard
            // warm-up diagnostics (see module docs) and is not.
            assert_eq!(
                obs.counter(obs.m.probes_total),
                seq_probes,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fallback_rounds_count_without_touching_the_flight_ring() {
        let population = parts(30);
        let ch = challenge(64, 9);
        let obs = Obs::new();
        let mut engine = PooledEngine::with_threshold(2, 1 << 20);
        engine.load_participants(&population);
        engine
            .run_observed(ch.frame_size(), ch.nonces(), &obs)
            .unwrap();
        assert_eq!(engine.scalar_fallbacks(), 1);
        // The fallback must NOT reach `obs`: golden digests hold at
        // every thread count precisely because the engine is
        // observably indistinguishable from the scalar path.
        assert!(
            obs.flight_jsonl().is_empty(),
            "fallback leaked into the flight ring"
        );

        // A single-thread engine is scalar *by configuration*: no
        // fallback accounting either.
        let single_obs = Obs::new();
        let mut single = PooledEngine::new(1);
        single.load_participants(&population);
        single
            .run_observed(ch.frame_size(), ch.nonces(), &single_obs)
            .unwrap();
        assert_eq!(single.scalar_fallbacks(), 0);
        assert!(single_obs.flight_jsonl().is_empty());
    }

    #[test]
    fn empty_and_all_mute_loads_fall_back_and_agree() {
        let ch = challenge(16, 5);
        let mut engine = PooledEngine::with_threshold(2, 8);
        engine.load_pairs(std::iter::empty());
        assert_eq!(engine.run(ch.frame_size(), ch.nonces()).unwrap(), 1);
        assert_eq!(engine.bitstring().count_ones(), 0);

        let mut muted = parts(5);
        for p in &mut muted {
            p.mute = true;
        }
        engine.load_participants(&muted);
        assert_eq!(engine.run(ch.frame_size(), ch.nonces()).unwrap(), 1);
        assert_eq!(engine.bitstring().count_ones(), 0);
    }

    #[test]
    fn uniform_counter_collapse_is_detected_in_staging() {
        // All-equal counters must take the collapsed-key path through
        // the pool and still agree with the scalar engine; one bumped
        // counter must take the general path.
        let ch = challenge(128, 13);
        for bump in [0u64, 1] {
            let mut population: Vec<UtrpParticipant> = (1..=500u64)
                .map(|i| UtrpParticipant::new(TagId::from(i), Counter::new(9)))
                .collect();
            population[123].counter = Counter::new(9 + bump);
            let (seq_bs, seq_ann) = scalar_round(&population, &ch);
            let mut engine = PooledEngine::with_threshold(3, 32);
            engine.load_participants(&population);
            let ann = engine.run(ch.frame_size(), ch.nonces()).unwrap();
            assert_eq!(*engine.bitstring(), seq_bs, "bump={bump}");
            assert_eq!(ann, seq_ann, "bump={bump}");
        }
    }

    #[test]
    fn take_bitstring_hands_out_the_pooled_result() {
        let population = parts(400);
        let ch = challenge(64, 3);
        let (seq_bs, _) = scalar_round(&population, &ch);
        let mut engine = PooledEngine::with_threshold(2, 16);
        engine.load_participants(&population);
        engine.run(ch.frame_size(), ch.nonces()).unwrap();
        assert_eq!(engine.take_bitstring(), seq_bs);
        assert_eq!(engine.bitstring().len(), 0, "taken bitstring leaves empty");
    }
}
