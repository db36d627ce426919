//! A timing [`RoundEngine`] adapter: wraps any engine, forwards every
//! call unchanged, and adds up host time spent in `load` and `run`.
//!
//! The traced fleet replay hands this adapter to the executor and the
//! server exactly where `Utrp::run_round` hands them the session's
//! engine, so engine time splits out of the executor and verify calls
//! without touching the program. Optionally it also replays every
//! round on a shadow [`PooledEngine`], which times the worker pool
//! against the wrapped engine on the same load and checks that both
//! produce the same bitstring and announcement count.

use std::time::Instant;

use tagwatch_analytics::PooledEngine;
use tagwatch_core::{Bitstring, CoreError, NonceSequence, RoundEngine};
use tagwatch_obs::Obs;
use tagwatch_sim::{Counter, FrameSize, TagId};

use crate::common::elapsed_ns;

/// Host time and call counts of one wrapped engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTimes {
    /// `load` calls.
    pub loads: u64,
    /// Nanoseconds inside `load`, including pulling the caller's
    /// iterator (the registry stream on the verify side).
    pub load_ns: u64,
    /// `run` / `run_observed` calls.
    pub runs: u64,
    /// Nanoseconds inside `run` / `run_observed`.
    pub run_ns: u64,
    /// Nanoseconds the shadow spent in `run`.
    pub shadow_run_ns: u64,
    /// Rounds whose shadow bitstring or announcement count differed.
    pub shadow_mismatches: u64,
}

impl EngineTimes {
    /// Engine time in nanoseconds, shadow excluded.
    pub fn engine_ns(&self) -> u64 {
        self.load_ns + self.run_ns
    }
}

/// The adapter. `census`, when set, routes `run` through the inner
/// engine's observed path so `probes_total` counts every round; it
/// changes the scan kernel, so census passes are never timed.
#[derive(Debug)]
pub struct TimedEngine<E> {
    inner: E,
    times: EngineTimes,
    shadow: Option<Shadow>,
    census: Option<Obs>,
}

#[derive(Debug)]
struct Shadow {
    engine: PooledEngine,
    parts: Vec<(TagId, Counter, bool)>,
}

impl<E: RoundEngine> TimedEngine<E> {
    /// Wraps `inner` with zeroed timers and no shadow.
    pub fn new(inner: E) -> Self {
        TimedEngine {
            inner,
            times: EngineTimes::default(),
            shadow: None,
            census: None,
        }
    }

    /// Also replays every round on `shadow`.
    pub fn with_shadow(mut self, shadow: PooledEngine) -> Self {
        self.shadow = Some(Shadow {
            engine: shadow,
            parts: Vec::new(),
        });
        self
    }

    /// Counts probes of every round into `obs` (see the type docs).
    pub fn with_census(mut self, obs: Obs) -> Self {
        self.census = Some(obs);
        self
    }

    /// Times and counts so far.
    pub fn times(&self) -> EngineTimes {
        self.times
    }

    /// Zeroes the times and counts (after a warm-up).
    pub fn reset_times(&mut self) {
        self.times = EngineTimes::default();
    }

    /// The census observer, when one was set.
    pub fn census(&self) -> Option<&Obs> {
        self.census.as_ref()
    }

    /// The shadow engine, when one was set.
    pub fn shadow(&self) -> Option<&PooledEngine> {
        self.shadow.as_ref().map(|s| &s.engine)
    }

    /// Times one round of the wrapped engine (observed when `obs` is
    /// set), then replays it on the shadow.
    fn timed_run(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: Option<&Obs>,
    ) -> Result<u64, CoreError> {
        let start = Instant::now();
        let result = match obs {
            Some(obs) => self.inner.run_observed(f, nonces, obs),
            None => self.inner.run(f, nonces),
        };
        self.times.run_ns += elapsed_ns(start);
        self.times.runs += 1;
        let announcements = result?;
        self.shadow_round(f, nonces)?;
        Ok(announcements)
    }

    fn shadow_round(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<(), CoreError> {
        let Some(shadow) = self.shadow.as_mut() else {
            return Ok(());
        };
        shadow.engine.load(shadow.parts.iter().copied());
        let start = Instant::now();
        let announcements = shadow.engine.run(f, nonces)?;
        self.times.shadow_run_ns += elapsed_ns(start);
        if announcements != self.inner.announcements()
            || shadow.engine.bitstring() != self.inner.bitstring()
        {
            self.times.shadow_mismatches += 1;
        }
        Ok(())
    }
}

impl<E: RoundEngine> RoundEngine for TimedEngine<E> {
    fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I) {
        let start = Instant::now();
        match self.shadow.as_mut() {
            // Teeing the stream costs one store per tag into a buffer
            // whose capacity is already grown after the first round.
            Some(shadow) => {
                shadow.parts.clear();
                let parts_buf = &mut shadow.parts;
                self.inner
                    .load(parts.into_iter().inspect(|&p| parts_buf.push(p)));
            }
            None => self.inner.load(parts),
        }
        self.times.load_ns += elapsed_ns(start);
        self.times.loads += 1;
    }

    fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError> {
        let census = self.census.take();
        let result = self.timed_run(f, nonces, census.as_ref());
        self.census = census;
        result
    }

    fn run_observed(
        &mut self,
        f: FrameSize,
        nonces: &NonceSequence,
        obs: &Obs,
    ) -> Result<u64, CoreError> {
        self.timed_run(f, nonces, Some(obs))
    }

    fn bitstring(&self) -> &Bitstring {
        self.inner.bitstring()
    }

    fn take_bitstring(&mut self) -> Bitstring {
        self.inner.take_bitstring()
    }

    fn announcements(&self) -> u64 {
        self.inner.announcements()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_core::protocol::{Protocol, Utrp};
    use tagwatch_core::{MonitorServer, RoundExecutor, RoundScratch, UtrpChallenge};
    use tagwatch_sim::{TagPopulation, TimingModel};

    /// Mixed counters and a few mute tags, so neither the uniform-key
    /// collapse nor the all-active path hides a forwarding bug.
    fn parts(n: u64) -> Vec<(TagId, Counter, bool)> {
        (0..n)
            .map(|i| {
                let id = TagId::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5bd1);
                (id, Counter::new(i % 3), i % 17 == 5)
            })
            .collect()
    }

    fn reference(n: u64, f: u64, seed: u64) -> (Bitstring, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ch =
            UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng);
        let mut scratch = RoundScratch::new();
        scratch.load(parts(n));
        let a = scratch.run(ch.frame_size(), ch.nonces()).unwrap();
        (scratch.bitstring().clone(), a)
    }

    /// Pooled engines at one and two threads, the second forced
    /// through its workers by a threshold of one tag.
    fn pools() -> [PooledEngine; 2] {
        [
            PooledEngine::with_threshold(1, 1),
            PooledEngine::with_threshold(2, 1),
        ]
    }

    fn check<E: RoundEngine>(engine: E, shadow: Option<PooledEngine>) {
        let shadowed = shadow.is_some();
        let mut timed = TimedEngine::new(engine);
        if let Some(shadow) = shadow {
            timed = timed.with_shadow(shadow);
        }
        for (round, &(n, f)) in [(300u64, 257u64), (40, 64), (300, 1000)].iter().enumerate() {
            let seed = 11 + round as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let ch =
                UtrpChallenge::generate(FrameSize::new(f).unwrap(), &TimingModel::gen2(), &mut rng);
            timed.load(parts(n));
            let a = timed.run(ch.frame_size(), ch.nonces()).unwrap();
            let (bits, want) = reference(n, f, seed);
            assert_eq!(a, want, "announcement count, round {round}");
            assert_eq!(timed.announcements(), want);
            assert_eq!(timed.bitstring(), &bits, "bitstring, round {round}");
        }
        let t = timed.times();
        assert_eq!((t.loads, t.runs), (3, 3));
        assert!(t.run_ns > 0);
        assert_eq!(t.shadow_mismatches, 0);
        assert_eq!(t.shadow_run_ns > 0, shadowed);
    }

    #[test]
    fn adapter_matches_round_scratch() {
        check(RoundScratch::new(), None);
        for pool in pools() {
            check(RoundScratch::new(), Some(pool));
        }
    }

    #[test]
    fn adapter_matches_pooled_engine_at_one_and_two_threads() {
        for pool in pools() {
            check(pool, None);
        }
        let [one, two] = pools();
        check(one, Some(two));
    }

    #[test]
    fn forced_pool_engagement_is_real() {
        let mut timed =
            TimedEngine::new(RoundScratch::new()).with_shadow(PooledEngine::with_threshold(2, 1));
        let mut rng = StdRng::seed_from_u64(3);
        let ch =
            UtrpChallenge::generate(FrameSize::new(512).unwrap(), &TimingModel::gen2(), &mut rng);
        timed.load(parts(500));
        timed.run(ch.frame_size(), ch.nonces()).unwrap();
        let pool = timed.shadow().unwrap();
        assert_eq!((pool.threads(), pool.scalar_fallbacks()), (2, 0));
        assert_eq!(timed.times().shadow_mismatches, 0);
    }

    #[test]
    fn census_counts_probes_without_changing_the_round() {
        let obs = Obs::metrics_only();
        let mut timed = TimedEngine::new(RoundScratch::new()).with_census(obs);
        let mut rng = StdRng::seed_from_u64(5);
        let ch =
            UtrpChallenge::generate(FrameSize::new(300).unwrap(), &TimingModel::gen2(), &mut rng);
        timed.load(parts(200));
        let a = timed.run(ch.frame_size(), ch.nonces()).unwrap();
        let (bits, want) = reference(200, 300, 5);
        assert_eq!((a, timed.bitstring()), (want, &bits));
        let obs = timed.census().unwrap();
        assert!(obs.counter(obs.m.probes_total) > 0);
    }

    /// The three calls `Utrp::run_round` composes, through the adapter,
    /// reach the same report as the protocol driving a bare engine.
    #[test]
    fn utrp_round_through_adapter_matches_protocol() {
        let run = |timed: bool| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut floor = TagPopulation::with_random_ids(400, &mut rng);
            let mut server = MonitorServer::new(floor.ids(), 4, 0.95).unwrap();
            let exec = RoundExecutor::ideal();
            let mut reports = Vec::new();
            if timed {
                let mut engine = TimedEngine::new(PooledEngine::with_threshold(2, 1))
                    .with_shadow(PooledEngine::with_threshold(1, 1));
                for _ in 0..3 {
                    let timing = server.config().timing;
                    let ch = server.issue_utrp_challenge(&mut rng).unwrap();
                    let resp = exec
                        .run_utrp_scratch(&mut floor, &ch, &timing, &mut rng, &mut engine)
                        .unwrap();
                    reports.push(server.verify_utrp_with(ch, &resp, &mut engine).unwrap());
                }
                assert_eq!(engine.times().runs, 6);
                assert_eq!(engine.times().shadow_mismatches, 0);
            } else {
                let mut engine = RoundScratch::new();
                for _ in 0..3 {
                    reports.push(
                        Utrp.run_round(&mut server, &mut floor, &exec, &mut engine, &mut rng)
                            .unwrap(),
                    );
                }
            }
            reports
        };
        let plain = run(false);
        assert!(plain.iter().all(|r| r.verdict.is_intact()));
        assert_eq!(run(true), plain);
    }
}
