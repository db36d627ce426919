//! `fleet`: steady monitoring of one 10⁴-tag store through
//! `MonitoringSession::tick` — random tag IDs from the seed, m = 10,
//! α = 0.95, UTRP over the ideal channel, nothing missing — on one
//! thread.
//!
//! The field round and the mirror prediction in `core::engine` do
//! most of the work and Eq. 3 most of the rest; diagnosis never runs.
//! The traced run also replays every round on a two-thread
//! `PooledEngine`: 10⁴ actives clear `POOL_THRESHOLD`, so that shadow
//! is where `analytics::pool` is measured.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch_analytics::session::SessionEvent;
use tagwatch_analytics::{MonitoringSession, PooledEngine, TickProtocol};
use tagwatch_core::{
    MonitorReport, MonitorServer, RoundEngine, RoundExecutor, RoundScratch, Verdict,
};
use tagwatch_obs::Obs;
use tagwatch_sim::TagPopulation;

use crate::common::{
    elapsed_ns, finish_setup, ms, peak_rss_mb, ratio, timed_setup, Outcome, TICK_SAMPLES,
};
use crate::stats::Reservoir;
use crate::timed::TimedEngine;

/// Tags in the store.
pub const TAGS: usize = 10_000;
/// Missing-tag tolerance.
pub const M: u64 = 10;
/// Detection confidence.
pub const ALPHA: f64 = 0.95;
/// Worker threads of the traced run's shadow pool.
pub const POOL_THREADS: usize = 2;

/// What one check decided, compared tick for tick between the session
/// and the traced replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Check {
    frame: u64,
    intact: bool,
    mismatched: usize,
    air_us: u64,
}

impl Check {
    fn of(report: &MonitorReport) -> Self {
        Check {
            frame: report.frame_size,
            intact: report.verdict == Verdict::Intact,
            mismatched: report.mismatched_slots,
            air_us: report.elapsed.map_or(0, |e| e.as_micros()),
        }
    }

    fn is_ok(&self) -> bool {
        self.intact && self.mismatched == 0
    }
}

/// The floor and its RNG, drawn from the seed.
fn floor(seed: u64) -> (TagPopulation, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let floor = TagPopulation::with_random_ids(TAGS, &mut rng);
    (floor, rng)
}

fn server(floor: &TagPopulation) -> Result<MonitorServer, String> {
    MonitorServer::new(floor.ids(), M, ALPHA).map_err(|e| format!("server: {e}"))
}

struct Fleet {
    floor: TagPopulation,
    rng: StdRng,
    session: MonitoringSession,
}

impl Fleet {
    /// Population, server and session, then one warm-up tick.
    fn set_up(seed: u64) -> Result<Self, String> {
        let (floor, rng) = floor(seed);
        let session = MonitoringSession::builder(server(&floor)?)
            .protocol(TickProtocol::Utrp)
            .build();
        let mut fleet = Fleet {
            floor,
            rng,
            session,
        };
        let warm = fleet.tick().map_err(|e| format!("warm-up tick: {e}"))?;
        if !warm.is_ok() {
            return Err(format!("warm-up tick was not intact: {warm:?}"));
        }
        Ok(fleet)
    }

    fn tick(&mut self) -> Result<Check, String> {
        match self.session.tick(&mut self.floor, &mut self.rng) {
            Ok(SessionEvent::Checked(report)) => Ok(Check::of(report)),
            Ok(other) => Err(format!("unexpected session event {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Session ticks until `seconds` have passed.
struct SessionRun {
    /// Each tick's check, `None` where the tick errored.
    checks: Vec<Option<Check>>,
    /// Tick host times, ms.
    tick_ms: Reservoir,
    /// Host time inside `tick`, ns.
    busy_ns: u64,
}

fn run_session(fleet: &mut Fleet, seconds: f64, seed: u64, out: &mut Outcome) -> SessionRun {
    let (mut checks, mut tick_ms, mut busy_ns) =
        (Vec::new(), Reservoir::new(TICK_SAMPLES, seed), 0);
    let start = Instant::now();
    while checks.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let result = fleet.tick();
        let ns = elapsed_ns(t);
        busy_ns += ns;
        tick_ms.push(ms(ns));
        out.attempted += 1;
        let check = match result {
            Ok(check) if check.is_ok() => Some(check),
            Ok(check) => {
                out.fail(1, format!("tick {}: {check:?}", checks.len()));
                Some(check)
            }
            Err(e) => {
                out.fail(1, format!("tick {}: {e}", checks.len()));
                None
            }
        };
        checks.push(check);
    }
    SessionRun {
        checks,
        tick_ms,
        busy_ns,
    }
}

/// The untraced run: end-to-end metrics.
pub fn untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut fleet, setup) = timed_setup(|| Fleet::set_up(seed))?;
    let run = run_session(&mut fleet, seconds, seed, &mut out);
    drop(fleet);
    let checks = run.checks.iter().flatten();
    let slots = checks.clone().map(|c| c.frame).sum();
    let air_us = checks.map(|c| c.air_us).sum::<u64>() as f64;
    let ticks = run.checks.len() as u64;
    out.set_tick_metrics(ticks, run.busy_ns, &run.tick_ms, slots);
    // Simulated Gen2 air time, exact and the same on every run of a
    // seed, so it is a printed line and not in the JSON block.
    out.extra
        .push(("air_ms_per_tick", air_us / 1000.0 / ticks as f64, "ms"));
    finish_setup(&mut out, setup, || Fleet::set_up(seed))?;
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// Host time of one replayed tick, split by the call that spent it.
#[derive(Debug, Default)]
struct Split {
    tick_ns: u64,
    frame_ns: u64,
    exec_ns: u64,
    verify_ns: u64,
    exec_engine_ns: u64,
    verify_engine_ns: u64,
}

/// The three calls `Utrp::run_round` composes, on a server and engine
/// the benchmark owns.
struct Replay<E: RoundEngine> {
    floor: TagPopulation,
    rng: StdRng,
    server: MonitorServer,
    engine: TimedEngine<E>,
    exec: RoundExecutor,
}

impl<E: RoundEngine> Replay<E> {
    /// Same floor and RNG stream as the session, then the same
    /// warm-up tick.
    fn new(seed: u64, engine: TimedEngine<E>) -> Result<Self, String> {
        let (floor, rng) = floor(seed);
        let mut replay = Replay {
            server: server(&floor)?,
            floor,
            rng,
            engine,
            exec: RoundExecutor::ideal(),
        };
        replay
            .tick(&mut Split::default())
            .map_err(|e| format!("replay warm-up tick: {e}"))?;
        Ok(replay)
    }

    fn tick(&mut self, split: &mut Split) -> Result<Check, String> {
        let err = |e: tagwatch_core::CoreError| e.to_string();
        let start = Instant::now();

        let t = Instant::now();
        let timing = self.server.config().timing;
        let challenge = self
            .server
            .issue_utrp_challenge(&mut self.rng)
            .map_err(err)?;
        split.frame_ns += elapsed_ns(t);

        let (e0, t) = (self.engine.times(), Instant::now());
        let response = self
            .exec
            .run_utrp_scratch(
                &mut self.floor,
                &challenge,
                &timing,
                &mut self.rng,
                &mut self.engine,
            )
            .map_err(err)?;
        let e1 = self.engine.times();
        split.exec_ns += elapsed_ns(t);
        split.exec_engine_ns += e1.engine_ns() - e0.engine_ns();

        let t = Instant::now();
        let report = self
            .server
            .verify_utrp_with(challenge, &response, &mut self.engine)
            .map_err(err)?;
        let e2 = self.engine.times();
        split.verify_ns += elapsed_ns(t);
        split.verify_engine_ns += e2.engine_ns() - e1.engine_ns();

        split.tick_ns += elapsed_ns(start);
        Ok(Check::of(&report))
    }
}

/// Replays `expected` ticks, failing any tick whose check differs
/// from the session's.
fn replay<E: RoundEngine>(
    r: &mut Replay<E>,
    expected: &[Option<Check>],
    out: &mut Outcome,
) -> Result<Split, String> {
    let mut split = Split::default();
    for (i, want) in expected.iter().enumerate() {
        let got = r
            .tick(&mut split)
            .map_err(|e| format!("replay tick {i}: {e}"))?;
        out.attempted += 1;
        if Some(got) != *want {
            out.fail(1, format!("replay tick {i}: {got:?}, session had {want:?}"));
        }
    }
    Ok(split)
}

/// Share of `--seconds` the traced run's session takes. The three
/// replays cost about 4.5 session ticks per tick (the pool pass runs
/// every round twice, and two pool threads are slower than one), so
/// the whole traced run takes about `--seconds`.
const TRACED_SESSION_SHARE: f64 = 0.2;

/// The traced run: the session untraced for a fifth of the time, then
/// the same ticks replayed three times — with timers around each
/// layer, beside the worker pool, and through a probe-counting engine.
pub fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut fleet = Fleet::set_up(seed)?;
    let SessionRun {
        checks, busy_ns, ..
    } = run_session(&mut fleet, seconds * TRACED_SESSION_SHARE, seed, &mut out);
    drop(fleet);
    let k = checks.len() as f64;

    // Layer timing: the session's own engine type behind the adapter.
    let mut timed = Replay::new(seed, TimedEngine::new(PooledEngine::new(1)))?;
    timed.engine.reset_times();
    let split = replay(&mut timed, &checks, &mut out)?;
    let t = timed.engine.times();

    // The pool: every round again on the scalar engine and on a
    // two-thread pool, back to back, in a pass of its own so the
    // workers' cache traffic stays out of the layer timings.
    let shadowed =
        TimedEngine::new(RoundScratch::new()).with_shadow(PooledEngine::new(POOL_THREADS));
    let mut pool = Replay::new(seed, shadowed)?;
    let fallbacks_at =
        |r: &Replay<RoundScratch>| r.engine.shadow().map_or(0, PooledEngine::scalar_fallbacks);
    let warm_fallbacks = fallbacks_at(&pool);
    pool.engine.reset_times();
    replay(&mut pool, &checks, &mut out)?;
    let p = pool.engine.times();
    let pool_threads = pool.engine.shadow().map_or(1, PooledEngine::threads);
    let pooled = if pool_threads > 1 {
        p.runs - (fallbacks_at(&pool) - warm_fallbacks)
    } else {
        0
    };
    if p.shadow_mismatches > 0 {
        out.fail(
            p.shadow_mismatches,
            format!(
                "{} pooled rounds differ from the scalar engine",
                p.shadow_mismatches
            ),
        );
    }

    // Probes: once more through the counting kernel.
    let census = TimedEngine::new(RoundScratch::new()).with_census(Obs::metrics_only());
    let mut counted = Replay::new(seed, census)?;
    let probes_at =
        |r: &Replay<RoundScratch>| r.engine.census().map_or(0, |o| o.counter(o.m.probes_total));
    let probes0 = probes_at(&counted);
    replay(&mut counted, &checks, &mut out)?;
    let probes = (probes_at(&counted) - probes0) as f64;

    let tick_ns = split.tick_ns as f64;
    let engine_ns = t.engine_ns() as f64;
    let runs = t.runs as f64;
    out.set("frame.ms_per_call", ms(split.frame_ns) / k);
    out.set("frame.calls_per_tick", 1.0);
    out.set("frame.share", split.frame_ns as f64 / tick_ns);
    // Every call after the warm-up sizes the same (n, m, α, c).
    out.set("frame.fresh_ratio", 0.0);
    out.set(
        "engine.load_ms_per_round",
        ms(t.load_ns) / t.loads.max(1) as f64,
    );
    out.set("engine.run_ms_per_round", ms(t.run_ns) / runs);
    out.set("engine.probes_per_tick", probes / k);
    out.set("engine.ns_per_probe", ratio(t.run_ns as f64, probes));
    out.set("engine.share", engine_ns / tick_ns);
    let pool_runs = p.runs as f64;
    out.set("pool.run_ms_per_round", ms(p.shadow_run_ns) / pool_runs);
    out.set(
        "pool.speedup",
        ratio(p.run_ns as f64, p.shadow_run_ns as f64),
    );
    out.set("pool.pooled_round_ratio", pooled as f64 / pool_runs);
    out.set(
        "executor.self_ms_per_round",
        ms(split.exec_ns - split.exec_engine_ns) / k,
    );
    out.set(
        "server.verify_self_ms_per_call",
        ms(split.verify_ns - split.verify_engine_ns) / k,
    );
    let mismatching = checks.iter().flatten().filter(|c| c.mismatched > 0).count();
    out.set("server.mismatch_ratio", mismatching as f64 / k);
    out.set("server.diagnosed_ratio", 0.0);
    out.set("session.rounds_per_tick", 1.0);
    let layers_ns = split.frame_ns + split.exec_ns + split.verify_ns;
    out.set("remainder.ms_per_tick", ms(split.tick_ns - layers_ns) / k);

    let traced_ms = ms(split.tick_ns) / k;
    let untraced_ms = ms(busy_ns) / k;
    out.notes.push(format!(
        "{} ticks; traced tick {traced_ms:.6} ms, untraced session tick {untraced_ms:.6} ms, \
         tracing overhead {:+.6} ms/tick",
        checks.len(),
        traced_ms - untraced_ms,
    ));
    out.notes.push(format!(
        "layers: frame {:.6} + executor self {:.6} + engine {:.6} + verify self {:.6} \
         + remainder {:.6} = traced tick {traced_ms:.6} ms",
        ms(split.frame_ns) / k,
        ms(split.exec_ns - split.exec_engine_ns) / k,
        ms(t.engine_ns()) / k,
        ms(split.verify_ns - split.verify_engine_ns) / k,
        ms(split.tick_ns - layers_ns) / k,
    ));
    out.notes.push(format!(
        "{pooled} of {} rounds pooled on {pool_threads} threads; pooled bitstrings equal the scalar ones: {}",
        p.runs,
        p.shadow_mismatches == 0,
    ));
    Ok(out)
}
