//! `soak`: the CLI's default soak through `run_soak_observed_threads`
//! — 60 tags, m = 2, α = 0.95, UTRP over the Markov channel, a burst
//! every 40 ticks, a 3-tag theft every 250 — with the CLI's telemetry
//! (`Obs::new()` and the `--spans-wall` clock) on one thread.
//!
//! It measures incident handling: desync diagnosis in `core::server`
//! does most of the work. Each soak is 300 ticks so that every one
//! reaches a theft and its identification.

use std::time::Instant;

use tagwatch_analytics::soak::{run_soak_observed_threads, SoakConfig};
use tagwatch_core::RoundScratch;
use tagwatch_obs::histogram::percentile;
use tagwatch_obs::Obs;
use tagwatch_sim::Counter;

use crate::common::{
    cli_obs, elapsed_ns, finish_setup, golden_soak_digest, ms, peak_rss_mb, ratio,
    soak_sized_server, timed_setup, Outcome, SoakCounters, SpanWalls,
};
use crate::stats;

/// Ticks per soak run: every run reaches the theft at tick 250 and
/// its identification.
pub const TICKS: u64 = 300;
/// Ticks of the warm-up soak each set-up runs.
pub const WARMUP_TICKS: u64 = 50;
/// The soak seeds this workload replays: the two committed 300-tick
/// reports, `results/soak_1.json` and `results/soak_2.json`. A soak's
/// cost hangs on a few diagnosis ticks and varies twofold between
/// seeds, and a run fits only a couple of soaks, so the inputs are
/// fixed; `--seed` picks which comes first.
pub const CORPUS: [u64; 2] = [1, 2];
/// Direct calls timed per layer in the traced run.
const DIRECT_CALLS: u32 = 200;

fn config(seed: u64, ticks: u64) -> SoakConfig {
    SoakConfig {
        seed,
        ticks,
        ..SoakConfig::default()
    }
}

/// One pass of back-to-back soaks.
#[derive(Debug)]
struct Pass {
    soaks: u64,
    ticks: u64,
    busy_ns: u64,
    walls: SpanWalls,
    counters: SoakCounters,
    digests: Vec<Option<u64>>,
}

/// Runs whole passes over [`CORPUS`], another only while it should end
/// within `seconds` (or until `max_soaks` have run), checking each
/// report against its committed digest.
fn run_pass(seed: u64, seconds: f64, max_soaks: Option<u64>, out: &mut Outcome) -> Pass {
    let goldens = CORPUS.map(|s| golden_soak_digest(s, TICKS));
    let mut pass = Pass {
        soaks: 0,
        ticks: 0,
        busy_ns: 0,
        walls: SpanWalls::new(seed),
        counters: SoakCounters::default(),
        digests: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let cycle = Instant::now();
        for k in 0..CORPUS.len() as u64 {
            let at = ((seed + k) % CORPUS.len() as u64) as usize;
            let s = CORPUS[at];
            let obs = cli_obs();
            let t = Instant::now();
            let result = run_soak_observed_threads(&config(s, TICKS), &obs, 1);
            pass.busy_ns += elapsed_ns(t);
            out.attempted += TICKS;
            let digest = match result {
                Err(e) => {
                    out.fail(TICKS, format!("soak seed {s}: {e}"));
                    None
                }
                Ok(report) if !report.is_clean() => {
                    out.fail(TICKS, format!("soak seed {s}: {:?}", report.violations));
                    None
                }
                Ok(report) => {
                    let digest = report.digest();
                    match goldens[at] {
                        Some(golden) if golden == digest => {}
                        Some(golden) => out.fail(
                            TICKS,
                            format!("soak seed {s}: digest {digest:016x}, committed {golden:016x}"),
                        ),
                        None => out.fail(TICKS, format!("no committed digest for soak seed {s}")),
                    }
                    Some(digest)
                }
            };
            pass.digests.push(digest);
            pass.soaks += 1;
            pass.ticks += TICKS;
            pass.walls.absorb(&obs);
            pass.counters.absorb(&obs);
        }
        let done = match max_soaks {
            Some(max) => pass.soaks >= max,
            None => (start.elapsed() + cycle.elapsed()).as_secs_f64() > seconds,
        };
        if done {
            return pass;
        }
    }
}

/// Set-up: a short warm-up soak, the same for every seed.
fn warm_up() -> Result<(), String> {
    run_soak_observed_threads(&config(CORPUS[0], WARMUP_TICKS), &cli_obs(), 1)
        .map(|_| ())
        .map_err(|e| format!("warm-up soak: {e}"))
}

/// The untraced run: end-to-end metrics.
pub fn untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((), setup) = timed_setup(warm_up)?;
    let pass = run_pass(seed, seconds, None, &mut out);
    out.set_tick_metrics(
        pass.ticks,
        pass.busy_ns,
        &pass.walls.tick_ms,
        pass.counters.slots,
    );
    finish_setup(&mut out, setup, warm_up)?;
    out.set("peak_rss_mb", peak_rss_mb()?);
    out.notes.push(format!(
        "{} soaks of {TICKS} ticks, each matching its committed digest",
        pass.soaks
    ));
    Ok(out)
}

/// The traced run: the same soaks twice, then the per-layer split.
pub fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    warm_up()?;
    let plain = run_pass(seed, seconds / 2.0, None, &mut out);
    let pass = run_pass(seed, 0.0, Some(plain.soaks), &mut out);
    if pass.digests != plain.digests {
        out.fail(
            pass.ticks,
            "traced soak digests differ from the untraced pass".into(),
        );
    }
    let c = pass.counters;
    let ticks = c.ticks as f64;
    let per_tick_ms = ms(pass.busy_ns) / ticks.max(1.0);

    // The soak driver is crate-private: frame and engine costs come from
    // direct calls at the soak's own (n, m, α) and frame size.
    let server = soak_sized_server()?;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let mut frame_ns = 0;
    let mut challenges = Vec::with_capacity(DIRECT_CALLS as usize);
    for _ in 0..DIRECT_CALLS {
        let t = Instant::now();
        let ch = server
            .issue_utrp_challenge(&mut rng)
            .map_err(|e| format!("direct sizing call: {e}"))?;
        frame_ns += elapsed_ns(t);
        challenges.push(ch);
    }
    let frame_ms = ms(frame_ns) / f64::from(DIRECT_CALLS);
    let calls_per_tick = ratio(c.rounds as f64, ticks);
    out.set("frame.ms_per_call", frame_ms);
    out.set("frame.calls_per_tick", calls_per_tick);
    out.set("frame.share", ratio(frame_ms * calls_per_tick, per_tick_ms));
    // The soak's registry and (n, m, α, c) never change within a run.
    out.set("frame.fresh_ratio", 0.0);

    let (mut load_ns, mut run_ns) = (0, 0);
    let mut engine = RoundScratch::new();
    let census = Obs::metrics_only();
    let ids = server.registered_ids();
    let load =
        |engine: &mut RoundScratch| engine.load_pairs(ids.iter().map(|&id| (id, Counter::ZERO)));
    for ch in &challenges {
        let t = Instant::now();
        load(&mut engine);
        load_ns += elapsed_ns(t);
        let t = Instant::now();
        engine
            .run(ch.frame_size(), ch.nonces())
            .map_err(|e| format!("direct engine round: {e}"))?;
        run_ns += elapsed_ns(t);
        // A round retires its repliers, so the census needs a reload.
        load(&mut engine);
        engine
            .run_observed(ch.frame_size(), ch.nonces(), &census)
            .map_err(|e| format!("direct census round: {e}"))?;
    }
    let rounds = f64::from(DIRECT_CALLS);
    let (load_ms, run_ms) = (ms(load_ns) / rounds, ms(run_ns) / rounds);
    out.set("engine.load_ms_per_round", load_ms);
    out.set("engine.run_ms_per_round", run_ms);
    out.set("engine.probes_per_tick", ratio(c.probes as f64, ticks));
    out.set(
        "engine.ns_per_probe",
        ratio(run_ns as f64, census.counter(census.m.probes_total) as f64),
    );
    // Field round plus mirror prediction per round; diagnosis rounds
    // are invisible from outside, so this is a floor.
    out.set(
        "engine.share",
        ratio(2.0 * (load_ms + run_ms) * calls_per_tick, per_tick_ms),
    );

    out.set(
        "server.mismatch_ratio",
        ratio(c.mismatches as f64, c.verifies as f64),
    );
    out.set(
        "server.diagnosed_ratio",
        ratio(c.desynced as f64, c.mismatches as f64),
    );
    out.set("session.rounds_per_tick", ratio(c.rounds as f64, ticks));
    out.set(
        "soak.round_share",
        ratio(pass.walls.round_ns as f64, pass.walls.tick_ns as f64),
    );
    out.set(
        "soak.tick_p50_ms",
        stats::median(pass.walls.tick_ms.samples()).unwrap_or(0.0),
    );
    out.set(
        "soak.tick_p99_ms",
        percentile(pass.walls.tick_ms.samples(), 0.99).unwrap_or(0.0),
    );
    let round_ms = ms(pass.walls.round_ns) / ticks.max(1.0);
    out.set("remainder.ms_per_tick", per_tick_ms - round_ms);

    let per_tick = |p: &Pass| ms(p.busy_ns) / p.ticks.max(1) as f64;
    out.notes.push(format!(
        "{} soaks per pass; soak call {:.6} ms/tick traced, {:.6} untraced, overhead {:+.6} ms/tick",
        pass.soaks,
        per_tick(&pass),
        per_tick(&plain),
        per_tick(&pass) - per_tick(&plain),
    ));
    out.notes.push(format!(
        "layers: round {round_ms:.6} + remainder {:.6} = soak call {per_tick_ms:.6} ms/tick",
        per_tick_ms - round_ms,
    ));
    Ok(out)
}
