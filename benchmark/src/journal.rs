//! `journal`: the `soak --protocol trp --wal-out` path followed by
//! `recover` — a TRP soak journaled through `run_soak_durable_observed`
//! with a checkpoint every 25 ticks, then `resume_soak_durable` on its
//! WAL bytes.
//!
//! TRP ticks are short, so Eq. 2 sizing, WAL appends, checkpoint
//! encoding and the soak driver do the work; recovery reads back what
//! journaling wrote. `core::engine` and diagnosis stay idle.

use std::time::Instant;

use tagwatch_analytics::soak::{run_soak_observed_threads, SoakConfig};
use tagwatch_analytics::{
    resume_soak_durable, run_soak_durable_observed, DurableConfig, TickProtocol,
};
use tagwatch_obs::histogram::percentile;

use crate::common::{
    cli_obs, elapsed_ns, finish_setup, ms, peak_rss_mb, ratio, soak_sized_server, timed_setup,
    Outcome, SoakCounters, SpanWalls,
};
use crate::stats;

/// Ticks per journaled soak.
pub const TICKS: u64 = 300;
/// Ticks of the warm-up run each set-up journals and resumes.
pub const WARMUP_TICKS: u64 = 50;
/// Soak seed of the warm-up run.
const WARMUP_SEED: u64 = 1;
/// Direct sizing calls timed in the traced run.
const DIRECT_CALLS: u32 = 200;
/// Soak `i` of a run uses seed `seed + SEED_STRIDE * (i % SEED_CYCLE)`.
const SEED_STRIDE: u64 = 100;
/// Distinct soak seeds a run cycles through; a run journals hundreds
/// of soaks, so each is weighted alike.
const SEED_CYCLE: u64 = 8;

fn soak_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(SEED_STRIDE * (i % SEED_CYCLE))
}

fn config(seed: u64, ticks: u64) -> DurableConfig {
    DurableConfig {
        soak: SoakConfig {
            seed,
            ticks,
            protocol: TickProtocol::Trp,
            ..SoakConfig::default()
        },
        ..DurableConfig::default()
    }
}

/// The digest a plain (unjournaled) run of the same soak produces.
fn plain_digest(cfg: &DurableConfig) -> Result<u64, String> {
    run_soak_observed_threads(&cfg.soak, &cli_obs(), 1)
        .map(|r| r.digest())
        .map_err(|e| format!("plain soak seed {}: {e}", cfg.soak.seed))
}

#[derive(Debug)]
struct Pass {
    runs: u64,
    ticks: u64,
    journal_ns: u64,
    resume_ns: u64,
    resume_s: Vec<f64>,
    recover_ns: u64,
    plain_ns: u64,
    wal_bytes: u64,
    walls: SpanWalls,
    counters: SoakCounters,
    digests: Vec<Option<u64>>,
}

impl Pass {
    fn busy_ns(&self) -> u64 {
        self.journal_ns + self.resume_ns
    }
}

/// Journals and resumes soaks until `seconds` have passed or
/// `max_runs` have run, checking each against the plain-run digest in
/// `plain`. `traced` adds a timed `recover` scan and a timed plain run
/// of the same soak beside each journaled one.
fn run_pass(
    seed: u64,
    plain: &[u64],
    seconds: f64,
    max_runs: Option<u64>,
    traced: bool,
    out: &mut Outcome,
) -> Pass {
    let mut pass = Pass {
        runs: 0,
        ticks: 0,
        journal_ns: 0,
        resume_ns: 0,
        resume_s: Vec::new(),
        recover_ns: 0,
        plain_ns: 0,
        wal_bytes: 0,
        walls: SpanWalls::new(seed),
        counters: SoakCounters::default(),
        digests: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let s = soak_seed(seed, pass.runs);
        let cfg = config(s, TICKS);
        let obs = cli_obs();
        let t = Instant::now();
        let journaled = run_soak_durable_observed(&cfg, &obs);
        pass.journal_ns += elapsed_ns(t);
        out.attempted += TICKS;
        let digest = match journaled {
            Err(e) => {
                out.fail(TICKS, format!("journal seed {s}: {e}"));
                None
            }
            Ok(o) => match o.report {
                None => {
                    out.fail(TICKS, format!("journal seed {s}: run stopped early"));
                    None
                }
                Some(report) => {
                    let t = Instant::now();
                    let resumed = resume_soak_durable(&o.wal);
                    let resume_ns = elapsed_ns(t);
                    pass.resume_ns += resume_ns;
                    pass.resume_s.push(resume_ns as f64 / 1e9);
                    pass.wal_bytes += o.wal.len() as u64;
                    let digest = report.digest();
                    if plain.get((pass.runs % SEED_CYCLE) as usize) != Some(&digest) {
                        out.fail(
                            TICKS,
                            format!("seed {s}: journaled digest differs from plain run"),
                        );
                    }
                    match resumed {
                        Err(e) => out.fail(TICKS, format!("resume seed {s}: {e}")),
                        Ok(r) if r.report.digest() != digest => {
                            out.fail(TICKS, format!("resume seed {s}: digest differs"))
                        }
                        Ok(r) if !r.recovery.is_empty() => {
                            out.fail(TICKS, format!("resume seed {s}: {:?}", r.recovery))
                        }
                        Ok(_) if !report.is_clean() => {
                            out.fail(TICKS, format!("journal seed {s}: {:?}", report.violations))
                        }
                        Ok(_) => {}
                    }
                    if traced {
                        let t = Instant::now();
                        let recovered = tagwatch_store::recover(&o.wal);
                        pass.recover_ns += elapsed_ns(t);
                        match recovered {
                            Ok(r) if r.note.is_none() => {}
                            Ok(r) => out.fail(TICKS, format!("recover seed {s}: {:?}", r.note)),
                            Err(e) => out.fail(TICKS, format!("recover seed {s}: {e}")),
                        }
                        let t = Instant::now();
                        let again = plain_digest(&cfg);
                        pass.plain_ns += elapsed_ns(t);
                        if again != Ok(digest) {
                            out.fail(TICKS, format!("seed {s}: plain rerun differs"));
                        }
                    }
                    Some(digest)
                }
            },
        };
        pass.digests.push(digest);
        pass.runs += 1;
        pass.ticks += TICKS;
        pass.walls.absorb(&obs);
        pass.counters.absorb(&obs);
        let done = match max_runs {
            Some(max) => pass.runs >= max,
            None => start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            return pass;
        }
    }
}

/// The plain-run digest of every soak in the seed cycle: the reference
/// each journaled run is checked against. It belongs to the check, so
/// it is made before and outside the timed set-up.
fn reference(seed: u64) -> Result<Vec<u64>, String> {
    (0..SEED_CYCLE)
        .map(|i| plain_digest(&config(soak_seed(seed, i), TICKS)))
        .collect()
}

/// Set-up: one short journaled warm-up run resumed from its WAL, the
/// same for every seed.
fn warm_up() -> Result<(), String> {
    let outcome = run_soak_durable_observed(&config(WARMUP_SEED, WARMUP_TICKS), &cli_obs())
        .map_err(|e| format!("warm-up journal: {e}"))?;
    resume_soak_durable(&outcome.wal).map_err(|e| format!("warm-up resume: {e}"))?;
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plain = reference(seed)?;
    let ((), setup) = timed_setup(warm_up)?;
    let pass = run_pass(seed, &plain, seconds, None, false, &mut out);
    out.set_tick_metrics(
        pass.ticks,
        pass.busy_ns(),
        &pass.walls.tick_ms,
        pass.counters.slots,
    );
    finish_setup(&mut out, setup, warm_up)?;
    out.set("peak_rss_mb", peak_rss_mb()?);
    out.extra.push((
        "resume_s",
        stats::median(&pass.resume_s).unwrap_or(0.0),
        "s",
    ));
    out.notes
        .push(format!("{} journaled soaks of {TICKS} ticks", pass.runs));
    Ok(out)
}

/// The traced run: the same journaled soaks twice, the second with
/// `recover` and a plain run timed beside each. The first pass takes a
/// third of `--seconds` and the second about twice as long, so the
/// whole run takes about `--seconds`.
pub fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let digests = reference(seed)?;
    warm_up()?;
    let plain = run_pass(seed, &digests, seconds / 3.0, None, false, &mut out);
    let pass = run_pass(seed, &digests, 0.0, Some(plain.runs), true, &mut out);
    if pass.digests != plain.digests {
        out.fail(
            pass.ticks,
            "traced journal digests differ from the untraced pass".into(),
        );
    }
    let c = pass.counters;
    let ticks = pass.ticks as f64;
    let runs = pass.runs as f64;
    let per_tick_ms = ms(pass.busy_ns()) / ticks;

    let server = soak_sized_server()?;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let t = Instant::now();
    for _ in 0..DIRECT_CALLS {
        server
            .issue_trp_challenge(&mut rng)
            .map_err(|e| format!("direct sizing call: {e}"))?;
    }
    let frame_ms = ms(elapsed_ns(t)) / f64::from(DIRECT_CALLS);
    let calls_per_tick = ratio(c.rounds as f64, c.ticks as f64);
    out.set("frame.ms_per_call", frame_ms);
    out.set("frame.calls_per_tick", calls_per_tick);
    out.set("frame.share", frame_ms * calls_per_tick / per_tick_ms);
    // The soak's registry and (n, m, α) never change within a run.
    out.set("frame.fresh_ratio", 0.0);
    out.set(
        "engine.probes_per_tick",
        ratio(c.probes as f64, c.ticks as f64),
    );
    out.set(
        "server.mismatch_ratio",
        ratio(c.mismatches as f64, c.verifies as f64),
    );
    out.set(
        "server.diagnosed_ratio",
        ratio(c.desynced as f64, c.mismatches as f64),
    );
    out.set("session.rounds_per_tick", calls_per_tick);
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
    out.set(
        "durable.journal_overhead",
        pass.journal_ns as f64 / pass.plain_ns as f64 - 1.0,
    );
    out.set("store.bytes_per_tick", pass.wal_bytes as f64 / ticks);
    out.set("store.recover_ms", ms(pass.recover_ns) / runs);
    out.set(
        "durable.replay_ms",
        ms(pass.resume_ns.saturating_sub(pass.recover_ns)) / runs,
    );
    let layers_ns = pass.walls.tick_ns + pass.resume_ns;
    out.set(
        "remainder.ms_per_tick",
        (ms(pass.busy_ns()) - ms(layers_ns)) / ticks,
    );

    let untraced_ms = ms(plain.busy_ns()) / plain.ticks as f64;
    out.notes.push(format!(
        "{} journaled soaks per pass; {per_tick_ms:.6} ms/tick traced, {untraced_ms:.6} untraced, \
         tracing overhead {:+.6} ms/tick",
        pass.runs,
        per_tick_ms - untraced_ms,
    ));
    out.notes.push(format!(
        "layers: soak tick {:.6} + recover {:.6} + replay {:.6} + remainder {:.6} = {per_tick_ms:.6} ms/tick",
        ms(pass.walls.tick_ns) / ticks,
        ms(pass.recover_ns) / ticks,
        ms(pass.resume_ns.saturating_sub(pass.recover_ns)) / ticks,
        (ms(pass.busy_ns()) - ms(layers_ns)) / ticks,
    ));
    Ok(out)
}
