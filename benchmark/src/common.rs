//! What every workload shares: the metric catalog, the result block,
//! timing helpers, the span-tree wall split and peak memory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use tagwatch_analytics::soak::SoakConfig;
use tagwatch_core::MonitorServer;
use tagwatch_obs::{Clock, Obs};
use tagwatch_sim::TagId;

use crate::stats::{self, Reservoir};

/// End-to-end metrics, reported by every untraced run: name and unit.
///
/// A tick's host time is its own cost plus the load of the machines
/// sharing the host's cores. That load slows every tick by about half,
/// in streaks of seconds and in spells of minutes. The tick rate, the
/// median and the low percentiles follow the share of a run spent
/// slowed, so they move by up to half between runs of the same code.
/// The tail sits on the slowed ticks, which every run has, and holds
/// still; it is the tick time compared run against run, and
/// `ticks_per_s` and `tick_p50_ms` are printed beside it.
pub const END_TO_END: [(&str, &str); 4] = [
    ("tick_tail_ms", "ms"),
    ("slots_per_tick", "slots"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A layer a
/// workload leaves idle, or that its trace cannot reach, reads 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("frame.ms_per_call", "ms"),
    ("frame.calls_per_tick", "count"),
    ("frame.share", "ratio"),
    ("frame.fresh_ratio", "ratio"),
    ("engine.load_ms_per_round", "ms"),
    ("engine.run_ms_per_round", "ms"),
    ("engine.probes_per_tick", "count"),
    ("engine.ns_per_probe", "ns"),
    ("engine.share", "ratio"),
    ("pool.run_ms_per_round", "ms"),
    ("pool.speedup", "ratio"),
    ("pool.pooled_round_ratio", "ratio"),
    ("executor.self_ms_per_round", "ms"),
    ("server.verify_self_ms_per_call", "ms"),
    ("server.mismatch_ratio", "ratio"),
    ("server.diagnosed_ratio", "ratio"),
    ("session.rounds_per_tick", "count"),
    ("soak.round_share", "ratio"),
    ("soak.tick_p50_ms", "ms"),
    ("soak.tick_p99_ms", "ms"),
    ("durable.journal_overhead", "ratio"),
    ("store.bytes_per_tick", "B"),
    ("store.recover_ms", "ms"),
    ("durable.replay_ms", "ms"),
    ("remainder.ms_per_tick", "ms"),
];

/// Set-ups before the timed run, and again after it, at least;
/// `setup_s` is the median of both groups.
pub const SETUP_REPS: usize = 3;

/// Each group of set-ups repeats until this much time has passed, so a
/// set-up of a few milliseconds is still the median of many.
pub const SETUP_MIN_S: f64 = 0.5;

/// Tick timings kept per run for the median and the tail.
pub const TICK_SAMPLES: usize = 4096;

/// One run's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ticks attempted in the measured passes.
    pub attempted: u64,
    /// Ticks that errored or failed an output check.
    pub failed: u64,
    /// Checks that failed, one line each.
    pub errors: Vec<String>,
    /// Metric values by name (units come from the catalog).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context lines printed with a leading `#`.
    pub notes: Vec<String>,
    /// Figures printed as `name value unit` lines but kept out of the
    /// JSON block: exact values that cannot vary between runs of one
    /// input, values that apply to one workload only, and the tick rate
    /// and median, which move with the host's load.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check covering `ticks` ticks.
    pub fn fail(&mut self, ticks: u64, why: String) {
        self.failed += ticks;
        self.errors.push(why);
    }

    /// Sets the per-tick metrics shared by every untraced run, from
    /// the tick count, the busy time, a sample of tick timings, and
    /// the frame slots of every round. The rate and the median are
    /// printed lines, outside the JSON (see [`END_TO_END`]).
    pub fn set_tick_metrics(&mut self, ticks: u64, busy_ns: u64, tick_ms: &Reservoir, slots: u64) {
        let samples = tick_ms.samples();
        self.set("slots_per_tick", slots as f64 / ticks.max(1) as f64);
        if let Some(t) = stats::tail(samples) {
            self.set("tick_tail_ms", t.value);
            self.notes.push(format!(
                "tick_tail_ms is p{:.3} over {} ticks sampled from {}",
                t.percentile,
                t.samples,
                tick_ms.seen()
            ));
        }
        self.extra
            .push(("ticks_per_s", ticks as f64 / (busy_ns as f64 / 1e9), "1/s"));
        self.extra
            .push(("tick_p50_ms", stats::median(samples).unwrap_or(0.0), "ms"));
    }

    /// Renders the `name value unit` lines, the notes and the final
    /// JSON line. Missing end-to-end metrics and non-finite values are
    /// benchmark bugs and fail the run; missing per-layer metrics are
    /// idle layers and read 0.
    pub fn render(mut self, workload: &str, seed: u64, traced: bool) -> String {
        let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut idle = Vec::new();
        let mut rows = Vec::new();
        for &(name, unit) in catalog {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.errors
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if traced => {
                    idle.push(name);
                    0.0
                }
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            rows.push((name, value, unit));
        }
        let attempted = self.attempted.max(1);
        // One tick can fail several checks; it still counts once.
        let failed = self.failed.min(attempted);
        let correct = self.errors.is_empty() && failed == 0 && self.attempted > 0;

        let mut out = String::new();
        let mode = if traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "# workload {workload} seed {seed} {mode}");
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        if !idle.is_empty() {
            let _ = writeln!(
                out,
                "# idle or unreachable on this workload: {}",
                idle.join(" ")
            );
        }
        for err in &self.errors {
            let _ = writeln!(out, "# CHECK FAILED: {err}");
        }
        for &(name, value, unit) in rows.iter().chain(&self.extra) {
            let _ = writeln!(out, "{name} {value} {unit}");
        }
        let _ = writeln!(out, "fail_ratio {} ratio", failed as f64 / attempted as f64);
        let body: Vec<String> = rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
        out
    }
}

/// Parses the `metrics` of a result line back into `(name, value)`
/// pairs, in order; empty for any other line.
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(start) = line.find("\"metrics\": {") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &line[start + "\"metrics\": {".len()..];
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name_start = rest[..open].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..open].to_string();
        let after = &rest[open + "\": {\"value\": ".len()..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = &after[end..];
    }
    out
}

/// Nanoseconds since `since`.
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`] seconds, and returns the last result with every
/// set-up's time in seconds. Each result is dropped before the next
/// set-up, so only one is alive at a time.
pub fn timed_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    while secs.len() < SETUP_REPS || secs.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    last.map(|t| (t, secs)).ok_or("no set-up ran".to_string())
}

/// Repeats the set-up after the timed run as [`timed_setup`] did
/// before it, and sets `setup_s` to the median of both groups. The
/// host's load comes and goes in streaks of seconds, so two groups a
/// run apart see two moments of it rather than one. Drop the
/// workload's own instance first, so only one is alive at a time.
pub fn finish_setup<T>(
    out: &mut Outcome,
    mut before: Vec<f64>,
    setup: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    let (_, after) = timed_setup(setup)?;
    before.extend(after);
    out.set("setup_s", stats::median(&before).unwrap_or(0.0));
    Ok(())
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".to_string())
}

/// The benchmark's wall clock for the span recorder: the same hook
/// the CLI's `--spans-wall` fills, so tick and round spans carry
/// host nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        elapsed_ns(self.0)
    }
}

/// The telemetry the CLI's `soak --spans-wall` runs with: `Obs::new()`
/// plus a wall clock on the span tree.
pub fn cli_obs() -> Obs {
    let obs = Obs::new();
    obs.set_span_clock(Rc::new(WallClock(Instant::now())));
    obs
}

/// Wall times read back from a span tree.
#[derive(Debug)]
pub struct SpanWalls {
    /// A sample of tick span wall times, ms.
    pub tick_ms: Reservoir,
    /// Sum of tick span walls, ns.
    pub tick_ns: u64,
    /// Sum of round span walls, ns.
    pub round_ns: u64,
}

impl SpanWalls {
    /// No spans yet; tick samples are drawn with `seed`.
    pub fn new(seed: u64) -> Self {
        SpanWalls {
            tick_ms: Reservoir::new(TICK_SAMPLES, seed),
            tick_ns: 0,
            round_ns: 0,
        }
    }

    /// Adds the tick and round spans of `obs`'s tree.
    pub fn absorb(&mut self, obs: &Obs) {
        for line in obs.spans_jsonl().lines() {
            let kind = field(line, "\"kind\":\"").and_then(|k| k.split('"').next());
            let wall = field(line, "\"wall_ns\":")
                .and_then(|w| w.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|w| w.parse::<u64>().ok());
            match (kind, wall) {
                (Some("tick"), Some(ns)) => {
                    self.tick_ns += ns;
                    self.tick_ms.push(ms(ns));
                }
                (Some("round"), Some(ns)) => self.round_ns += ns,
                _ => {}
            }
        }
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|i| &line[i + key.len()..])
}

/// Counters a soak's observer holds at the end of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SoakCounters {
    pub ticks: u64,
    pub rounds: u64,
    pub verifies: u64,
    pub mismatches: u64,
    pub desynced: u64,
    pub probes: u64,
    /// Frame slots of every round.
    pub slots: u64,
}

impl SoakCounters {
    /// Adds `obs`'s counters.
    pub fn absorb(&mut self, obs: &Obs) {
        let c = |id| obs.counter(id);
        let m = &obs.m;
        self.ticks += c(m.soak_ticks);
        self.rounds += c(m.rounds_total);
        let alarms = c(m.verify_alarm);
        let desynced = c(m.verify_desynced);
        self.verifies += c(m.verify_intact) + alarms + desynced;
        self.mismatches += alarms + desynced;
        self.desynced += desynced;
        self.probes += c(m.probes_total);
        self.slots += c(m.slots_total);
    }
}

/// A server with the default soak's registry size and (m, α), for the
/// direct layer calls of the soak-driven traced runs.
pub fn soak_sized_server() -> Result<MonitorServer, String> {
    let c = SoakConfig::default();
    MonitorServer::new((1..=c.n as u64).map(TagId::from), c.m, c.alpha)
        .map_err(|e| format!("direct-call server: {e}"))
}

/// The digest `results/soak_<seed>.json` pins for a soak of `ticks`
/// ticks, when that file exists and was made with that length.
pub fn golden_soak_digest(seed: u64, ticks: u64) -> Option<u64> {
    let text = std::fs::read_to_string(format!("results/soak_{seed}.json")).ok()?;
    let config = field(&text, "\"config\": {")?;
    let same_seed = config.starts_with(&format!("\"seed\": {seed},"));
    let same_len = config.contains(&format!("\"ticks\": {ticks},"));
    if !(same_seed && same_len) {
        return None;
    }
    let hex = field(&text, "\"digest\": \"fnv1a:")?.get(..16)?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_block_round_trips_through_spread_parser() {
        let mut o = Outcome {
            attempted: 40,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        let text = o.render("fleet", 3, false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 40, \"failed\": 0,"));
        let parsed = parse_metrics(last);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[0], ("tick_tail_ms".to_string(), 1.5));
        assert!(text.contains("\nslots_per_tick 2.5 slots\n"));
    }

    #[test]
    fn tick_metrics_compare_the_tail_and_print_rate_and_median() {
        let mut ticks = Reservoir::new(TICK_SAMPLES, 1);
        for ms in 1..=100 {
            ticks.push(f64::from(ms));
        }
        let mut o = Outcome {
            attempted: 100,
            ..Outcome::default()
        };
        o.set_tick_metrics(100, 2_000_000_000, &ticks, 700);
        o.set("setup_s", 0.5);
        o.set("peak_rss_mb", 4.0);
        let text = o.render("fleet", 1, false);
        let last = text.lines().last().unwrap();
        let json: Vec<(String, f64)> = parse_metrics(last);
        let names: Vec<&str> = json.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert_eq!(json[0].1, 90.0);
        assert_eq!(json[1].1, 7.0);
        assert!(last.starts_with("{\"correct\": true"));
        assert!(text.contains("\nticks_per_s 50 1/s\n"));
        assert!(text.contains("\ntick_p50_ms 50.5 ms\n"));
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.set("tick_tail_ms", f64::NAN);
        let text = o.render("soak", 1, false);
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
        // Traced runs fill idle layers with 0 and stay correct.
        let text = Outcome {
            attempted: 1,
            ..Outcome::default()
        }
        .render("soak", 1, true);
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": true"));
        assert_eq!(
            parse_metrics(text.lines().last().unwrap()).len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn span_walls_read_tick_and_round_spans() {
        let obs = Obs::new();
        obs.set_span_clock(Rc::new(WallClock(Instant::now())));
        obs.span_open(tagwatch_obs::SpanKind::Tick);
        obs.span_open(tagwatch_obs::SpanKind::Round);
        obs.span_close();
        obs.span_close();
        let mut walls = SpanWalls::new(1);
        walls.absorb(&obs);
        assert_eq!(walls.tick_ms.seen(), 1);
        assert!(walls.tick_ns >= walls.round_ns);
    }
}
