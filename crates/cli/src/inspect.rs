//! The `inspect` subcommand: a human-oriented summary of the
//! artifacts the other commands export or consume, plus `inspect
//! diff`, the postmortem tool for "these two runs should have been
//! identical".
//!
//! Four artifact kinds exist, and the file content disambiguates them:
//!
//! * a **metrics snapshot** (`--metrics-out`) carries the
//!   `tagwatch-obs-metrics-v1` schema marker — summarized as its
//!   non-zero counters/gauges, histogram populations, flight-ring
//!   state, and embedded digest;
//! * a **flight-recorder trace** (`--trace-out`) is JSONL, one event
//!   object per line — summarized as per-type counts plus the head and
//!   tail of the retained window;
//! * a **span tree** (`--spans-out`) is JSONL of `{"span": ...}` nodes
//!   plus a `{"rollup": ...}` trailer — rendered as an indented
//!   session → tick → round tree with per-phase cost attribution;
//! * a **policy document** (`--policy`) opens with the
//!   `tagwatch-policy v1` header — validated and echoed back in
//!   canonical form, so `inspect` shows the effective policy exactly
//!   as a session would interpret it.
//!
//! The telemetry formats are hand-rolled with fixed field order (the
//! workspace has no serde), so the summaries here parse them with
//! plain string operations rather than a JSON parser — intentionally:
//! anything the simple scan cannot read would also break the
//! byte-stability contract the exporters promise. That same contract
//! is what makes `inspect diff` sound: two clean runs of the same
//! seed produce byte-identical artifacts, so the *first differing
//! line* is the exact event where two runs parted ways, not noise.

use std::collections::BTreeMap;

use tagwatch_analytics::{Policy, POLICY_HEADER};

use crate::parse::CliError;

/// The schema marker every metrics snapshot carries.
const METRICS_SCHEMA: &str = "tagwatch-obs-metrics";

/// What kind of artifact a file's content declares it to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArtifactKind {
    Policy,
    Metrics,
    Trace,
    Spans,
}

impl ArtifactKind {
    fn name(self) -> &'static str {
        match self {
            ArtifactKind::Policy => "policy document",
            ArtifactKind::Metrics => "metrics snapshot",
            ArtifactKind::Trace => "event trace",
            ArtifactKind::Spans => "span tree",
        }
    }
}

/// Sniffs the artifact kind from file content.
fn detect(text: &str) -> Option<ArtifactKind> {
    if looks_like_policy(text) {
        Some(ArtifactKind::Policy)
    } else if text.contains(METRICS_SCHEMA) {
        Some(ArtifactKind::Metrics)
    } else if looks_like_trace(text) {
        Some(ArtifactKind::Trace)
    } else if looks_like_spans(text) {
        Some(ArtifactKind::Spans)
    } else {
        None
    }
}

fn read_artifact(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::new(format!("cannot read `{path}`: {e}")))
}

/// Reads and summarizes a telemetry artifact.
///
/// # Errors
///
/// Returns a [`CliError`] if the file cannot be read or matches
/// no known artifact shape.
pub fn run_inspect(path: &str) -> Result<String, CliError> {
    let text = read_artifact(path)?;
    match detect(&text) {
        Some(ArtifactKind::Policy) => summarize_policy(path, &text),
        Some(ArtifactKind::Metrics) => Ok(summarize_metrics(path, &text)),
        Some(ArtifactKind::Trace) => Ok(summarize_trace(path, &text)),
        Some(ArtifactKind::Spans) => Ok(summarize_spans(path, &text)),
        None => Err(CliError::new(format!(
            "`{path}` is neither a metrics snapshot (no `{METRICS_SCHEMA}` marker), \
             nor a JSONL event trace, nor a span tree, nor a `{POLICY_HEADER}` document"
        ))),
    }
}

/// A policy document's first significant line (comments and blanks
/// are insignificant, exactly as the parser treats them) is the
/// `tagwatch-policy v1` header.
fn looks_like_policy(text: &str) -> bool {
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        == Some(POLICY_HEADER)
}

/// Validates a policy document and prints its canonical form — the
/// effective policy, independent of comments or section ordering in
/// the source file.
fn summarize_policy(path: &str, text: &str) -> Result<String, CliError> {
    let policy = Policy::parse_named(text, path)?;
    let mut out = format!(
        "{path}: policy document (site `{}`, valid)\neffective policy:\n",
        policy.site
    );
    for line in policy.to_text().lines() {
        out.push_str(&format!("  {line}\n"));
    }
    Ok(out)
}

/// A trace is JSONL of event objects: every non-empty line starts an
/// object and declares a `"seq"` field first.
fn looks_like_trace(text: &str) -> bool {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    match lines.next() {
        Some(first) => first.trim_start().starts_with("{\"seq\":"),
        None => false,
    }
}

/// A span tree is JSONL whose lines open with `{"span":` — or, for a
/// run that retained no nodes, just the `{"rollup":` trailer.
fn looks_like_spans(text: &str) -> bool {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    match lines.next() {
        Some(first) => {
            let first = first.trim_start();
            first.starts_with("{\"span\":") || first.starts_with("{\"rollup\":")
        }
        None => false,
    }
}

/// Pulls the value text of `"name": value` off a snapshot body line.
fn field_value(line: &str) -> Option<(&str, &str)> {
    let trimmed = line.trim();
    let rest = trimmed.strip_prefix('"')?;
    let (name, rest) = rest.split_once("\":")?;
    Some((name, rest.trim().trim_end_matches(',')))
}

fn summarize_metrics(path: &str, text: &str) -> String {
    let mut out = format!("{path}: metrics snapshot\n");
    let mut section = "";
    let mut zero_counters = 0u64;
    for line in text.lines() {
        let trimmed = line.trim();
        match trimmed {
            "\"counters\": {" => {
                section = "counters";
                out.push_str("counters (non-zero):\n");
                continue;
            }
            "\"gauges\": {" => {
                if zero_counters > 0 {
                    out.push_str(&format!("  ({zero_counters} more at zero)\n"));
                }
                section = "gauges";
                out.push_str("gauges:\n");
                continue;
            }
            "\"histograms\": {" => {
                section = "histograms";
                out.push_str("histograms:\n");
                continue;
            }
            _ => {}
        }
        let Some((name, value)) = field_value(line) else {
            continue;
        };
        match (section, name) {
            (_, "flight") => out.push_str(&format!("flight ring: {value}\n")),
            (_, "digest") => out.push_str(&format!("digest: {value}\n")),
            ("counters", _) => {
                if value == "0" {
                    zero_counters += 1;
                } else {
                    out.push_str(&format!("  {name:<24} {value}\n"));
                }
            }
            ("gauges", _) => out.push_str(&format!("  {name:<24} {value}\n")),
            ("histograms", _) => {
                // `{"lo": .., "hi": .., "bins": [..], .., "count": N}`:
                // the trailing count is the population.
                let count = value
                    .rsplit("\"count\": ")
                    .next()
                    .map_or("?", |v| v.trim_end_matches(['}', ',']));
                out.push_str(&format!("  {name:<24} {count} sample(s)\n"));
            }
            _ => {}
        }
    }
    out
}

/// Pulls `"type":"x"` out of one event line.
fn event_type(line: &str) -> &str {
    line.split("\"type\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("?")
}

fn summarize_trace(path: &str, text: &str) -> String {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut by_type: BTreeMap<&str, u64> = BTreeMap::new();
    for line in &lines {
        *by_type.entry(event_type(line)).or_insert(0) += 1;
    }
    let mut out = format!("{path}: event trace, {} event(s)\n", lines.len());
    out.push_str("events by type:\n");
    for (kind, count) in &by_type {
        out.push_str(&format!("  {kind:<24} {count}\n"));
    }
    const SHOW: usize = 3;
    if !lines.is_empty() {
        out.push_str("first:\n");
        for line in lines.iter().take(SHOW) {
            out.push_str(&format!("  {line}\n"));
        }
        if lines.len() > SHOW {
            if lines.len() > 2 * SHOW {
                out.push_str(&format!("  ... {} more ...\n", lines.len() - 2 * SHOW));
            }
            out.push_str("last:\n");
            let tail_start = lines.len().saturating_sub(SHOW).max(SHOW);
            for line in &lines[tail_start..] {
                out.push_str(&format!("  {line}\n"));
            }
        }
    }
    out
}

/// The unsigned integer right after `key` in `text`.
fn u64_after(text: &str, key: &str) -> Option<u64> {
    let rest = text.split(key).nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Same, after the *last* occurrence of `key` — for rollup totals,
/// whose field names also appear inside the per-phase objects.
fn u64_after_last(text: &str, key: &str) -> Option<u64> {
    if !text.contains(key) {
        return None;
    }
    let rest = text.rsplit(key).next()?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The `(entries, slots, probes)` of one named phase object on a line.
fn phase_cost(line: &str, name: &str) -> Option<(u64, u64, u64)> {
    let seg = line.split(&format!("\"{name}\":{{\"entries\":")).nth(1)?;
    let entries: String = seg.chars().take_while(char::is_ascii_digit).collect();
    Some((
        entries.parse().ok()?,
        u64_after(seg, "\"slots\":")?,
        u64_after(seg, "\"probes\":")?,
    ))
}

/// Max span nodes rendered in the tree view; the rollup below it is
/// exact regardless of how many were elided.
const SPAN_TREE_SHOW: usize = 24;

fn summarize_spans(path: &str, text: &str) -> String {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let nodes: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|l| l.trim_start().starts_with("{\"span\":"))
        .collect();
    let mut out = format!("{path}: span tree, {} node(s)\n", nodes.len());
    let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, line) in nodes.iter().enumerate() {
        let id = u64_after(line, "{\"span\":").unwrap_or(0);
        let d = u64_after(line, "\"parent\":")
            .and_then(|p| depth.get(&p).copied())
            .map_or(0, |d| d + 1);
        depth.insert(id, d);
        if i >= SPAN_TREE_SHOW {
            continue;
        }
        let kind = line
            .split("\"kind\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("?");
        let ordinal = u64_after(line, "\"ordinal\":").unwrap_or(0);
        let slots = u64_after(line, "\"slots\":").unwrap_or(0);
        let probes = u64_after(line, "\"probes\":").unwrap_or(0);
        out.push_str(&format!(
            "{}{kind} #{ordinal}: slots={slots} probes={probes}",
            "  ".repeat(d + 1),
        ));
        if let Some(ticks) = u64_after(line, "\"ticks\":").filter(|&t| t > 0) {
            out.push_str(&format!(" ticks={ticks}"));
        }
        if let Some(ns) = u64_after(line, "\"wall_ns\":") {
            out.push_str(&format!(" wall={ns}ns"));
        }
        if line.contains("\"open\":true") {
            out.push_str(" (OPEN)");
        }
        out.push('\n');
    }
    if nodes.len() > SPAN_TREE_SHOW {
        out.push_str(&format!(
            "  ... {} more span(s) ...\n",
            nodes.len() - SPAN_TREE_SHOW
        ));
    }
    let Some(rollup) = lines
        .iter()
        .copied()
        .find(|l| l.trim_start().starts_with("{\"rollup\":"))
    else {
        out.push_str("no rollup trailer (truncated artifact?)\n");
        return out;
    };
    let total_slots = u64_after_last(rollup, "\"slots\":").unwrap_or(0);
    out.push_str(&format!(
        "rollup: {} tick(s), slots={total_slots}, probes={} \
         (nodes retained {}, dropped {})\n",
        u64_after_last(rollup, "\"ticks\":").unwrap_or(0),
        u64_after_last(rollup, "\"probes\":").unwrap_or(0),
        u64_after_last(rollup, "\"retained\":").unwrap_or(0),
        u64_after_last(rollup, "\"dropped\":").unwrap_or(0),
    ));
    out.push_str(&format!(
        "  {:<16} {:>10} {:>12} {:>7} {:>12}\n",
        "phase", "entries", "slots", "share", "probes"
    ));
    for phase in tagwatch_obs::PHASES {
        let (entries, slots, probes) = phase_cost(rollup, phase.name()).unwrap_or((0, 0, 0));
        let share = if total_slots == 0 {
            0.0
        } else {
            100.0 * slots as f64 / total_slots as f64
        };
        out.push_str(&format!(
            "  {:<16} {entries:>10} {slots:>12} {share:>6.1}% {probes:>12}\n",
            phase.name(),
        ));
    }
    out
}

/// Compares two artifacts of the same kind and reports the first
/// divergence — the postmortem primitive the byte-stability contract
/// buys: for deterministic artifacts, the first differing line *is*
/// the first event where the runs parted ways.
///
/// Policies are compared in canonical form, so formatting and comment
/// differences do not count as divergence.
///
/// Divergence is a finding, not a failure: the command exits 0 either
/// way and reserves errors for unreadable or mismatched inputs.
///
/// # Errors
///
/// Returns a [`CliError`] if either file cannot be read or recognized,
/// or if the two files are different artifact kinds.
pub fn run_inspect_diff(path_a: &str, path_b: &str) -> Result<String, CliError> {
    let text_a = read_artifact(path_a)?;
    let text_b = read_artifact(path_b)?;
    let unknown = |path: &str| {
        CliError::new(format!(
            "`{path}` is not a recognized artifact (try `inspect {path}`)"
        ))
    };
    let kind_a = detect(&text_a).ok_or_else(|| unknown(path_a))?;
    let kind_b = detect(&text_b).ok_or_else(|| unknown(path_b))?;
    if kind_a != kind_b {
        return Err(CliError::new(format!(
            "artifact kinds differ: `{path_a}` is a {}, `{path_b}` is a {}",
            kind_a.name(),
            kind_b.name(),
        )));
    }
    let (text_a, text_b) = if kind_a == ArtifactKind::Policy {
        let canonical = |path: &str, text: &str| {
            Policy::parse_named(text, path)
                .map(|p| p.to_text())
                .map_err(CliError::from)
        };
        (canonical(path_a, &text_a)?, canonical(path_b, &text_b)?)
    } else {
        (text_a, text_b)
    };
    let lines_a: Vec<&str> = text_a.lines().collect();
    let lines_b: Vec<&str> = text_b.lines().collect();
    let common = lines_a.len().min(lines_b.len());
    let first = (0..common).find(|&i| lines_a[i] != lines_b[i]);
    let kind = kind_a.name();
    let header = format!("{path_a} vs {path_b} ({kind}s)");
    match first {
        Some(i) => {
            let differing = (0..common).filter(|&j| lines_a[j] != lines_b[j]).count()
                + lines_a.len().abs_diff(lines_b.len());
            Ok(format!(
                "{header}: diverge at line {}\n- {}\n+ {}\n\
                 {differing} differing line(s) in total \
                 ({} vs {} lines)\n",
                i + 1,
                lines_a[i],
                lines_b[i],
                lines_a.len(),
                lines_b.len(),
            ))
        }
        None if lines_a.len() != lines_b.len() => {
            let (longer_path, longer) = if lines_a.len() > lines_b.len() {
                (path_a, &lines_a)
            } else {
                (path_b, &lines_b)
            };
            Ok(format!(
                "{header}: equal through line {common}, then `{longer_path}` \
                 has {} extra line(s)\n+ {}\n",
                longer.len() - common,
                longer[common],
            ))
        }
        None => Ok(format!("{header}: identical ({common} line(s))\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagwatch_obs::{Obs, ObsEvent, ProtoKind, VerdictKind};

    fn sample_obs() -> Obs {
        let obs = Obs::new();
        obs.inc(obs.m.rounds_total);
        obs.inc(obs.m.rounds_utrp);
        obs.set_gauge(obs.m.last_frame_size, 64);
        obs.observe(obs.m.frame_size, 64.0);
        obs.emit(ObsEvent::RoundCompleted {
            proto: ProtoKind::Utrp,
            frame: 64,
            occupied: 12,
            reseeds: 11,
            elapsed_us: 900,
        });
        obs.emit(ObsEvent::Verified {
            proto: ProtoKind::Utrp,
            verdict: VerdictKind::Intact,
            mismatched: 0,
            late: false,
        });
        obs
    }

    #[test]
    fn inspects_a_metrics_snapshot() {
        let dir = std::env::temp_dir().join("tagwatch-inspect-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        std::fs::write(&path, sample_obs().snapshot_json()).unwrap();
        let out = run_inspect(&path.to_string_lossy()).unwrap();
        assert!(out.contains("metrics snapshot"), "{out}");
        assert!(out.contains("rounds_total"), "{out}");
        assert!(out.contains("more at zero"), "{out}");
        assert!(out.contains("last_frame_size"), "{out}");
        assert!(out.contains("frame_size"), "{out}");
        assert!(out.contains("digest: \"fnv64:"), "{out}");
        assert!(
            !out.contains("rounds_trp"),
            "zero counters are elided: {out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspects_an_event_trace() {
        let dir = std::env::temp_dir().join("tagwatch-inspect-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, sample_obs().flight_jsonl()).unwrap();
        let out = run_inspect(&path.to_string_lossy()).unwrap();
        assert!(out.contains("event trace, 2 event(s)"), "{out}");
        assert!(out.contains("round_completed"), "{out}");
        assert!(out.contains("verified"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspects_a_policy_document() {
        let dir = std::env::temp_dir().join("tagwatch-inspect-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("site.twp");
        std::fs::write(&path, Policy::default().to_text()).unwrap();
        let out = run_inspect(&path.to_string_lossy()).unwrap();
        assert!(out.contains("policy document"), "{out}");
        assert!(out.contains("valid"), "{out}");
        assert!(out.contains("effective policy:"), "{out}");
        assert!(out.contains("tagwatch-policy v1"), "{out}");

        // A malformed document is detected as a policy and rejected
        // with the parser's diagnostic, not the generic "neither" error.
        let bad = dir.join("bad.twp");
        std::fs::write(
            &bad,
            "tagwatch-policy v1\n@section thresholds\nalarms_to_escalate nope\n",
        )
        .unwrap();
        let e = run_inspect(&bad.to_string_lossy()).unwrap_err();
        assert!(!e.message.contains("neither"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn span_obs() -> Obs {
        use tagwatch_obs::{Phase, SpanKind};
        let obs = Obs::new();
        obs.span_open(SpanKind::Session);
        obs.span_open(SpanKind::Tick);
        obs.span_open(SpanKind::Round);
        obs.span_phase(Phase::SubFrameSetup, 0, 0);
        obs.span_phase(Phase::MinScan, 64, 500);
        obs.span_phase(Phase::Verify, 64, 0);
        obs.span_close_all();
        obs
    }

    #[test]
    fn inspects_a_span_tree() {
        let dir = std::env::temp_dir().join("tagwatch-inspect-spans-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        std::fs::write(&path, span_obs().spans_jsonl()).unwrap();
        let out = run_inspect(&path.to_string_lossy()).unwrap();
        assert!(out.contains("span tree, 3 node(s)"), "{out}");
        assert!(out.contains("  session #0:"), "{out}");
        assert!(
            out.contains("      round #0: slots=128 probes=500"),
            "{out}"
        );
        assert!(
            out.contains("rollup: 1 tick(s), slots=128, probes=500"),
            "{out}"
        );
        assert!(out.contains("min_scan"), "{out}");
        assert!(out.contains("50.0%"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_reports_the_first_divergent_event() {
        let dir = std::env::temp_dir().join("tagwatch-inspect-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = sample_obs().flight_jsonl();
        // Inject a single divergent event between otherwise identical
        // traces: the verdict on line 2 flips.
        let changed = base.replace("\"verdict\":\"intact\"", "\"verdict\":\"alarm\"");
        assert_ne!(base, changed, "the injection must hit");
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        std::fs::write(&a, &base).unwrap();
        std::fs::write(&b, &changed).unwrap();
        let out = run_inspect_diff(&a.to_string_lossy(), &b.to_string_lossy()).unwrap();
        assert!(out.contains("diverge at line 2"), "{out}");
        assert!(
            out.contains("- ") && out.contains("\"verdict\":\"intact\""),
            "{out}"
        );
        assert!(
            out.contains("+ ") && out.contains("\"verdict\":\"alarm\""),
            "{out}"
        );
        assert!(out.contains("1 differing line(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_reports_identical_and_tail_only_differences() {
        let dir = std::env::temp_dir().join("tagwatch-inspect-diff-tail-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = sample_obs().flight_jsonl();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        std::fs::write(&a, &base).unwrap();
        std::fs::write(&b, &base).unwrap();
        let out = run_inspect_diff(&a.to_string_lossy(), &b.to_string_lossy()).unwrap();
        assert!(out.contains("identical"), "{out}");

        // One run kept going: same prefix, extra tail lines.
        let longer = format!("{base}{}", base.lines().next().unwrap());
        std::fs::write(&b, &longer).unwrap();
        let out = run_inspect_diff(&a.to_string_lossy(), &b.to_string_lossy()).unwrap();
        assert!(out.contains("extra line(s)"), "{out}");
        assert!(out.contains("equal through line 2"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_rejects_mismatched_and_unknown_kinds() {
        let dir = std::env::temp_dir().join("tagwatch-inspect-diff-kind-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.json");
        let garbage = dir.join("garbage.txt");
        std::fs::write(&trace, sample_obs().flight_jsonl()).unwrap();
        std::fs::write(&metrics, sample_obs().snapshot_json()).unwrap();
        std::fs::write(&garbage, "hello\n").unwrap();
        let e = run_inspect_diff(&trace.to_string_lossy(), &metrics.to_string_lossy()).unwrap_err();
        assert!(e.message.contains("kinds differ"), "{e}");
        let e = run_inspect_diff(&trace.to_string_lossy(), &garbage.to_string_lossy()).unwrap_err();
        assert!(e.message.contains("not a recognized artifact"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_compares_policies_in_canonical_form() {
        let dir = std::env::temp_dir().join("tagwatch-inspect-diff-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.twp");
        let b = dir.join("b.twp");
        let canonical = Policy::default().to_text();
        std::fs::write(&a, &canonical).unwrap();
        // Same effective policy, different surface form.
        std::fs::write(&b, format!("# a comment\n{canonical}")).unwrap();
        let out = run_inspect_diff(&a.to_string_lossy(), &b.to_string_lossy()).unwrap();
        assert!(out.contains("identical"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_missing_and_unrecognized_files() {
        let e = run_inspect("/nonexistent/nothing.json").unwrap_err();
        assert!(e.message.contains("cannot read"));

        let dir = std::env::temp_dir().join("tagwatch-inspect-bad-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.txt");
        std::fs::write(&path, "hello world\n").unwrap();
        let e = run_inspect(&path.to_string_lossy()).unwrap_err();
        assert!(e.message.contains("neither"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
