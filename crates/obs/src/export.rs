//! Deterministic export primitives: FNV-1a digests and hand-rolled
//! JSON encoding.
//!
//! The workspace has no serde; every exported artifact (soak reports,
//! perf baselines, metrics snapshots, flight-recorder dumps) is
//! written by hand with a fixed field order so that two runs with the
//! same seed produce *byte-identical* files. The FNV-1a digest over
//! those bytes is the regression fingerprint CI compares. These
//! helpers centralize the discipline `analytics::soak` pioneered so
//! every exporter shares one implementation.

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a sequence of lines, hashing each line's bytes plus a
/// terminating `\n` — exactly the digest `analytics::soak` has always
/// used for its per-tick event log, so existing fingerprints are
/// unchanged.
#[must_use]
pub fn fnv1a_lines<I, S>(lines: I) -> u64
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut hash = FNV_OFFSET_BASIS;
    for line in lines {
        for byte in line.as_ref().bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number that round-trips, or `null` for
/// non-finite values. `{:?}` keeps a decimal point / exponent (plain
/// `{}` prints `1` for 1.0) and is Rust's shortest round-trip
/// rendering, identical on every platform.
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The metric-name prefix every exposed series carries, namespacing
/// the registry for multi-exporter scrape configs.
pub const PROM_PREFIX: &str = "tagwatch_";

/// Escapes a HELP string per the Prometheus text format: backslash
/// and newline are the only specials on a HELP line.
fn prom_escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders the whole registry in the Prometheus text exposition
/// format (version 0.0.4): counters and gauges as single samples,
/// histograms as cumulative `_bucket{le="..."}` series plus `_sum`
/// and `_count` — the exact body the `tagwatchd` status endpoint will
/// serve from `/metrics`.
///
/// The output is **byte-deterministic**: metrics render in
/// registration order, the only label is `le` (edges ascend, `+Inf`
/// last), and floats go through [`json_f64`]'s shortest-round-trip
/// rendering — so two runs with the same seed produce identical
/// bodies at any thread count, and CI pins the instrumented soak's
/// body as a golden artifact.
#[must_use]
pub fn to_prometheus_text(obs: &crate::metrics::Obs) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, help, value) in obs.counters_iter() {
        let _ = writeln!(out, "# HELP {PROM_PREFIX}{name} {}", prom_escape_help(help));
        let _ = writeln!(out, "# TYPE {PROM_PREFIX}{name} counter");
        let _ = writeln!(out, "{PROM_PREFIX}{name} {value}");
    }
    for (name, help, value) in obs.gauges_iter() {
        let _ = writeln!(out, "# HELP {PROM_PREFIX}{name} {}", prom_escape_help(help));
        let _ = writeln!(out, "# TYPE {PROM_PREFIX}{name} gauge");
        let _ = writeln!(out, "{PROM_PREFIX}{name} {value}");
    }
    for (name, help, h) in obs.histograms_iter() {
        let _ = writeln!(out, "# HELP {PROM_PREFIX}{name} {}", prom_escape_help(help));
        let _ = writeln!(out, "# TYPE {PROM_PREFIX}{name} histogram");
        // Buckets are cumulative from below: everything under the
        // domain (the underflow counter) is below every edge.
        let mut cumulative = h.underflow();
        for (i, &c) in h.bins().iter().enumerate() {
            cumulative += c;
            let (_, edge) = h.bin_range(i);
            let _ = writeln!(
                out,
                "{PROM_PREFIX}{name}_bucket{{le=\"{}\"}} {cumulative}",
                json_f64(edge)
            );
        }
        let _ = writeln!(
            out,
            "{PROM_PREFIX}{name}_bucket{{le=\"+Inf\"}} {}",
            h.count()
        );
        let _ = writeln!(out, "{PROM_PREFIX}{name}_sum {}", json_f64(h.sum()));
        let _ = writeln!(out, "{PROM_PREFIX}{name}_count {}", h.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Obs;

    #[test]
    fn line_digest_matches_manual_fold() {
        // Hash of "ab\n" computed step by step.
        let mut expect = FNV_OFFSET_BASIS;
        for b in [b'a', b'b', b'\n'] {
            expect ^= u64::from(b);
            expect = expect.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(fnv1a_lines(["ab"]), expect);
    }

    #[test]
    fn line_digest_separates_lines() {
        // "ab" + "c" must differ from "a" + "bc": the newline byte is
        // part of the fold.
        assert_ne!(fnv1a_lines(["ab", "c"]), fnv1a_lines(["a", "bc"]));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn f64_round_trips_and_rejects_nonfinite() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn prometheus_body_is_byte_deterministic() {
        let build = || {
            let obs = Obs::new();
            obs.inc(obs.m.rounds_total);
            obs.add(obs.m.slots_total, 128);
            obs.set_gauge(obs.m.last_frame_size, 64);
            obs.observe(obs.m.frame_size, 64.0);
            obs.observe(obs.m.frame_size, 4500.0);
            to_prometheus_text(&obs)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn prometheus_counters_and_gauges_render_with_metadata() {
        let obs = Obs::new();
        obs.add(obs.m.rounds_total, 7);
        obs.set_gauge(obs.m.quarantine_occupancy, 3);
        let body = to_prometheus_text(&obs);
        assert!(body.contains("# HELP tagwatch_rounds_total Rounds executed, either protocol.\n"));
        assert!(body.contains("# TYPE tagwatch_rounds_total counter\n"));
        assert!(body.contains("\ntagwatch_rounds_total 7\n"));
        assert!(body.contains("# TYPE tagwatch_quarantine_occupancy gauge\n"));
        assert!(body.contains("\ntagwatch_quarantine_occupancy 3\n"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let obs = Obs::new();
        // hamming_distance spans [0, 64) with 16 bins of width 4.
        // Underflow (-1.0) must fold into every bucket from the first
        // edge up; overflow (100.0) appears only in +Inf.
        for v in [-1.0, 1.0, 5.0, 6.0, 100.0] {
            obs.observe(obs.m.hamming_distance, v);
        }
        let body = to_prometheus_text(&obs);
        assert!(body.contains("# TYPE tagwatch_hamming_distance histogram\n"));
        assert!(body.contains("tagwatch_hamming_distance_bucket{le=\"4.0\"} 2\n"));
        assert!(body.contains("tagwatch_hamming_distance_bucket{le=\"8.0\"} 4\n"));
        assert!(body.contains("tagwatch_hamming_distance_bucket{le=\"64.0\"} 4\n"));
        assert!(body.contains("tagwatch_hamming_distance_bucket{le=\"+Inf\"} 5\n"));
        assert!(body.contains("tagwatch_hamming_distance_sum 111.0\n"));
        assert!(body.contains("tagwatch_hamming_distance_count 5\n"));
    }

    #[test]
    fn prometheus_bucket_counts_never_decrease() {
        let obs = Obs::new();
        for v in [10.0, 20.0, 750.0, 2000.0, 9999.0] {
            obs.observe(obs.m.frame_size, v);
        }
        let body = to_prometheus_text(&obs);
        let mut last = 0u64;
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("tagwatch_frame_size_bucket{") {
                let count: u64 = rest
                    .rsplit(' ')
                    .next()
                    .and_then(|c| c.parse().ok())
                    .expect("bucket line ends with a count");
                assert!(count >= last, "cumulative counts must be monotone: {line}");
                last = count;
            }
        }
        assert_eq!(last, 5, "+Inf bucket covers every observation");
    }

    #[test]
    fn prometheus_help_escapes_specials() {
        assert_eq!(prom_escape_help("a\\b\nc"), "a\\\\b\\nc");
    }
}
