//! `tagwatch-obs`: zero-overhead telemetry for the tagwatch stack.
//!
//! The paper's protocols are judged on probabilistic guarantees, but a
//! production monitor is judged on what it can tell you *when
//! something goes wrong*. This crate is the workspace's telemetry
//! layer, in three pieces:
//!
//! - **[`Obs`] + [`StandardMetrics`]** — a metrics registry with
//!   pre-resolved handles: counters, gauges and fixed-bucket
//!   histograms, recorded through plain `u64` adds with no allocation
//!   and no locking. [`Obs::disabled`] reduces every record call to
//!   one untaken branch.
//! - **[`FlightRecorder`] + [`ObsEvent`]** — a bounded, drop-oldest
//!   ring of structured events, captured into a [`FlightDump`]
//!   postmortem on failure triggers (soak invariant violations,
//!   desynced verdicts, quarantine transitions).
//! - **[`SpanRecorder`]** — deterministic span tracing: a session →
//!   tick → round tree whose spans are timed by the *cost clock*
//!   (slots elapsed, probes issued, ticks) instead of wall time, with
//!   per-phase attribution (sub-frame setup, min-scan, verify,
//!   re-seed). Wall-clock decoration is opt-in via the [`Clock`]
//!   trait and lives only in the CLI/bench I/O shell.
//! - **Deterministic export** — [`Obs::snapshot_json`],
//!   [`FlightRecorder::to_jsonl`] and [`to_prometheus_text`] render
//!   byte-stable artifacts with embedded FNV-1a digests
//!   ([`fnv1a_lines`]), so two runs with the same seed diff clean and
//!   CI can pin a golden fingerprint.
//!
//! The crate is std-only and sits below every other workspace crate;
//! any layer can record into it without dependency cycles.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod histogram;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use event::{ObsEvent, ProtoKind, VerdictKind};
pub use export::{
    fnv1a_bytes, fnv1a_lines, json_escape, json_f64, to_prometheus_text, FNV_OFFSET_BASIS,
    FNV_PRIME, PROM_PREFIX,
};
pub use histogram::{percentile, Histogram};
pub use metrics::{CounterId, FlightDump, GaugeId, HistogramId, Obs, StandardMetrics};
pub use recorder::{FlightRecorder, DEFAULT_RING_CAPACITY};
pub use span::{
    Clock, Phase, PhaseCost, SpanKind, SpanRecorder, SpanRollup, DEFAULT_SPAN_CAPACITY, PHASES,
};
