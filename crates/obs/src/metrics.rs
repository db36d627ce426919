//! The metrics registry and the [`Obs`] handle threaded through the
//! execution stack.
//!
//! Design goals, in priority order:
//!
//! 1. **Zero-alloc hot path.** Recording is a pre-resolved index into
//!    a flat `Vec<Cell<u64>>` plus a plain add — no string lookup, no
//!    locking, no allocation. Names are resolved once at registration
//!    into copyable [`CounterId`]/[`GaugeId`]/[`HistogramId`] handles.
//! 2. **Disabled mode that compiles to near-nothing.** Every record
//!    method starts with a single predictable branch on `enabled`;
//!    [`Obs::disabled`] makes the whole telemetry layer one untaken
//!    branch per call site. `bench/src/bin/perf.rs` measures and
//!    gates this cost.
//! 3. **Deterministic export.** [`Obs::snapshot_json`] walks metrics
//!    in registration order and renders them with the workspace's
//!    byte-stable JSON discipline, with an FNV-1a digest embedded so
//!    CI can compare snapshots across runs by fingerprint.
//!
//! Interior mutability (`Cell`/`RefCell`) lets recording take `&self`,
//! so one `Obs` can be threaded through executor, protocol, session
//! and driver layers without fighting the borrow checker. `Obs` is
//! deliberately not `Sync`: it belongs to one driver thread; parallel
//! scan workers report through per-shard aggregation instead.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

use crate::event::ObsEvent;
use crate::export::{fnv1a_lines, json_escape, json_f64};
use crate::histogram::Histogram;
use crate::recorder::FlightRecorder;
use crate::span::{Clock, Phase, SpanKind, SpanRecorder, SpanRollup};

/// Handle to a registered counter (monotonic `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (last-write-wins `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A captured flight-recorder dump: the postmortem artifact written
/// when a failure trigger fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// What tripped the dump (e.g. `"invariant_violation"`,
    /// `"quarantine"`, `"desync"`).
    pub reason: String,
    /// The retained event window as JSONL (see
    /// [`FlightRecorder::to_jsonl`]).
    pub jsonl: String,
}

/// Pre-resolved handles for the standard tagwatch metric catalog (see
/// `docs/OBSERVABILITY.md` for names, units and semantics). Resolved
/// once in [`Obs::new`]; copying the struct copies plain indices.
#[derive(Debug, Clone, Copy)]
pub struct StandardMetrics {
    /// Rounds executed, either protocol.
    pub rounds_total: CounterId,
    /// TRP rounds executed.
    pub rounds_trp: CounterId,
    /// UTRP rounds executed.
    pub rounds_utrp: CounterId,
    /// Frame slots issued across all rounds.
    pub slots_total: CounterId,
    /// Slots that carried a reply.
    pub slots_occupied: CounterId,
    /// UTRP re-seeds (announcements beyond the first).
    pub reseeds_total: CounterId,
    /// Per-tag slot probes evaluated by the scan engine.
    pub probes_total: CounterId,
    /// Probes skipped by the candidate pre-filter.
    pub probes_filtered: CounterId,
    /// Verifications that returned `Intact`.
    pub verify_intact: CounterId,
    /// Verifications that returned `NotIntact`.
    pub verify_alarm: CounterId,
    /// Verifications that returned `Desynced`.
    pub verify_desynced: CounterId,
    /// Resync ladder rungs attempted.
    pub resync_attempts: CounterId,
    /// Resync rungs that restored sync.
    pub resync_successes: CounterId,
    /// Session escalations to full identification.
    pub escalations: CounterId,
    /// Quarantine transitions (batches, not tags).
    pub quarantine_events: CounterId,
    /// Quarantine audits performed.
    pub audits_total: CounterId,
    /// Soak ticks completed.
    pub soak_ticks: CounterId,
    /// Soak invariant violations observed.
    pub soak_violations: CounterId,
    /// Events dropped by bounded sinks (flight ring, sim traces).
    pub events_dropped: CounterId,

    /// Current quarantine occupancy (tags).
    pub quarantine_occupancy: GaugeId,
    /// Frame size of the most recent round.
    pub last_frame_size: GaugeId,

    /// Distribution of round frame sizes.
    pub frame_size: HistogramId,
    /// Distribution of verify hamming distances (mismatched slots).
    pub hamming_distance: HistogramId,
    /// Distribution of resync ladder depths (attempts per recovery).
    pub resync_depth: HistogramId,
    /// Distribution of quarantine audit latencies in ticks.
    pub audit_latency_ticks: HistogramId,
    /// Distribution of round scanning times in milliseconds.
    pub round_elapsed_ms: HistogramId,
}

#[derive(Debug, Default)]
struct Registry {
    counter_names: Vec<&'static str>,
    counter_help: Vec<&'static str>,
    counters: Vec<Cell<u64>>,
    gauge_names: Vec<&'static str>,
    gauge_help: Vec<&'static str>,
    gauges: Vec<Cell<u64>>,
    histogram_names: Vec<&'static str>,
    histogram_help: Vec<&'static str>,
    histograms: Vec<RefCell<Histogram>>,
}

/// The telemetry handle: metrics registry + flight recorder + dump
/// latch, behind one `enabled` switch.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    span_on: bool,
    reg: Registry,
    recorder: RefCell<FlightRecorder>,
    spans: RefCell<SpanRecorder>,
    dump: RefCell<Option<FlightDump>>,
    /// Pre-resolved handles for the standard catalog.
    pub m: StandardMetrics,
}

impl Obs {
    /// Creates an enabled `Obs` with the standard metric catalog and
    /// the default flight-ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_ring_capacity(crate::recorder::DEFAULT_RING_CAPACITY)
    }

    /// Creates an enabled `Obs` whose flight ring holds at most
    /// `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Self::build(true, true, capacity)
    }

    /// Creates a disabled `Obs`: every record method reduces to one
    /// untaken branch. Handles stay valid, so instrumented code paths
    /// need no `Option` plumbing.
    #[must_use]
    pub fn disabled() -> Self {
        // Capacity 1 keeps the unused ring allocation negligible.
        Self::build(false, false, 1)
    }

    /// Creates an enabled `Obs` with span tracing switched off:
    /// metrics, events and dumps record as usual, but every span call
    /// is one untaken branch and no tree is retained. For callers
    /// that want the registry without per-round span bookkeeping.
    #[must_use]
    pub fn metrics_only() -> Self {
        Self::build(true, false, crate::recorder::DEFAULT_RING_CAPACITY)
    }

    fn build(enabled: bool, spans: bool, ring_capacity: usize) -> Self {
        let mut reg = Registry::default();
        let mut counter = |name, help| {
            reg.counter_names.push(name);
            reg.counter_help.push(help);
            reg.counters.push(Cell::new(0));
            CounterId(reg.counters.len() - 1)
        };
        let rounds_total = counter("rounds_total", "Rounds executed, either protocol.");
        let rounds_trp = counter("rounds_trp", "TRP rounds executed.");
        let rounds_utrp = counter("rounds_utrp", "UTRP rounds executed.");
        let slots_total = counter("slots_total", "Frame slots issued across all rounds.");
        let slots_occupied = counter("slots_occupied", "Slots that carried a reply.");
        let reseeds_total = counter(
            "reseeds_total",
            "UTRP re-seeds (announcements beyond the first).",
        );
        let probes_total = counter(
            "probes_total",
            "Per-tag slot probes evaluated by the scan engine.",
        );
        let probes_filtered = counter(
            "probes_filtered",
            "Probes skipped by the candidate pre-filter.",
        );
        let verify_intact = counter("verify_intact", "Verifications that returned Intact.");
        let verify_alarm = counter("verify_alarm", "Verifications that returned NotIntact.");
        let verify_desynced = counter("verify_desynced", "Verifications that returned Desynced.");
        let resync_attempts = counter("resync_attempts", "Resync ladder rungs attempted.");
        let resync_successes = counter("resync_successes", "Resync rungs that restored sync.");
        let escalations = counter("escalations", "Session escalations to full identification.");
        let quarantine_events = counter(
            "quarantine_events",
            "Quarantine transitions (batches, not tags).",
        );
        let audits_total = counter("audits_total", "Quarantine audits performed.");
        let soak_ticks = counter("soak_ticks", "Soak ticks completed.");
        let soak_violations = counter("soak_violations", "Soak invariant violations observed.");
        let events_dropped = counter(
            "events_dropped",
            "Events dropped by bounded sinks (flight ring, sim traces).",
        );

        let mut gauge = |name, help| {
            reg.gauge_names.push(name);
            reg.gauge_help.push(help);
            reg.gauges.push(Cell::new(0));
            GaugeId(reg.gauges.len() - 1)
        };
        let quarantine_occupancy = gauge(
            "quarantine_occupancy",
            "Current quarantine occupancy (tags).",
        );
        let last_frame_size = gauge("last_frame_size", "Frame size of the most recent round.");

        let mut hist = |name, help, lo: f64, hi: f64, bins: usize| {
            reg.histogram_names.push(name);
            reg.histogram_help.push(help);
            reg.histograms
                .push(RefCell::new(Histogram::new(lo, hi, bins)));
            HistogramId(reg.histograms.len() - 1)
        };
        let frame_size = hist(
            "frame_size",
            "Distribution of round frame sizes.",
            0.0,
            4096.0,
            32,
        );
        let hamming_distance = hist(
            "hamming_distance",
            "Distribution of verify hamming distances (mismatched slots).",
            0.0,
            64.0,
            16,
        );
        let resync_depth = hist(
            "resync_depth",
            "Distribution of resync ladder depths (attempts per recovery).",
            0.0,
            8.0,
            8,
        );
        let audit_latency_ticks = hist(
            "audit_latency_ticks",
            "Distribution of quarantine audit latencies in ticks.",
            0.0,
            64.0,
            16,
        );
        let round_elapsed_ms = hist(
            "round_elapsed_ms",
            "Distribution of round scanning times in milliseconds.",
            0.0,
            1000.0,
            20,
        );

        Obs {
            enabled,
            span_on: enabled && spans,
            reg,
            recorder: RefCell::new(FlightRecorder::with_capacity(ring_capacity)),
            spans: RefCell::new(SpanRecorder::new(enabled && spans)),
            dump: RefCell::new(None),
            m: StandardMetrics {
                rounds_total,
                rounds_trp,
                rounds_utrp,
                slots_total,
                slots_occupied,
                reseeds_total,
                probes_total,
                probes_filtered,
                verify_intact,
                verify_alarm,
                verify_desynced,
                resync_attempts,
                resync_successes,
                escalations,
                quarantine_events,
                audits_total,
                soak_ticks,
                soak_violations,
                events_dropped,
                quarantine_occupancy,
                last_frame_size,
                frame_size,
                hamming_distance,
                resync_depth,
                audit_latency_ticks,
                round_elapsed_ms,
            },
        }
    }

    /// Whether recording is active. Instrumented code may branch on
    /// this once to skip whole blocks of aggregate computation.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `v` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, v: u64) {
        if self.enabled {
            let cell = &self.reg.counters[id.0];
            cell.set(cell.get().wrapping_add(v));
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Reads a counter's current value.
    #[must_use]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.reg.counters[id.0].get()
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&self, id: GaugeId, v: u64) {
        if self.enabled {
            self.reg.gauges[id.0].set(v);
        }
    }

    /// Reads a gauge's current value.
    #[must_use]
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.reg.gauges[id.0].get()
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&self, id: HistogramId, v: f64) {
        if self.enabled {
            self.reg.histograms[id.0].borrow_mut().record(v);
        }
    }

    /// Clones a histogram's current state.
    #[must_use]
    pub fn histogram(&self, id: HistogramId) -> Histogram {
        self.reg.histograms[id.0].borrow().clone()
    }

    /// Emits an event into the flight ring.
    #[inline]
    pub fn emit(&self, event: ObsEvent) {
        if self.enabled {
            self.recorder.borrow_mut().push(event);
        }
    }

    /// Serializes the flight ring's retained window as JSONL.
    #[must_use]
    pub fn flight_jsonl(&self) -> String {
        self.recorder.borrow().to_jsonl()
    }

    /// Whether span tracing is active — instrumented loops may hoist
    /// this single branch out of per-announcement work.
    #[inline]
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        self.span_on
    }

    /// Opens a span of `kind` (see [`SpanRecorder::open`]).
    #[inline]
    pub fn span_open(&self, kind: SpanKind) {
        if self.span_on {
            self.spans.borrow_mut().open(kind);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn span_close(&self) {
        if self.span_on {
            self.spans.borrow_mut().close();
        }
    }

    /// Closes every open span — the driver finish hook.
    pub fn span_close_all(&self) {
        if self.span_on {
            self.spans.borrow_mut().close_all();
        }
    }

    /// Charges `slots`/`probes` of deterministic cost to `phase` on
    /// the innermost open span and the whole-run rollup.
    #[inline]
    pub fn span_phase(&self, phase: Phase, slots: u64, probes: u64) {
        if self.span_on {
            self.spans.borrow_mut().phase(phase, slots, probes);
        }
    }

    /// Injects a wall clock into the span recorder. I/O-shell only:
    /// decorated span artifacts are not byte-stable (see
    /// [`SpanRecorder::set_clock`]).
    pub fn set_span_clock(&self, clock: Rc<dyn Clock>) {
        self.spans.borrow_mut().set_clock(clock);
    }

    /// The exact per-phase cost rollup (all-zero when spans are off).
    #[must_use]
    pub fn span_rollup(&self) -> SpanRollup {
        self.spans.borrow().rollup()
    }

    /// Serializes the span tree as JSONL (see
    /// [`SpanRecorder::to_jsonl`]). Byte-deterministic unless a wall
    /// clock was injected.
    #[must_use]
    pub fn spans_jsonl(&self) -> String {
        self.spans.borrow().to_jsonl()
    }

    /// Captures a flight-recorder dump if none has been captured yet.
    /// The *first* failure wins: later triggers in the same run keep
    /// the postmortem closest to the original fault. No-op when
    /// disabled.
    pub fn capture_dump(&self, reason: &str) {
        if !self.enabled {
            return;
        }
        let mut slot = self.dump.borrow_mut();
        if slot.is_none() {
            *slot = Some(FlightDump {
                reason: reason.to_owned(),
                jsonl: self.recorder.borrow().to_jsonl(),
            });
        }
    }

    /// The captured dump, if any failure trigger fired.
    #[must_use]
    pub fn dump(&self) -> Option<FlightDump> {
        self.dump.borrow().clone()
    }

    /// Walks every counter in registration order as
    /// `(name, help, value)` — the exposition surface
    /// [`crate::export::to_prometheus_text`] renders.
    pub fn counters_iter(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.reg
            .counter_names
            .iter()
            .zip(&self.reg.counter_help)
            .zip(&self.reg.counters)
            .map(|((&name, &help), cell)| (name, help, cell.get()))
    }

    /// Walks every gauge in registration order as `(name, help, value)`.
    pub fn gauges_iter(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.reg
            .gauge_names
            .iter()
            .zip(&self.reg.gauge_help)
            .zip(&self.reg.gauges)
            .map(|((&name, &help), cell)| (name, help, cell.get()))
    }

    /// Walks every histogram in registration order as
    /// `(name, help, state)`. The state is cloned: histograms are tiny
    /// (tens of bins) and the caller gets a consistent snapshot.
    pub fn histograms_iter(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, Histogram)> + '_ {
        self.reg
            .histogram_names
            .iter()
            .zip(&self.reg.histogram_help)
            .zip(&self.reg.histograms)
            .map(|((&name, &help), h)| (name, help, h.borrow().clone()))
    }

    /// Renders every metric, in registration order, as a
    /// deterministic JSON document with an embedded FNV-1a digest of
    /// the body lines. Byte-identical across runs with identical
    /// recordings; the digest is what CI pins in its golden file.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        lines.push("{".into());
        lines.push("  \"schema\": \"tagwatch-obs-metrics-v1\",".into());

        lines.push("  \"counters\": {".into());
        let n = self.reg.counters.len();
        for (i, (name, cell)) in self
            .reg
            .counter_names
            .iter()
            .zip(&self.reg.counters)
            .enumerate()
        {
            let comma = if i + 1 < n { "," } else { "" };
            lines.push(format!(
                "    \"{}\": {}{comma}",
                json_escape(name),
                cell.get()
            ));
        }
        lines.push("  },".into());

        lines.push("  \"gauges\": {".into());
        let n = self.reg.gauges.len();
        for (i, (name, cell)) in self
            .reg
            .gauge_names
            .iter()
            .zip(&self.reg.gauges)
            .enumerate()
        {
            let comma = if i + 1 < n { "," } else { "" };
            lines.push(format!(
                "    \"{}\": {}{comma}",
                json_escape(name),
                cell.get()
            ));
        }
        lines.push("  },".into());

        lines.push("  \"histograms\": {".into());
        let n = self.reg.histograms.len();
        for (i, (name, h)) in self
            .reg
            .histogram_names
            .iter()
            .zip(&self.reg.histograms)
            .enumerate()
        {
            let comma = if i + 1 < n { "," } else { "" };
            let h = h.borrow();
            let (lo, hi) = h.bounds();
            let mut line = format!(
                "    \"{}\": {{\"lo\": {}, \"hi\": {}, \"bins\": [",
                json_escape(name),
                crate::export::json_f64(lo),
                crate::export::json_f64(hi),
            );
            for (j, b) in h.bins().iter().enumerate() {
                if j > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{b}");
            }
            let quantile = |q| {
                h.percentile(q)
                    .map_or_else(|| "null".into(), crate::export::json_f64)
            };
            let _ = write!(
                line,
                "], \"underflow\": {}, \"overflow\": {}, \"count\": {}, \"sum\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}{comma}",
                h.underflow(),
                h.overflow(),
                h.count(),
                json_f64(h.sum()),
                quantile(0.50),
                quantile(0.90),
                quantile(0.99),
            );
            lines.push(line);
        }
        lines.push("  },".into());

        lines.push(format!(
            "  \"flight\": {{\"recorded\": {}, \"retained\": {}, \"dropped\": {}, \"dump\": {}}},",
            self.recorder.borrow().total_recorded(),
            self.recorder.borrow().len(),
            self.recorder.borrow().dropped(),
            match self.dump.borrow().as_ref() {
                Some(d) => format!("\"{}\"", json_escape(&d.reason)),
                None => "null".into(),
            },
        ));

        let digest = fnv1a_lines(&lines);
        let mut out = String::new();
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        let _ = writeln!(out, "  \"digest\": \"fnv64:{digest:016x}\"");
        out.push_str("}\n");
        out
    }

    /// The FNV-1a digest embedded by [`Obs::snapshot_json`], as a
    /// value — for asserting against a golden fingerprint without
    /// string surgery.
    #[must_use]
    pub fn snapshot_digest(&self) -> u64 {
        let json = self.snapshot_json();
        // Re-fold the body lines (everything before the digest line).
        let body: Vec<&str> = json
            .lines()
            .take_while(|l| !l.trim_start().starts_with("\"digest\""))
            .collect();
        fnv1a_lines(body)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ObsEvent, VerdictKind};

    #[test]
    fn counters_gauges_histograms_record() {
        let obs = Obs::new();
        obs.inc(obs.m.rounds_total);
        obs.add(obs.m.slots_total, 64);
        obs.set_gauge(obs.m.quarantine_occupancy, 3);
        obs.observe(obs.m.frame_size, 64.0);
        assert_eq!(obs.counter(obs.m.rounds_total), 1);
        assert_eq!(obs.counter(obs.m.slots_total), 64);
        assert_eq!(obs.gauge(obs.m.quarantine_occupancy), 3);
        assert_eq!(obs.histogram(obs.m.frame_size).count(), 1);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        obs.inc(obs.m.rounds_total);
        obs.set_gauge(obs.m.quarantine_occupancy, 9);
        obs.observe(obs.m.frame_size, 64.0);
        obs.emit(ObsEvent::TickCompleted {
            tick: 0,
            verdict: VerdictKind::Intact,
        });
        obs.capture_dump("whatever");
        assert!(!obs.enabled());
        assert_eq!(obs.counter(obs.m.rounds_total), 0);
        assert_eq!(obs.gauge(obs.m.quarantine_occupancy), 0);
        assert_eq!(obs.histogram(obs.m.frame_size).count(), 0);
        assert_eq!(obs.flight_jsonl(), "");
        assert!(obs.dump().is_none());
    }

    #[test]
    fn first_dump_wins() {
        let obs = Obs::new();
        obs.emit(ObsEvent::TickCompleted {
            tick: 1,
            verdict: VerdictKind::Intact,
        });
        obs.capture_dump("first");
        obs.emit(ObsEvent::TickCompleted {
            tick: 2,
            verdict: VerdictKind::Intact,
        });
        obs.capture_dump("second");
        let dump = obs.dump().unwrap();
        assert_eq!(dump.reason, "first");
        assert_eq!(dump.jsonl.lines().count(), 1, "pre-second-tick window");
    }

    #[test]
    fn snapshot_is_deterministic_and_digest_matches() {
        let build = || {
            let obs = Obs::new();
            obs.inc(obs.m.rounds_total);
            obs.observe(obs.m.hamming_distance, 3.0);
            obs.snapshot_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);

        let obs = Obs::new();
        obs.inc(obs.m.rounds_total);
        obs.observe(obs.m.hamming_distance, 3.0);
        let embedded = format!("fnv64:{:016x}", obs.snapshot_digest());
        assert!(a.contains(&embedded), "digest line must match the value");
    }

    #[test]
    fn snapshot_digest_changes_with_data() {
        let a = Obs::new();
        let b = Obs::new();
        b.inc(b.m.rounds_total);
        assert_ne!(a.snapshot_digest(), b.snapshot_digest());
    }
}
