//! Deterministic span tracing: a session → tick → round → phase tree
//! timed by a *cost clock* instead of a wall clock.
//!
//! Profilers answer "where did the time go?"; this module answers the
//! question that actually has a deterministic answer in tagwatch:
//! **where did the slots and probes go?** Every span accumulates three
//! cost axes — frame slots elapsed, per-tag probes issued, monitoring
//! ticks — all derived from the same seeded integer math as the rest
//! of the stack, so the span tree for a given seed is byte-identical
//! across runs, machines, and thread counts. That is what lets CI
//! pin span artifacts next to the metrics goldens, and what gives the
//! re-seed pipelining work in docs/PERFORMANCE.md a per-phase Amdahl
//! baseline that survives re-measurement.
//!
//! Wall-clock duration is an optional *decoration*: the library crates
//! never read a clock (the d1 lint rule forbids `std::time` here), but
//! an I/O shell (CLI, bench harness) may inject a [`Clock`] via
//! [`SpanRecorder::set_clock`], and every span then additionally
//! records `wall_ns`. Artifacts produced with a clock are explicitly
//! not byte-stable — that is the caller's trade to make.
//!
//! The tree is bounded: at most `capacity` nodes are retained
//! (drop-newest, counted in `dropped`), but *cost totals and the
//! per-phase rollup are exact regardless of retention* — a dropped
//! node still folds its cost into its parent on close.

use std::fmt;
use std::rc::Rc;

/// A wall-clock source injected at the I/O shell. Implementations live
/// in binary crates (`tagwatch-cli`, `tagwatch-bench`); the library
/// layers only ever see the trait, which keeps `std::time` out of
/// every digested code path.
pub trait Clock {
    /// Monotonic nanoseconds since an arbitrary epoch.
    fn now_ns(&self) -> u64;
}

/// What a span covers. Phases are not nodes: each round (or tick, for
/// phase charges outside any round) aggregates its phase costs inline,
/// which keeps the tree at one node per session/tick/round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One monitoring session (a whole soak run).
    Session,
    /// One monitoring tick.
    Tick,
    /// One protocol round (TRP or UTRP, including its verify).
    Round,
}

impl SpanKind {
    /// The kind's wire name in span JSONL.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Tick => "tick",
            SpanKind::Round => "round",
        }
    }
}

/// The named phases of a monitoring round. These are the units the
/// protocol-zoo comparison table will report per protocol, and the
/// terms of the Amdahl decomposition in docs/PERFORMANCE.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Per-announcement bookkeeping: nonce consumption, sub-frame
    /// reducer construction, uniform-key collapse. Charged one entry
    /// per announcement, zero slots/probes (it is O(1) work).
    SubFrameSetup = 0,
    /// The first announcement's minimum-slot scan over the full
    /// active set.
    MinScan = 1,
    /// The server-side mirror verification (bitstring comparison and
    /// mirror round replay). Charged in slots: the mirror re-walks
    /// the frame.
    Verify = 2,
    /// Announcements beyond the first: the serial re-seed tail that
    /// shrinks the sub-frame one reply at a time.
    ReSeed = 3,
}

/// Every phase, in wire order.
pub const PHASES: [Phase; 4] = [
    Phase::SubFrameSetup,
    Phase::MinScan,
    Phase::Verify,
    Phase::ReSeed,
];

impl Phase {
    /// The phase's wire name in span JSONL and rollups.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::SubFrameSetup => "sub_frame_setup",
            Phase::MinScan => "min_scan",
            Phase::Verify => "verify",
            Phase::ReSeed => "re_seed",
        }
    }
}

/// Accumulated deterministic cost of one phase: how many times it was
/// entered and what it consumed on the slot and probe axes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Times the phase was entered.
    pub entries: u64,
    /// Frame slots elapsed inside the phase.
    pub slots: u64,
    /// Per-tag probes issued inside the phase.
    pub probes: u64,
}

impl PhaseCost {
    fn charge(&mut self, slots: u64, probes: u64) {
        self.entries = self.entries.saturating_add(1);
        self.slots = self.slots.saturating_add(slots);
        self.probes = self.probes.saturating_add(probes);
    }

    fn absorb(&mut self, other: &PhaseCost) {
        self.entries = self.entries.saturating_add(other.entries);
        self.slots = self.slots.saturating_add(other.slots);
        self.probes = self.probes.saturating_add(other.probes);
    }
}

/// The whole-run per-phase totals, exact regardless of node retention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRollup {
    /// Per-phase totals, indexed in [`PHASES`] order.
    pub phases: [PhaseCost; 4],
    /// Ticks charged to tick spans.
    pub ticks: u64,
}

impl SpanRollup {
    /// Total slots attributed to any named phase.
    #[must_use]
    pub fn slots(&self) -> u64 {
        self.phases.iter().map(|p| p.slots).sum()
    }

    /// Total probes attributed to any named phase.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.phases.iter().map(|p| p.probes).sum()
    }

    /// The cost of one phase.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> PhaseCost {
        self.phases[phase as usize]
    }
}

/// One retained span node. Cost fields are complete once the span
/// closes; an open node exported mid-run renders with `"open": true`
/// and whatever has been folded in so far (nothing, for leaf charges,
/// which stamp at close).
#[derive(Debug, Clone)]
struct SpanNode {
    id: u64,
    parent: Option<u64>,
    kind: SpanKind,
    ordinal: u64,
    open: bool,
    ticks: u64,
    slots: u64,
    probes: u64,
    phases: [PhaseCost; 4],
    wall_ns: Option<u64>,
}

/// One open span's in-flight accumulation, kept on the stack until
/// close. `node: None` marks a span whose node was dropped by the
/// retention cap — its cost still folds into the parent.
#[derive(Debug)]
struct OpenSpan {
    node: Option<usize>,
    ticks: u64,
    slots: u64,
    probes: u64,
    phases: [PhaseCost; 4],
    /// Children opened so far, by kind — the source of child ordinals.
    children: [u64; 3],
    wall_open: u64,
}

const fn kind_index(kind: SpanKind) -> usize {
    match kind {
        SpanKind::Session => 0,
        SpanKind::Tick => 1,
        SpanKind::Round => 2,
    }
}

/// Default retained-node cap: enough for a 1000-tick soak's tick and
/// round spans with headroom, small enough to bound a runaway driver.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// Nodes per chunk of the node store. A chunk is allocated at its full
/// size when the one before it fills and never grows, so recording a
/// node never moves the nodes before it (a growing `Vec` copies them
/// all, inside whichever tick crosses a power of two), and the store
/// holds at most one partly used chunk.
const NODE_CHUNK: usize = 256;

/// The span tree recorder. Owned by `Obs` behind a `RefCell`; see the
/// module docs for the determinism contract.
pub struct SpanRecorder {
    enabled: bool,
    capacity: usize,
    /// Retained nodes in open order, in chunks of [`NODE_CHUNK`].
    nodes: Vec<Vec<SpanNode>>,
    /// Retained node count, which is also the next node's id.
    len: usize,
    stack: Vec<OpenSpan>,
    /// Top-level (parentless) spans opened so far, by kind.
    top_children: [u64; 3],
    dropped: u64,
    rollup: SpanRollup,
    clock: Option<Rc<dyn Clock>>,
}

impl fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("enabled", &self.enabled)
            .field("nodes", &self.len)
            .field("open", &self.stack.len())
            .field("dropped", &self.dropped)
            .field("clock", &self.clock.is_some())
            .finish()
    }
}

impl SpanRecorder {
    /// Creates a recorder with the default retention cap.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self::with_capacity(enabled, DEFAULT_SPAN_CAPACITY)
    }

    /// Creates a recorder retaining at most `capacity` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_capacity(enabled: bool, capacity: usize) -> Self {
        assert!(capacity > 0, "span recorder needs room for one node");
        SpanRecorder {
            enabled,
            capacity,
            nodes: Vec::new(),
            len: 0,
            stack: Vec::new(),
            top_children: [0; 3],
            dropped: 0,
            rollup: SpanRollup::default(),
            clock: None,
        }
    }

    /// Whether span recording is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Injects a wall clock. Spans opened afterwards carry `wall_ns`;
    /// artifacts stop being byte-stable, which is the caller's choice
    /// to make at the I/O shell.
    pub fn set_clock(&mut self, clock: Rc<dyn Clock>) {
        self.clock = Some(clock);
    }

    fn now(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.now_ns())
    }

    /// Opens a span. Ordinals are per-parent open order (the first
    /// round of a tick is ordinal 0), which makes node identity stable
    /// across runs without any global counter leaking between trees.
    pub fn open(&mut self, kind: SpanKind) {
        if !self.enabled {
            return;
        }
        let parent = self
            .stack
            .iter()
            .rev()
            .find_map(|o| o.node)
            .map(|i| self.nodes[i / NODE_CHUNK][i % NODE_CHUNK].id);
        // Per-parent open order: the first round of a tick is round 0
        // whether or not earlier siblings were retained.
        let slot = match self.stack.last_mut() {
            Some(top) => &mut top.children[kind_index(kind)],
            None => &mut self.top_children[kind_index(kind)],
        };
        let ordinal = *slot;
        *slot += 1;
        let ticks = u64::from(kind == SpanKind::Tick);
        if ticks > 0 {
            self.rollup.ticks = self.rollup.ticks.saturating_add(1);
        }
        let node = if self.len < self.capacity {
            let id = self.len as u64;
            if self.len.is_multiple_of(NODE_CHUNK) {
                let room = NODE_CHUNK.min(self.capacity - self.len);
                self.nodes.push(Vec::with_capacity(room));
            }
            self.nodes[self.len / NODE_CHUNK].push(SpanNode {
                id,
                parent,
                kind,
                ordinal,
                open: true,
                ticks: 0,
                slots: 0,
                probes: 0,
                phases: [PhaseCost::default(); 4],
                wall_ns: None,
            });
            self.len += 1;
            Some(self.len - 1)
        } else {
            self.dropped += 1;
            None
        };
        let wall_open = self.now();
        self.stack.push(OpenSpan {
            node,
            ticks,
            slots: 0,
            probes: 0,
            phases: [PhaseCost::default(); 4],
            children: [0; 3],
            wall_open,
        });
    }

    /// Charges a phase on the innermost open span (and the global
    /// rollup). With no span open the rollup still accumulates, so
    /// bare round executions (tests, single-round tools) keep exact
    /// attribution without a tree.
    pub fn phase(&mut self, phase: Phase, slots: u64, probes: u64) {
        if !self.enabled {
            return;
        }
        self.rollup.phases[phase as usize].charge(slots, probes);
        if let Some(top) = self.stack.last_mut() {
            top.phases[phase as usize].charge(slots, probes);
            top.slots = top.slots.saturating_add(slots);
            top.probes = top.probes.saturating_add(probes);
        }
    }

    /// Closes the innermost open span, folding its cost (own phase
    /// charges plus everything its children folded in) into its
    /// parent. A close with no open span is a no-op: drivers may close
    /// defensively on error paths.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let Some(top) = self.stack.pop() else {
            return;
        };
        let wall = self
            .clock
            .as_ref()
            .map(|c| c.now_ns().saturating_sub(top.wall_open));
        if let Some(i) = top.node {
            let node = &mut self.nodes[i / NODE_CHUNK][i % NODE_CHUNK];
            node.open = false;
            node.ticks = top.ticks;
            node.slots = top.slots;
            node.probes = top.probes;
            node.phases = top.phases;
            node.wall_ns = wall;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.ticks = parent.ticks.saturating_add(top.ticks);
            parent.slots = parent.slots.saturating_add(top.slots);
            parent.probes = parent.probes.saturating_add(top.probes);
            for (p, o) in parent.phases.iter_mut().zip(&top.phases) {
                p.absorb(o);
            }
        }
    }

    /// Closes every open span, innermost first — the finish hook for
    /// drivers that own the session span.
    pub fn close_all(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
    }

    /// Nodes dropped by the retention cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The exact whole-run rollup.
    #[must_use]
    pub fn rollup(&self) -> SpanRollup {
        self.rollup
    }

    /// Serializes the span tree as JSONL: one `{"span": ...}` object
    /// per node in open order, then one `{"rollup": ...}` trailer with
    /// the exact totals. Without an injected clock the output is
    /// byte-identical across runs and thread counts; `wall_ns` renders
    /// as `null`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for n in self.nodes.iter().flatten() {
            let _ = write!(
                out,
                "{{\"span\":{},\"parent\":{},\"kind\":\"{}\",\"ordinal\":{},\"open\":{},\
                 \"ticks\":{},\"slots\":{},\"probes\":{}",
                n.id,
                n.parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                n.kind.name(),
                n.ordinal,
                n.open,
                n.ticks,
                n.slots,
                n.probes,
            );
            if n.phases.iter().any(|p| p.entries > 0) {
                out.push_str(",\"phases\":{");
                let mut first = true;
                for phase in PHASES {
                    let c = n.phases[phase as usize];
                    if c.entries == 0 {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "\"{}\":{{\"entries\":{},\"slots\":{},\"probes\":{}}}",
                        phase.name(),
                        c.entries,
                        c.slots,
                        c.probes,
                    );
                }
                out.push('}');
            }
            match n.wall_ns {
                Some(ns) => {
                    let _ = write!(out, ",\"wall_ns\":{ns}");
                }
                None => out.push_str(",\"wall_ns\":null"),
            }
            out.push_str("}\n");
        }
        let _ = write!(out, "{{\"rollup\":{{");
        for phase in PHASES {
            let c = self.rollup.phases[phase as usize];
            let _ = write!(
                out,
                "\"{}\":{{\"entries\":{},\"slots\":{},\"probes\":{}}},",
                phase.name(),
                c.entries,
                c.slots,
                c.probes,
            );
        }
        let _ = writeln!(
            out,
            "\"ticks\":{},\"slots\":{},\"probes\":{},\"retained\":{},\"dropped\":{}}}}}",
            self.rollup.ticks,
            self.rollup.slots(),
            self.rollup.probes(),
            self.len,
            self.dropped,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn spend_round(rec: &mut SpanRecorder, slots: (u64, u64), probes: (u64, u64)) {
        rec.open(SpanKind::Round);
        rec.phase(Phase::SubFrameSetup, 0, 0);
        rec.phase(Phase::MinScan, slots.0, probes.0);
        rec.phase(Phase::SubFrameSetup, 0, 0);
        rec.phase(Phase::ReSeed, slots.1, probes.1);
        rec.close();
    }

    #[test]
    fn tree_aggregates_child_costs_upward() {
        let mut rec = SpanRecorder::new(true);
        rec.open(SpanKind::Session);
        rec.open(SpanKind::Tick);
        spend_round(&mut rec, (10, 6), (100, 40));
        spend_round(&mut rec, (8, 0), (50, 0));
        rec.close(); // tick
        rec.close(); // session
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5, "session + tick + 2 rounds + rollup");
        assert!(lines[0].contains("\"kind\":\"session\""));
        assert!(lines[0].contains("\"slots\":24"));
        assert!(lines[0].contains("\"probes\":190"));
        assert!(lines[0].contains("\"ticks\":1"));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[2].contains("\"ordinal\":0"));
        assert!(lines[3].contains("\"ordinal\":1"));
        let roll = rec.rollup();
        assert_eq!(roll.slots(), 24);
        assert_eq!(roll.probes(), 190);
        assert_eq!(roll.ticks, 1);
        assert_eq!(roll.phase(Phase::MinScan).slots, 18);
        assert_eq!(roll.phase(Phase::ReSeed).slots, 6);
        assert_eq!(roll.phase(Phase::SubFrameSetup).entries, 4);
    }

    #[test]
    fn phase_without_open_span_still_rolls_up() {
        let mut rec = SpanRecorder::new(true);
        rec.phase(Phase::MinScan, 7, 3);
        assert_eq!(rec.rollup().slots(), 7);
        assert_eq!(rec.rollup().probes(), 3);
        assert!(rec.is_empty(), "no node without an open span");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = SpanRecorder::new(false);
        rec.open(SpanKind::Session);
        rec.phase(Phase::MinScan, 7, 3);
        rec.close();
        assert!(rec.is_empty());
        assert_eq!(rec.rollup(), SpanRollup::default());
        assert_eq!(rec.to_jsonl().lines().count(), 1, "rollup trailer only");
    }

    #[test]
    fn retention_cap_drops_nodes_but_keeps_totals_exact() {
        let mut rec = SpanRecorder::with_capacity(true, 2);
        rec.open(SpanKind::Session);
        rec.open(SpanKind::Tick);
        spend_round(&mut rec, (5, 0), (9, 0)); // round node dropped
        spend_round(&mut rec, (5, 0), (9, 0)); // round node dropped
        rec.close_all();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.rollup().slots(), 10);
        assert_eq!(rec.rollup().probes(), 18);
        let jsonl = rec.to_jsonl();
        // The session node still carries the full folded cost.
        assert!(jsonl.lines().next().unwrap().contains("\"slots\":10"));
        assert!(jsonl.contains("\"dropped\":2"));
    }

    #[test]
    fn jsonl_is_deterministic() {
        let run = || {
            let mut rec = SpanRecorder::new(true);
            rec.open(SpanKind::Session);
            rec.open(SpanKind::Tick);
            spend_round(&mut rec, (12, 4), (30, 5));
            rec.close_all();
            rec.to_jsonl()
        };
        assert_eq!(run(), run());
        assert!(run().contains("\"wall_ns\":null"));
    }

    #[test]
    fn injected_clock_decorates_wall_ns() {
        struct FakeClock(Cell<u64>);
        impl Clock for FakeClock {
            fn now_ns(&self) -> u64 {
                let t = self.0.get();
                self.0.set(t + 250);
                t
            }
        }
        let mut rec = SpanRecorder::new(true);
        rec.set_clock(Rc::new(FakeClock(Cell::new(1000))));
        rec.open(SpanKind::Round);
        rec.close();
        let jsonl = rec.to_jsonl();
        assert!(jsonl.contains("\"wall_ns\":250"), "{jsonl}");
    }

    #[test]
    fn nodes_past_a_chunk_keep_their_order_and_costs() {
        // 300 ticks of one round each span two chunks; the export reads
        // every node in open order, and no chunk holds more than its
        // share of a small cap.
        let mut rec = SpanRecorder::new(true);
        rec.open(SpanKind::Session);
        for t in 0..300 {
            rec.open(SpanKind::Tick);
            spend_round(&mut rec, (t, 1), (2 * t, 0));
            rec.close();
        }
        rec.close();
        assert_eq!(rec.len(), 601);
        assert!(rec.nodes.iter().all(|c| c.capacity() == NODE_CHUNK));
        let jsonl = rec.to_jsonl();
        let spans: Vec<&str> = jsonl.lines().take(601).collect();
        for (i, line) in spans.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"span\":{i},")), "{line}");
        }
        assert!(spans[600].contains("\"kind\":\"round\",\"ordinal\":0"));
        assert!(spans[600].contains("\"slots\":300,\"probes\":598"));

        let mut small = SpanRecorder::with_capacity(true, 3);
        small.open(SpanKind::Session);
        small.open(SpanKind::Tick);
        small.close_all();
        assert_eq!(small.nodes[0].capacity(), 3);
    }

    #[test]
    fn close_without_open_is_a_noop() {
        let mut rec = SpanRecorder::new(true);
        rec.close();
        assert!(rec.is_empty());
        rec.open(SpanKind::Tick);
        rec.close();
        assert_eq!(rec.len(), 1, "a stray close must not unbalance later spans");
        assert_eq!(rec.rollup().ticks, 1);
    }
}
