//! The rule engine: project-specific determinism and soundness rules
//! evaluated over the token stream of one source file.
//!
//! Every rule is lexical by design — the analyzer runs offline with no
//! `syn`, so rules match identifier/punctuation patterns that the
//! workspace's own conventions make unambiguous (see
//! `docs/LINTING.md` for the catalog and the known approximations).
//!
//! ## Scoped escape hatch
//!
//! A finding can be waived in place with
//!
//! ```text
//! // lint:allow(rule-name): reason the rule does not apply here
//! ```
//!
//! The allow suppresses findings of that rule on the comment's own
//! line and on the line immediately below (so both trailing and
//! line-above placement work). The reason is mandatory: an allow with
//! no reason (or an unknown rule name) is itself reported under
//! `allow-syntax` and suppresses nothing.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D1: nondeterminism sources in digest/export-reachable crates.
    D1Nondeterminism,
    /// D2: ad-hoc float formatting in JSON-building export strings.
    D2FloatFormat,
    /// S1: `#![forbid(unsafe_code)]` on crate roots; no `unsafe` tokens.
    S1Unsafe,
    /// S2: no `unwrap`/`expect`/`panic!`/`todo!` in library crates.
    S2Panic,
    /// S3: public items in `core`/`protocols` carry doc comments.
    S3Doc,
    /// S4: filesystem access confined to `store/src/io.rs` and the
    /// CLI/tooling layer.
    S4Io,
    /// D4: no digest/export sink may transitively reach a
    /// nondeterminism source through the call graph.
    D4DigestTaint,
    /// C1: concurrency hygiene — no `static mut`, primitives confined
    /// to the designated pool modules, merge paths taint-clean.
    C1PoolDiscipline,
    /// U1: pub items that no non-test code references.
    U1DeadPub,
    /// Meta-rule: malformed `lint:allow` escapes.
    AllowSyntax,
    /// Meta-rule: `lint:allow` escapes whose rule no longer fires at
    /// that site.
    AllowStale,
}

impl RuleId {
    /// Every rule, in catalog order.
    pub const ALL: [RuleId; 11] = [
        RuleId::D1Nondeterminism,
        RuleId::D2FloatFormat,
        RuleId::S1Unsafe,
        RuleId::S2Panic,
        RuleId::S3Doc,
        RuleId::S4Io,
        RuleId::D4DigestTaint,
        RuleId::C1PoolDiscipline,
        RuleId::U1DeadPub,
        RuleId::AllowSyntax,
        RuleId::AllowStale,
    ];

    /// The stable kebab-case name used in diagnostics and allows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1Nondeterminism => "d1-nondeterminism",
            RuleId::D2FloatFormat => "d2-float-format",
            RuleId::S1Unsafe => "s1-unsafe",
            RuleId::S2Panic => "s2-panic",
            RuleId::S3Doc => "s3-doc",
            RuleId::S4Io => "s4-io",
            RuleId::D4DigestTaint => "d4-digest-taint",
            RuleId::C1PoolDiscipline => "c1-pool-discipline",
            RuleId::U1DeadPub => "u1-dead-pub",
            RuleId::AllowSyntax => "allow-syntax",
            RuleId::AllowStale => "allow-stale",
        }
    }

    /// Parses a rule name as written inside `lint:allow(…)`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line description for `--list-rules` and the report header.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1Nondeterminism => {
                "no nondeterminism sources (Instant::now, SystemTime, thread_rng, \
                 HashMap/HashSet, thread::current) in digest/export-reachable crates"
            }
            RuleId::D2FloatFormat => {
                "float precision formatting inside JSON-building strings must go \
                 through tagwatch_obs::json_f64"
            }
            RuleId::S1Unsafe => {
                "crate roots carry #![forbid(unsafe_code)]; no `unsafe` token anywhere"
            }
            RuleId::S2Panic => {
                "no unwrap()/expect()/panic!/todo! in library crates outside #[cfg(test)]"
            }
            RuleId::S3Doc => "public items in core/protocols carry doc comments",
            RuleId::S4Io => {
                "no std::fs / disk I/O in library crates: persistence goes through \
                 tagwatch_store::io (the workspace's only filesystem touchpoint) or \
                 the CLI layer"
            }
            RuleId::D4DigestTaint => {
                "no function reachable from a digest/export sink (FNV digesting, JSON \
                 report writers, WAL encoders, checkpoint serializers, Prometheus/span \
                 exporters) may transitively reach a nondeterminism source"
            }
            RuleId::C1PoolDiscipline => {
                "concurrency hygiene: no `static mut`; Mutex/atomics/mpsc/spawn confined \
                 to analytics::pool and analytics::parallel; merge paths reachable from \
                 PooledEngine taint-clean"
            }
            RuleId::U1DeadPub => {
                "pub items that no library, bin, example, or benchmark code references are \
                 dead API; tests do not count as callers"
            }
            RuleId::AllowSyntax => "lint:allow escapes must name a known rule and give a reason",
            RuleId::AllowStale => {
                "lint:allow escapes whose rule no longer fires on the covered lines are \
                 stale and must be deleted"
            }
        }
    }

    /// Long-form rationale and remediation guidance for
    /// `--explain <rule>`.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::D1Nondeterminism => {
                "The monitoring engine's contract is byte-exact replay: every digested \
                 artifact is a pure function of (seed, policy, tag set). Wall clocks, \
                 unseeded RNGs, scheduler identity, and unordered hash iteration each \
                 break that pledge invisibly. This rule flags the source tokens \
                 lexically in library crates. Fix by threading the deterministic \
                 TimingModel / seeded SplitMix64, or switching to BTreeMap/BTreeSet. \
                 If a HashMap is lookup-only (never iterated into output), waive with \
                 lint:allow(d1-nondeterminism) stating exactly that."
            }
            RuleId::D2FloatFormat => {
                "Two exporters formatting the same f64 with different precision forks \
                 golden digests. Every float that lands in JSON must go through \
                 tagwatch_obs::json_f64, which renders a canonical shortest-roundtrip \
                 form. The rule flags float precision specs ({:.3}, {:e}) inside \
                 JSON-building format strings (strings containing an escaped quote)."
            }
            RuleId::S1Unsafe => {
                "The workspace is 100% safe Rust: crate roots carry \
                 #![forbid(unsafe_code)] and no file may contain an `unsafe` token. \
                 There is no waiver — delete the unsafe block or move the operation \
                 behind a safe abstraction."
            }
            RuleId::S2Panic => {
                "Library crates return Results; panics are reserved for provably \
                 unreachable states. .unwrap()/.expect()/panic!/todo! in library code \
                 either becomes an error path or carries a lint:allow(s2-panic) whose \
                 reason states the invariant making the branch impossible."
            }
            RuleId::S3Doc => {
                "core and protocols are the paper-facing API: every pub item carries a \
                 doc comment tying it to the concept it implements (TRP/ETRP/MTRP \
                 rounds, Bloom seeds, false-positive math)."
            }
            RuleId::S4Io => {
                "Byte-buffer-only library crates are what make crash/corruption fault \
                 injection exact: tagwatch_store::io is the single filesystem \
                 touchpoint, and the CLI layer owns user-facing paths. std::fs \
                 anywhere else is a durability hole."
            }
            RuleId::D4DigestTaint => {
                "The v2 call-graph rule behind the headline guarantee. Sinks are \
                 functions that feed digested or exported bytes: direct callers of \
                 the FNV-1a primitives, JSON report writers (to_json/to_jsonl), WAL \
                 record encoders, checkpoint serializers, and the Prometheus text \
                 exporter. Sources are wall clocks (Instant::now, SystemTime), \
                 unseeded randomness (thread_rng), scheduler identity \
                 (thread::current), env reads, and unordered iteration (HashMap/\
                 HashSet/RandomState). The analyzer builds a conservative workspace \
                 call graph and reports every sink that can transitively reach a \
                 source, printing the full call chain. Fix by making the reached \
                 function pure (preferred), or waive at the sink's fn line when the \
                 flagged value provably never lands in digested bytes. The bench \
                 crate is excluded: it measures wall time by design and its check \
                 digests hash only tick counts."
            }
            RuleId::C1PoolDiscipline => {
                "Determinism at any thread count holds because concurrency is caged: \
                 worker pools live in analytics::pool (persistent workers, sharded \
                 min-merge) and analytics::parallel (scoped fan-out), and nowhere \
                 else. The rule bans `static mut` outright (workspace-wide, tests \
                 included), flags Mutex/RwLock/Condvar/mpsc/Atomic*/thread::spawn/\
                 thread::scope tokens in any other library module, and walks the \
                 call graph from PooledEngine's methods to prove the merge path \
                 never reaches a nondeterminism source."
            }
            RuleId::U1DeadPub => {
                "A pub item that only tests reach is API surface the program does not \
                 use — exactly how deprecated shims and second copies of a live body \
                 linger. The rule counts identifier references in non-test code: src/ \
                 outside #[cfg(test)], bins, examples, and benchmark/src outside its \
                 test modules (declarations, use statements, and impl headers \
                 excluded). An item's own tests never keep it alive; zero references \
                 means the item is dead. Delete it (test the live body instead) or \
                 demote it to pub(crate). An item that tests need and the program \
                 never calls — an oracle, a scenario builder or reader, or an attack \
                 demonstration — keeps a lint:allow(u1-dead-pub) naming its role and \
                 a test that uses it."
            }
            RuleId::AllowSyntax => {
                "lint:allow(rule): reason is a scoped, auditable waiver. An allow \
                 with an unknown rule name or no reason suppresses nothing and is \
                 itself a finding, so escapes can't decay into folklore."
            }
            RuleId::AllowStale => {
                "An allow whose rule no longer fires on its two covered lines is a \
                 waiver guarding nothing — it hides future regressions at that site. \
                 The workspace pass recomputes raw findings before suppression; any \
                 allow matching none of them is reported. Delete the escape."
            }
        }
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// For call-graph rules: the sink→source call chain as qualified
    /// paths (empty for lexical findings). Rendered as `note:` lines
    /// in human output and a `"chain"` array in the JSON report.
    pub chain: Vec<String>,
}

impl Finding {
    /// A chain-less (lexical) finding.
    #[must_use]
    pub fn new(rule: RuleId, file: &str, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            col,
            message,
            chain: Vec::new(),
        }
    }
}

/// One valid `lint:allow` escape encountered during analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRecord {
    /// The rule being waived.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the escape comment.
    pub line: u32,
    /// The mandatory justification.
    pub reason: String,
}

/// What part of a crate a file belongs to (drives rule scoping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `src/**` of a workspace crate: full rule set.
    Src,
    /// Integration tests, benches, fixtures: only the unsafe-token scan
    /// and allow-syntax checks.
    Test,
    /// `examples/**` and the benchmark package's `benchmark/src/**`:
    /// same reduced set as tests.
    Example,
}

/// Per-file classification computed by the workspace walker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Crate directory name (`core`, `sim`, …; `tagwatch` for the root
    /// facade crate).
    pub crate_name: String,
    /// Which target tree the file sits in.
    pub role: FileRole,
    /// Whether this file is a compilation root (`src/lib.rs`,
    /// `src/main.rs`, `src/bin/*.rs`) and must carry the forbid attr.
    pub is_crate_root: bool,
}

/// Crates whose sources feed digested or exported artifacts: the
/// round engines and everything between them and the byte-stable
/// reports. D1 and S2 both scope to this set.
const LIBRARY_CRATES: [&str; 8] = [
    "core",
    "protocols",
    "sim",
    "analytics",
    "attack",
    "obs",
    "store",
    "tagwatch",
];

/// Crates that build JSON export artifacts by hand (D2 scope).
const EXPORT_CRATES: [&str; 5] = ["obs", "analytics", "bench", "cli", "tagwatch"];

/// Crates whose public API surface must be doc-commented (S3 scope).
const DOC_CRATES: [&str; 2] = ["core", "protocols"];

fn in_library_crate(meta: &FileMeta) -> bool {
    meta.role == FileRole::Src && LIBRARY_CRATES.contains(&meta.crate_name.as_str())
}

/// Code-token view: the full token list with comments filtered out,
/// so adjacency patterns (`.` `unwrap` `(`) match across interleaved
/// comments exactly as the compiler would parse them.
pub(crate) struct Code<'a> {
    src: &'a str,
    toks: &'a [Token],
    /// Indices into `toks` of the non-comment tokens.
    idx: Vec<usize>,
}

impl<'a> Code<'a> {
    pub(crate) fn new(src: &'a str, toks: &'a [Token]) -> Self {
        let idx = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        Code { src, toks, idx }
    }

    pub(crate) fn len(&self) -> usize {
        self.idx.len()
    }

    pub(crate) fn tok(&self, k: usize) -> &Token {
        &self.toks[self.idx[k]]
    }

    pub(crate) fn kind(&self, k: usize) -> Option<TokenKind> {
        self.idx.get(k).map(|&i| self.toks[i].kind)
    }

    pub(crate) fn text(&self, k: usize) -> &str {
        self.tok(k).text(self.src)
    }

    pub(crate) fn is_punct(&self, k: usize, c: char) -> bool {
        self.kind(k) == Some(TokenKind::Punct) && self.text(k).starts_with(c)
    }

    pub(crate) fn is_ident(&self, k: usize, name: &str) -> bool {
        self.kind(k) == Some(TokenKind::Ident) && self.text(k) == name
    }

    /// Full-token index of code token `k` (for backward walks that
    /// need to see comments).
    pub(crate) fn full_index(&self, k: usize) -> usize {
        self.idx[k]
    }
}

/// Pre-suppression result of the lexical pass over one file: the raw
/// findings (before any `lint:allow` filtering), the valid allow
/// escapes, and the suppression line sets. The workspace pass uses
/// this to combine lexical and call-graph findings under one
/// suppression step and to detect stale allows.
#[derive(Debug, Clone, Default)]
pub struct RawAnalysis {
    /// Lexical findings before allow suppression (`allow-syntax`
    /// findings included — those are never suppressible).
    pub findings: Vec<Finding>,
    /// Valid allow escapes encountered.
    pub allows: Vec<AllowRecord>,
    /// Rule → set of suppressed lines (each allow covers its own line
    /// and the next).
    pub(crate) allow_lines: AllowLines,
}

/// Analyzes one file's source. Returns the findings (already
/// allow-filtered) and the valid allow escapes encountered.
#[must_use]
// lint:allow(u1-dead-pub): reader: lint/tests/fixture_rules.rs::raw_strings_are_inert runs the lexical rules on one fixture with it
pub fn analyze_source(
    meta: &FileMeta,
    rel_path: &str,
    src: &str,
) -> (Vec<Finding>, Vec<AllowRecord>) {
    let raw = analyze_source_raw(meta, rel_path, src);
    let mut findings = raw.findings;
    apply_allows(&mut findings, |file, rule, line| {
        debug_assert_eq!(file, rel_path);
        raw.allow_lines
            .get(&rule)
            .is_some_and(|lines| lines.contains(&line))
    });
    sort_findings(&mut findings);
    (findings, raw.allows)
}

/// Drops suppressible findings for which `allowed(file, rule, line)`
/// holds. The allow meta-rules are never suppressible.
pub(crate) fn apply_allows<F>(findings: &mut Vec<Finding>, allowed: F)
where
    F: Fn(&str, RuleId, u32) -> bool,
{
    findings.retain(|f| {
        matches!(f.rule, RuleId::AllowSyntax | RuleId::AllowStale)
            || !allowed(&f.file, f.rule, f.line)
    });
}

/// Per-file finding order: (line, col, rule).
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (a.line, a.col, a.rule.name()).cmp(&(b.line, b.col, b.rule.name())));
}

/// The lexical pass without allow suppression — see [`RawAnalysis`].
#[must_use]
pub fn analyze_source_raw(meta: &FileMeta, rel_path: &str, src: &str) -> RawAnalysis {
    let toks = lex(src);
    let code = Code::new(src, &toks);
    let test_ranges = compute_test_ranges(&code);
    let in_test = |k: usize| test_ranges.iter().any(|&(lo, hi)| lo <= k && k <= hi);

    // ---- allow escapes (all roles) -------------------------------
    let (allow_lines, allow_records, mut findings) = parse_allows(rel_path, src, &toks);

    // ---- S1: crate roots must forbid unsafe_code -----------------
    if meta.is_crate_root && !has_forbid_unsafe(&code) {
        findings.push(Finding {
            rule: RuleId::S1Unsafe,
            file: rel_path.to_string(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            chain: Vec::new(),
        });
    }

    let mut push = |rule: RuleId, tok: &Token, message: String| {
        findings.push(Finding {
            rule,
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            chain: Vec::new(),
        });
    };

    // ---- S1: unsafe-token scan (all roles) -----------------------
    for k in 0..code.len() {
        if code.is_ident(k, "unsafe") {
            push(
                RuleId::S1Unsafe,
                code.tok(k),
                "`unsafe` token: the workspace is 100% safe Rust by policy".to_string(),
            );
        }
    }

    // The remaining rules only apply to crate sources.
    if meta.role == FileRole::Src {
        if in_library_crate(meta) {
            check_s2_panics(&code, &mut push, &in_test);
            check_d1_nondeterminism(&code, &mut push, &in_test);
            // `store/src/io.rs` is the designated filesystem touchpoint;
            // everywhere else in library code, disk access is a leak.
            if !(meta.crate_name == "store" && rel_path.ends_with("src/io.rs")) {
                check_s4_io(&code, &mut push, &in_test);
            }
        }
        if EXPORT_CRATES.contains(&meta.crate_name.as_str()) {
            check_d2_float_format(&code, &mut push, &in_test);
        }
        if DOC_CRATES.contains(&meta.crate_name.as_str()) {
            check_s3_docs(&code, &mut push, &in_test);
        }
    }

    RawAnalysis {
        findings,
        allows: allow_records,
        allow_lines,
    }
}

/// S2: panic-family calls in library code.
fn check_s2_panics<F>(code: &Code<'_>, push: &mut F, in_test: &dyn Fn(usize) -> bool)
where
    F: FnMut(RuleId, &Token, String),
{
    for k in 0..code.len() {
        if in_test(k) {
            continue;
        }
        // `.unwrap(` / `.expect(` — method-call position only, so
        // `unwrap_or`, `unwrap_or_else`, field names etc. don't match.
        for name in ["unwrap", "expect"] {
            if code.is_ident(k, name)
                && k > 0
                && code.is_punct(k - 1, '.')
                && code.is_punct(k + 1, '(')
            {
                push(
                    RuleId::S2Panic,
                    code.tok(k),
                    format!(
                        "`.{name}(…)` in library code: return a Result, make the state \
                         infallible by construction, or lint:allow(s2-panic) with a proof"
                    ),
                );
            }
        }
        for name in ["panic", "todo"] {
            if code.is_ident(k, name) && code.is_punct(k + 1, '!') {
                push(
                    RuleId::S2Panic,
                    code.tok(k),
                    format!(
                        "`{name}!` in library code: return an error instead, or \
                         lint:allow(s2-panic) with a proof the branch is unreachable"
                    ),
                );
            }
        }
    }
}

/// S4: filesystem access outside the designated I/O module.
///
/// Matches the idioms the workspace actually uses for disk access:
/// the `fs` path segment (`std::fs`, `fs::write`, `use std::fs`),
/// `OpenOptions`, and `File::` calls. Keeping every other library
/// module byte-buffer-only is what makes crash/corruption fault
/// injection exact, so a new `std::fs` in, say, `analytics` is a
/// durability hole, not a style nit.
fn check_s4_io<F>(code: &Code<'_>, push: &mut F, in_test: &dyn Fn(usize) -> bool)
where
    F: FnMut(RuleId, &Token, String),
{
    let is_path_sep = |k: usize| code.is_punct(k, ':') && code.is_punct(k + 1, ':');
    for k in 0..code.len() {
        if in_test(k) {
            continue;
        }
        let fs_segment = code.is_ident(k, "fs")
            && (is_path_sep(k + 1)
                || (k >= 3 && code.is_ident(k - 3, "std") && is_path_sep(k - 2)));
        let file_call = code.is_ident(k, "File") && is_path_sep(k + 1);
        if fs_segment || file_call || code.is_ident(k, "OpenOptions") {
            push(
                RuleId::S4Io,
                code.tok(k),
                "filesystem access in library code: route persistence through \
                 `tagwatch_store::io` (the only module allowed to touch disk) or move \
                 this to the CLI layer"
                    .to_string(),
            );
        }
    }
}

/// D1: nondeterminism sources in digest/export-reachable crates.
fn check_d1_nondeterminism<F>(code: &Code<'_>, push: &mut F, in_test: &dyn Fn(usize) -> bool)
where
    F: FnMut(RuleId, &Token, String),
{
    let is_path_sep = |k: usize| code.is_punct(k, ':') && code.is_punct(k + 1, ':');
    for k in 0..code.len() {
        if in_test(k) {
            continue;
        }
        if code.is_ident(k, "Instant") && is_path_sep(k + 1) && code.is_ident(k + 3, "now") {
            push(
                RuleId::D1Nondeterminism,
                code.tok(k),
                "`Instant::now()` is wall-clock nondeterminism; thread timing through \
                 the deterministic TimingModel or keep it out of digested paths"
                    .to_string(),
            );
        }
        if code.is_ident(k, "SystemTime") {
            push(
                RuleId::D1Nondeterminism,
                code.tok(k),
                "`SystemTime` is wall-clock nondeterminism in a deterministic path".to_string(),
            );
        }
        if code.is_ident(k, "thread_rng") {
            push(
                RuleId::D1Nondeterminism,
                code.tok(k),
                "`thread_rng()` is unseeded randomness; take an explicit seeded RNG".to_string(),
            );
        }
        if code.is_ident(k, "thread") && is_path_sep(k + 1) && code.is_ident(k + 3, "current") {
            push(
                RuleId::D1Nondeterminism,
                code.tok(k),
                "`thread::current()` leaks scheduler identity into a deterministic path"
                    .to_string(),
            );
        }
        for name in ["HashMap", "HashSet"] {
            if code.is_ident(k, name) {
                push(
                    RuleId::D1Nondeterminism,
                    code.tok(k),
                    format!(
                        "`{name}` iteration order is unspecified: use BTreeMap/BTreeSet \
                         or sort before iterating; if lookup-only, \
                         lint:allow(d1-nondeterminism) with that justification"
                    ),
                );
            }
        }
    }
}

/// D2: float precision specifiers inside JSON-building format strings.
///
/// A string literal is "JSON-building" when its body contains a
/// literal double quote (the workspace writes JSON keys as `\"key\":`
/// in hand-rolled exporters); a float specifier is `{:.`, `{:e`, or
/// `{:E`. Human-readable `Display` strings carry no quotes and are
/// not flagged.
fn check_d2_float_format<F>(code: &Code<'_>, push: &mut F, in_test: &dyn Fn(usize) -> bool)
where
    F: FnMut(RuleId, &Token, String),
{
    for k in 0..code.len() {
        if in_test(k) {
            continue;
        }
        let (quote_marker, body): (&str, &str) = match code.kind(k) {
            Some(TokenKind::Str) => ("\\\"", code.text(k)),
            Some(TokenKind::RawStr) => {
                let t = code.text(k);
                let body = t
                    .split_once('"')
                    .and_then(|(_, rest)| rest.rsplit_once('"'))
                    .map_or("", |(body, _)| body);
                ("\"", body)
            }
            _ => continue,
        };
        let has_float_spec = has_float_precision_spec(body);
        let is_json = body.contains(quote_marker);
        if has_float_spec && is_json {
            push(
                RuleId::D2FloatFormat,
                code.tok(k),
                "float precision formatting inside a JSON-building string: route the \
                 value through tagwatch_obs::json_f64 so every exporter renders floats \
                 identically"
                    .to_string(),
            );
        }
    }
}

/// Whether a format-string body contains a float precision/exponent
/// spec — positional (`{:.3}`, `{:e}`) or named (`{rate:.3}`,
/// `{ticks_per_sec:e}`).
fn has_float_precision_spec(body: &str) -> bool {
    for (i, _) in body.match_indices('{') {
        let rest = &body[i + 1..];
        // Skip the optional argument name/position, then require `:.`
        // (precision) or `:e`/`:E` (exponent) before the closing brace.
        let after_arg = rest.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_');
        if let Some(spec) = after_arg.strip_prefix(':') {
            if spec.starts_with('.') || spec.starts_with('e') || spec.starts_with('E') {
                return true;
            }
        }
    }
    false
}

/// S3: `pub` items must carry a doc comment (or `#[doc…]` attribute).
fn check_s3_docs<F>(code: &Code<'_>, push: &mut F, in_test: &dyn Fn(usize) -> bool)
where
    F: FnMut(RuleId, &Token, String),
{
    const ITEM_KEYWORDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "mod", "type", "const", "static", "union",
    ];
    for k in 0..code.len() {
        if in_test(k) || !code.is_ident(k, "pub") {
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        let item_kw = if code.is_punct(k + 1, '(') {
            continue;
        } else {
            k + 1
        };
        let Some(TokenKind::Ident) = code.kind(item_kw) else {
            continue;
        };
        let kw = code.text(item_kw);
        if !ITEM_KEYWORDS.contains(&kw) {
            continue; // `pub use` re-exports and struct fields
        }
        // `pub mod name;` — the docs live as `//!` inside the module
        // file, which this per-file pass cannot see; only inline
        // `pub mod name { … }` bodies are checked here.
        if kw == "mod" && code.is_punct(item_kw + 2, ';') {
            continue;
        }
        if !has_preceding_doc(code, k) {
            let name = code
                .kind(item_kw + 1)
                .filter(|&kind| kind == TokenKind::Ident)
                .map_or(String::new(), |_| format!(" `{}`", code.text(item_kw + 1)));
            push(
                RuleId::S3Doc,
                code.tok(k),
                format!("public {kw}{name} has no doc comment"),
            );
        }
    }
}

/// Walks backwards from the code token at code-index `k` over
/// attributes and plain comments, looking for a doc comment or a
/// `#[doc…]`-carrying attribute.
fn has_preceding_doc(code: &Code<'_>, k: usize) -> bool {
    let toks = code.toks;
    let mut j = code.full_index(k);
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_comment() {
            if t.is_doc_comment(code.src) {
                return true;
            }
            continue; // plain comment between docs/attrs and the item
        }
        if t.kind == TokenKind::Punct && t.text(code.src) == "]" {
            // Scan back to the matching `[`, watching for `doc` inside.
            let mut depth = 1;
            let mut saw_doc = false;
            while j > 0 && depth > 0 {
                j -= 1;
                let u = &toks[j];
                if u.is_comment() {
                    continue;
                }
                match u.text(code.src) {
                    "]" if u.kind == TokenKind::Punct => depth += 1,
                    "[" if u.kind == TokenKind::Punct => depth -= 1,
                    "doc" if u.kind == TokenKind::Ident => saw_doc = true,
                    _ => {}
                }
            }
            if saw_doc {
                return true;
            }
            // Expect `#` (outer attr) before the `[`; an inner `#![…]`
            // belongs to the enclosing module, so stop there.
            if j > 0 && toks[j - 1].kind == TokenKind::Punct && toks[j - 1].text(code.src) == "#" {
                j -= 1;
                continue;
            }
            if j > 1 && toks[j - 1].text(code.src) == "!" && toks[j - 2].text(code.src) == "#" {
                return false;
            }
            return false;
        }
        return false; // any other token: the item has no doc
    }
    false
}

/// Finds the `#![forbid(unsafe_code)]` inner attribute.
fn has_forbid_unsafe(code: &Code<'_>) -> bool {
    (0..code.len()).any(|k| {
        code.is_punct(k, '#')
            && code.is_punct(k + 1, '!')
            && code.is_punct(k + 2, '[')
            && code.is_ident(k + 3, "forbid")
            && code.is_punct(k + 4, '(')
            && code.is_ident(k + 5, "unsafe_code")
            && code.is_punct(k + 6, ')')
            && code.is_punct(k + 7, ']')
    })
}

/// Computes code-index ranges covered by `#[cfg(test)]` / `#[test]`
/// items (attribute through closing brace of the item body).
pub(crate) fn compute_test_ranges(code: &Code<'_>) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let n = code.len();
    let mut i = 0;
    while i < n {
        if !(code.is_punct(i, '#') && code.is_punct(i + 1, '[')) {
            i += 1;
            continue;
        }
        let Some(attr_end) = match_bracket(code, i + 1) else {
            break;
        };
        let joined: String = (i + 2..attr_end).map(|k| code.text(k)).collect();
        let is_test_attr = joined == "test"
            || (joined.starts_with("cfg(")
                && joined.contains("test")
                && !joined.contains("not(test)"));
        if is_test_attr {
            if let Some(body_end) = find_item_body_end(code, attr_end + 1) {
                ranges.push((i, body_end));
            }
        }
        i = attr_end + 1;
    }
    ranges
}

/// From `start` (just past a test attribute), skips further attributes
/// then walks to the item's body `{`, returning the code index of the
/// matching `}` — or `None` for bodyless items (`mod tests;`).
fn find_item_body_end(code: &Code<'_>, start: usize) -> Option<usize> {
    let n = code.len();
    let mut k = start;
    // Skip stacked attributes (`#[test] #[ignore] fn …`).
    while k + 1 < n && code.is_punct(k, '#') && code.is_punct(k + 1, '[') {
        k = match_bracket(code, k + 1)? + 1;
    }
    // Find the body `{` at zero paren/bracket depth.
    let mut depth = 0i32;
    while k < n {
        if code.kind(k) == Some(TokenKind::Punct) {
            match code.text(k).as_bytes()[0] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => return match_brace(code, k),
                b';' if depth == 0 => return None,
                _ => {}
            }
        }
        k += 1;
    }
    None
}

/// Given the code index of a `[`, returns the index of its matching `]`.
fn match_bracket(code: &Code<'_>, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in open..code.len() {
        if code.is_punct(k, '[') {
            depth += 1;
        } else if code.is_punct(k, ']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Given the code index of a `{`, returns the index of its matching `}`.
fn match_brace(code: &Code<'_>, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in open..code.len() {
        if code.is_punct(k, '{') {
            depth += 1;
        } else if code.is_punct(k, '}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

pub(crate) type AllowLines = BTreeMap<RuleId, BTreeSet<u32>>;

/// Parses every `lint:allow(rule): reason` escape out of the comment
/// tokens. Returns the suppression line sets, the valid records, and
/// `allow-syntax` findings for malformed escapes.
fn parse_allows(
    rel_path: &str,
    src: &str,
    toks: &[Token],
) -> (AllowLines, Vec<AllowRecord>, Vec<Finding>) {
    const MARKER: &str = "lint:allow(";
    let mut lines: AllowLines = BTreeMap::new();
    let mut records = Vec::new();
    let mut findings = Vec::new();
    for t in toks {
        // Only plain comments carry directives: doc comments are
        // rendered documentation, where an allow may appear as an
        // *example* (as in this crate's own docs).
        if !t.is_comment() || t.is_doc_comment(src) {
            continue;
        }
        let text = t.text(src);
        let mut search_from = 0;
        while let Some(pos) = text[search_from..].find(MARKER) {
            let at = search_from + pos;
            // Line of this occurrence (block comments can span lines).
            let line = t.line + text[..at].bytes().filter(|&b| b == b'\n').count() as u32;
            let after = &text[at + MARKER.len()..];
            search_from = at + MARKER.len();

            let Some(close) = after.find(')') else {
                findings.push(Finding {
                    rule: RuleId::AllowSyntax,
                    file: rel_path.to_string(),
                    line,
                    col: t.col,
                    message: "unterminated lint:allow( escape".to_string(),
                    chain: Vec::new(),
                });
                continue;
            };
            let rule_name = after[..close].trim();
            let Some(rule) = RuleId::from_name(rule_name) else {
                findings.push(Finding {
                    rule: RuleId::AllowSyntax,
                    file: rel_path.to_string(),
                    line,
                    col: t.col,
                    message: format!("lint:allow names unknown rule `{rule_name}`"),
                    chain: Vec::new(),
                });
                continue;
            };
            // Mandatory `: reason` — to end of line (or comment).
            let rest = &after[close + 1..];
            let rest_line = rest.split(['\n']).next().unwrap_or("");
            let rest_line = rest_line.strip_suffix("*/").unwrap_or(rest_line);
            let reason = rest_line.strip_prefix(':').map(str::trim).unwrap_or("");
            if reason.is_empty() {
                findings.push(Finding {
                    rule: RuleId::AllowSyntax,
                    file: rel_path.to_string(),
                    line,
                    col: t.col,
                    message: format!(
                        "lint:allow({}) has no reason — write `lint:allow({}): why`",
                        rule.name(),
                        rule.name()
                    ),
                    chain: Vec::new(),
                });
                continue;
            }
            let entry = lines.entry(rule).or_default();
            entry.insert(line);
            entry.insert(line + 1);
            records.push(AllowRecord {
                rule,
                file: rel_path.to_string(),
                line,
                reason: reason.to_string(),
            });
        }
    }
    (lines, records, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_meta() -> FileMeta {
        FileMeta {
            crate_name: "core".to_string(),
            role: FileRole::Src,
            is_crate_root: false,
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        analyze_source(&lib_meta(), "crates/core/src/x.rs", src).0
    }

    #[test]
    fn s2_fires_on_unwrap_and_panic() {
        let f = run("fn f(x: Option<u32>) -> u32 { let y = x.unwrap(); panic!(\"no\"); }");
        let rules: Vec<&str> = f.iter().map(|f| f.rule.name()).collect();
        assert_eq!(rules, ["s2-panic", "s2-panic"]);
    }

    #[test]
    fn s2_ignores_unwrap_or_and_strings() {
        let f = run("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) } // unwrap() in comment\nconst S: &str = \".unwrap()\";");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_s2() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) { x.unwrap(); }\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "fn f(x: Option<u32>) {\n    // lint:allow(s2-panic): provably Some, inserted above\n    x.unwrap();\n}\n";
        let (f, allows) = analyze_source(&lib_meta(), "x.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].reason, "provably Some, inserted above");
    }

    #[test]
    fn allow_without_reason_reports_and_does_not_suppress() {
        let src = "fn f(x: Option<u32>) {\n    x.unwrap(); // lint:allow(s2-panic)\n}\n";
        let f = run(src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.name()).collect();
        assert!(rules.contains(&"s2-panic"));
        assert!(rules.contains(&"allow-syntax"));
    }

    #[test]
    fn allow_unknown_rule_reports() {
        let src = "// lint:allow(nonsense): because\nfn f() {}\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::AllowSyntax);
    }

    #[test]
    fn d1_flags_hashmap_and_instant_now() {
        let src = "use std::collections::HashMap;\nfn t() -> std::time::Instant { std::time::Instant::now() }\n";
        let f = run(src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.name()).collect();
        assert_eq!(rules, ["d1-nondeterminism", "d1-nondeterminism"]);
    }

    #[test]
    fn s1_flags_unsafe_everywhere_even_tests() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let p = 0u8; let _ = unsafe { p }; }\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::S1Unsafe);
    }

    #[test]
    fn s1_crate_root_requires_forbid() {
        let meta = FileMeta {
            crate_name: "core".to_string(),
            role: FileRole::Src,
            is_crate_root: true,
        };
        let (f, _) = analyze_source(&meta, "lib.rs", "pub fn x() {}\n");
        assert!(f.iter().any(|f| f.message.contains("forbid(unsafe_code)")));
        let (f, _) = analyze_source(
            &meta,
            "lib.rs",
            "#![forbid(unsafe_code)]\n/// Doc.\npub fn x() {}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s3_requires_docs_on_pub_items() {
        let src = "/// Documented.\npub fn a() {}\n\npub fn b() {}\n\n#[derive(Debug)]\n/// Above attrs also counts.\npub struct S;\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::S3Doc);
        assert!(f[0].message.contains('b'));
    }

    #[test]
    fn s3_skips_pub_use_pub_crate_and_fields() {
        let src = "pub use std::fmt;\npub(crate) fn h() {}\n/// S.\npub struct S {\n    pub field: u32,\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn s4_fires_on_fs_and_file_handles() {
        let src = "use std::fs;\nfn f() { fs::write(\"x\", b\"y\").ok(); std::fs::File::create(\"x\").ok(); }\n";
        let f = run(src);
        let s4 = f.iter().filter(|f| f.rule == RuleId::S4Io).count();
        assert_eq!(s4, 4, "use + fs::write + std::fs + File:: — {f:?}");
    }

    #[test]
    fn s4_exempts_store_io_module_and_tests() {
        let src = "use std::fs;\nfn f() { fs::write(\"x\", b\"y\").ok(); }\n";
        let store = FileMeta {
            crate_name: "store".to_string(),
            role: FileRole::Src,
            is_crate_root: false,
        };
        let (f, _) = analyze_source(&store, "crates/store/src/io.rs", src);
        assert!(f.is_empty(), "io.rs is the designated touchpoint: {f:?}");
        let (f, _) = analyze_source(&store, "crates/store/src/wal.rs", src);
        assert!(
            f.iter().any(|f| f.rule == RuleId::S4Io),
            "other store modules are in scope: {f:?}"
        );
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn t() { std::fs::write(\"x\", b\"y\").ok(); }\n}\n";
        assert!(run(test_src).is_empty(), "test code may touch temp files");
    }

    #[test]
    fn d2_flags_float_specs_in_json_strings_only() {
        let meta = FileMeta {
            crate_name: "bench".to_string(),
            role: FileRole::Src,
            is_crate_root: false,
        };
        let json = "fn f(v: f64) -> String { format!(\"\\\"x\\\": {:.3}\", v) }";
        let display = "fn f(v: f64) -> String { format!(\"mean {:.3}\", v) }";
        assert_eq!(analyze_source(&meta, "x.rs", json).0.len(), 1);
        assert!(analyze_source(&meta, "x.rs", display).0.is_empty());
    }
}
