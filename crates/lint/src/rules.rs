//! The rule engine: the `lint:allow` escape hatch, the stale-allow
//! audit's bookkeeping, and the one lexical rule the compiler cannot
//! express, `d2-float-format`, evaluated over the token stream of one
//! source file.
//!
//! rustc and clippy enforce the rest of the per-token rules (unsafe
//! code, panics, docs, nondeterminism sources, disk access); see
//! `docs/LINTING.md` for where each one went. The call-graph rules
//! live in [`crate::taint`].
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
//! `allow-syntax` and suppresses nothing. Compiler lints are waived
//! with `#[expect(lint, reason = "…")]` instead.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D2: ad-hoc float formatting in JSON-building export strings.
    D2FloatFormat,
    /// D4: no digest/export sink may transitively reach a
    /// nondeterminism source through the call graph.
    D4DigestTaint,
    /// C1: concurrency hygiene — primitives confined to the designated
    /// pool modules, merge paths taint-clean.
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
    pub const ALL: [RuleId; 6] = [
        RuleId::D2FloatFormat,
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
            RuleId::D2FloatFormat => "d2-float-format",
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
            RuleId::D2FloatFormat => {
                "float precision formatting inside JSON-building strings must go \
                 through tagwatch_obs::json_f64"
            }
            RuleId::D4DigestTaint => {
                "no function reachable from a digest/export sink (FNV digesting, JSON \
                 report writers, WAL encoders, checkpoint serializers, Prometheus/span \
                 exporters) may transitively reach a nondeterminism source"
            }
            RuleId::C1PoolDiscipline => {
                "concurrency hygiene: Mutex/atomics/mpsc/spawn confined to analytics::pool \
                 and analytics::parallel; merge paths reachable from PooledEngine \
                 taint-clean"
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
            RuleId::D2FloatFormat => {
                "Two exporters formatting the same f64 with different precision forks \
                 golden digests. Every float that lands in JSON must go through \
                 tagwatch_obs::json_f64, which renders a canonical shortest-roundtrip \
                 form. The rule flags format specs that set a precision or an exponent \
                 ({:.3}, {:8.3}, {v:+.3}, {:e}) inside JSON-building format strings \
                 (strings containing an escaped quote); fill, alignment, sign, `#`, `0` \
                 and width are parsed as std::fmt does, so a `.` fill ({:.<8}) is not a \
                 precision."
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
                 else. The rule flags Mutex/RwLock/Condvar/mpsc/Atomic*/thread::spawn/\
                 thread::scope tokens in any other library module, and walks the call \
                 graph from PooledEngine's methods to prove the merge path never \
                 reaches a nondeterminism source. (A `static mut` needs `unsafe` to \
                 touch, which `-F unsafe_code` forbids everywhere.)"
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
                 with an unknown rule name (including a retired one such as \
                 s2-panic, whose check moved to clippy) or no reason suppresses \
                 nothing and is itself a finding, so escapes can't decay into \
                 folklore. Compiler lints are waived with #[expect(lint, reason = \
                 \"…\")], which clippy::allow_attributes_without_reason checks the \
                 same way."
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
    /// `src/**` of a workspace crate: every rule.
    Src,
    /// Integration tests, benches, fixtures: allow-syntax only, and
    /// never a caller for `u1-dead-pub`.
    Test,
    /// `examples/**` and the benchmark package's `benchmark/src/**`:
    /// allow-syntax only, and callers for `u1-dead-pub`.
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
}

/// Crates that build JSON export artifacts by hand (D2 scope).
const EXPORT_CRATES: [&str; 5] = ["obs", "analytics", "bench", "cli", "tagwatch"];

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
// lint:allow(u1-dead-pub): reader: lint/tests/fixture_rules.rs::raw_strings_are_inert runs the lexical pass on one fixture with it
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
    let (allow_lines, allows, mut findings) = parse_allows(rel_path, src, &toks);
    if meta.role == FileRole::Src && EXPORT_CRATES.contains(&meta.crate_name.as_str()) {
        check_d2_float_format(&Code::new(src, &toks), rel_path, &mut findings);
    }
    RawAnalysis {
        findings,
        allows,
        allow_lines,
    }
}

/// D2: float precision specifiers inside JSON-building format strings.
///
/// A string literal is "JSON-building" when its body contains a
/// literal double quote (the workspace writes JSON keys as `\"key\":`
/// in hand-rolled exporters). Human-readable `Display` strings carry no
/// quotes and are not flagged; neither is test code.
fn check_d2_float_format(code: &Code<'_>, rel_path: &str, findings: &mut Vec<Finding>) {
    let test_ranges = compute_test_ranges(code);
    for k in 0..code.len() {
        if test_ranges.iter().any(|&(lo, hi)| lo <= k && k <= hi) {
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
        if has_float_precision_spec(body) && body.contains(quote_marker) {
            let tok = code.tok(k);
            findings.push(Finding::new(
                RuleId::D2FloatFormat,
                rel_path,
                tok.line,
                tok.col,
                "float precision formatting inside a JSON-building string: route the \
                 value through tagwatch_obs::json_f64 so every exporter renders floats \
                 identically"
                    .to_string(),
            ));
        }
    }
}

/// Whether a format-string body holds a placeholder — positional
/// (`{:.3}`, `{0:e}`) or named (`{rate:.3}`) — whose spec sets a
/// precision or an exponent type. `{{` is a literal brace.
fn has_float_precision_spec(body: &str) -> bool {
    let mut rest = body;
    while let Some(open) = rest.find('{') {
        rest = &rest[open + 1..];
        if let Some(after) = rest.strip_prefix('{') {
            rest = after;
            continue;
        }
        let arg_end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if let Some(spec) = rest[arg_end..].strip_prefix(':') {
            if is_float_spec(spec.split('}').next().unwrap_or("")) {
                return true;
            }
        }
    }
    false
}

/// Whether a format spec (the text between `:` and `}`) sets a
/// precision or an `e`/`E` type, reading the `std::fmt` grammar
/// `[[fill]align][sign]['#']['0'][width]['.' precision][type]`. A fill
/// is any one character before an alignment, so `{:.<8}` pads with
/// dots and has no precision.
fn is_float_spec(spec: &str) -> bool {
    let is_align = |c: char| matches!(c, '<' | '^' | '>');
    let mut chars = spec.chars();
    let mut s = match (chars.next(), chars.next()) {
        (Some(fill), Some(align)) if is_align(align) => &spec[fill.len_utf8() + 1..],
        (Some(align), _) if is_align(align) => &spec[1..],
        _ => spec,
    };
    s = s.strip_prefix(['+', '-']).unwrap_or(s);
    s = s.strip_prefix('#').unwrap_or(s);
    s = s.strip_prefix('0').unwrap_or(s);
    // Width: an integer, or a `name$` / `index$` parameter.
    let count_end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    s = match s[count_end..].strip_prefix('$') {
        Some(after) => after,
        None => s.trim_start_matches(|c: char| c.is_ascii_digit()),
    };
    s.starts_with('.') || s == "e" || s == "E"
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
                findings.push(Finding::new(
                    RuleId::AllowSyntax,
                    rel_path,
                    line,
                    t.col,
                    "unterminated lint:allow( escape".to_string(),
                ));
                continue;
            };
            let rule_name = after[..close].trim();
            let Some(rule) = RuleId::from_name(rule_name) else {
                findings.push(Finding::new(
                    RuleId::AllowSyntax,
                    rel_path,
                    line,
                    t.col,
                    format!("lint:allow names unknown rule `{rule_name}`"),
                ));
                continue;
            };
            // Mandatory `: reason` — to end of line (or comment).
            let rest = &after[close + 1..];
            let rest_line = rest.split(['\n']).next().unwrap_or("");
            let rest_line = rest_line.strip_suffix("*/").unwrap_or(rest_line);
            let reason = rest_line.strip_prefix(':').map(str::trim).unwrap_or("");
            if reason.is_empty() {
                findings.push(Finding::new(
                    RuleId::AllowSyntax,
                    rel_path,
                    line,
                    t.col,
                    format!(
                        "lint:allow({}) has no reason — write `lint:allow({}): why`",
                        rule.name(),
                        rule.name()
                    ),
                ));
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

    /// An export crate's source file: the d2 scope.
    fn export_meta() -> FileMeta {
        FileMeta {
            crate_name: "obs".to_string(),
            role: FileRole::Src,
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        analyze_source(&export_meta(), "crates/obs/src/x.rs", src).0
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.name()).collect()
    }

    const JSON_FLOAT: &str = "fn f(v: f64) -> String { format!(\"\\\"x\\\": {:.3}\", v) }";

    #[test]
    fn cfg_test_modules_are_exempt_from_d2() {
        let src = format!(
            "fn ok() {{}}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    {JSON_FLOAT}\n}}\n"
        );
        assert!(run(&src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = format!("#[cfg(not(test))]\n{JSON_FLOAT}\n");
        assert_eq!(rules(&run(&src)), ["d2-float-format"]);
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = format!(
            "// lint:allow(d2-float-format): a fixed-width column that no digest reads\n{JSON_FLOAT}\n"
        );
        let (f, allows) = analyze_source(&export_meta(), "x.rs", &src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(allows.len(), 1);
        assert_eq!(
            allows[0].reason,
            "a fixed-width column that no digest reads"
        );
    }

    #[test]
    fn allow_without_reason_reports_and_does_not_suppress() {
        let src = format!("{JSON_FLOAT} // lint:allow(d2-float-format)\n");
        let mut got = rules(&run(&src));
        got.sort_unstable();
        assert_eq!(got, ["allow-syntax", "d2-float-format"]);
    }

    #[test]
    fn allow_unknown_rule_reports() {
        let src = "// lint:allow(nonsense): because\nfn f() {}\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::AllowSyntax);
    }

    #[test]
    fn a_retired_rule_is_unknown_and_suppresses_nothing() {
        // s2-panic's check moved to clippy::expect_used; a leftover
        // escape for it waives nothing, not even the line below it.
        let src = format!("// lint:allow(s2-panic): provably Some, inserted above\n{JSON_FLOAT}\n");
        let (f, allows) = analyze_source(&export_meta(), "x.rs", &src);
        assert_eq!(rules(&f), ["allow-syntax", "d2-float-format"], "{f:?}");
        assert!(f[0].message.contains("unknown rule `s2-panic`"), "{f:?}");
        assert!(allows.is_empty());
    }

    #[test]
    fn d2_flags_float_specs_in_json_strings_only() {
        let json =
            |spec: &str| format!("fn f(v: f64) -> String {{ format!(\"\\\"x\\\": {spec}\", v) }}");
        for spec in [
            "{:.3}", "{:e}", "{:E}", "{v:.3}", "{0:.2}", "{:8.3}", "{:>10.2}", "{v:+.3}", "{:10e}",
            "{:08.3}", "{:#.1}", "{:.*}", "{:w$.2}", "{:*^9.1}",
        ] {
            assert_eq!(rules(&run(&json(spec))), ["d2-float-format"], "{spec}");
        }
        for spec in [
            "{}", "{:?}", "{:x}", "{:#x}", "{:>10}", "{:.<8}", "{:w$}", "{{:.3}}", "{:5}",
        ] {
            assert!(run(&json(spec)).is_empty(), "{spec}");
        }
        // A Display string (no quote) may format floats freely.
        assert!(run("fn f(v: f64) -> String { format!(\"mean {:.3}\", v) }").is_empty());
    }
}
