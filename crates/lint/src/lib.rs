//! # tagwatch-lint
//!
//! The workspace's call-graph analyzer for determinism.
//!
//! The whole reproduction rests on a promise the type system cannot
//! state: that the server can **byte-exactly** precompute what honest
//! tags emit, and that every exported artifact (soak reports, perf
//! baselines, metrics snapshots) is a pure function of its seed. One
//! stray `Instant::now()`, one `HashMap` iteration reaching an
//! exporter, one `{:.3}` float formatted outside the shared JSON
//! serializer — and the golden digests CI pins start flaking for
//! reasons no test names.
//!
//! rustc and clippy check every rule that one token decides: no
//! `unsafe`, no panics, docs, and no nondeterminism source or disk
//! access in library crates (`docs/LINTING.md` maps each to its lint).
//! This crate checks what the compiler cannot express — that a
//! "clean" helper never transitively calls a wall clock before its
//! result reaches an FNV digest, that threads stay in their two
//! modules, that no pub item lives only for tests, and that JSON
//! exporters format floats one way — with a deliberately small,
//! dependency-free footprint:
//!
//! * [`lexer`] — a hand-rolled, comment/string/raw-string-aware Rust
//!   lexer (no `syn`; the build is offline and the analyzer must stay
//!   auditable).
//! * [`parser`] — item extraction over the token stream: functions
//!   with qualified module paths, `impl` contexts, `use` imports, and
//!   per-body call candidates.
//! * [`graph`] — the workspace symbol table and conservative call
//!   graph, exported as the deterministic `--graph-out` artifact.
//! * [`taint`] — the reachability engine behind `d4-digest-taint`,
//!   `c1-pool-discipline`, and `u1-dead-pub`.
//! * [`rules`] — the one lexical rule, `d2-float-format`, plus the
//!   `lint:allow(rule): reason` escape hatch and the stale-allow audit.
//! * [`workspace`] — convention-based file discovery (vendored code
//!   and rule fixtures excluded), sorted for determinism.
//! * [`report`] — rustc-style diagnostics (taint chains rendered as
//!   `note:` lines) and the FNV-digested JSON findings report, built
//!   with the same export helpers as `tagwatch-obs`.
//!
//! See `docs/LINTING.md` for the rule catalog, resolution limits, and
//! worked diagnostics. The `tagwatch-lint` binary wires this into CI:
//! `cargo run -p tagwatch-lint --release -- --deny`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;
pub mod workspace;

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

pub use graph::CallGraph;
pub use report::Analysis;
pub use rules::{analyze_source, AllowRecord, FileMeta, FileRole, Finding, RuleId};
pub use workspace::{discover, find_root, SourceFile};

/// Analyzes every non-vendored source file under `root`: the lexical
/// pass (d2 and the escapes), the call-graph taint pass, one combined
/// suppression step, and the stale-allow audit. Also returns the resolved call graph for the
/// `--graph-out` artifact.
///
/// # Errors
///
/// Propagates I/O errors from file discovery or reading.
pub fn analyze_workspace_full(root: &Path) -> io::Result<(Analysis, CallGraph)> {
    let files = discover(root)?;
    let mut analysis = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };
    let mut raw_findings: Vec<Finding> = Vec::new();
    let mut allow_lines_by_file: BTreeMap<String, rules::AllowLines> = BTreeMap::new();
    let mut parsed_files: Vec<(String, FileMeta, parser::ParsedFile)> = Vec::new();

    for file in &files {
        let src = std::fs::read_to_string(&file.path)?;
        let raw = rules::analyze_source_raw(&file.meta, &file.rel, &src);
        raw_findings.extend(raw.findings);
        analysis.allows.extend(raw.allows);
        allow_lines_by_file.insert(file.rel.clone(), raw.allow_lines);
        parsed_files.push((
            file.rel.clone(),
            file.meta.clone(),
            parser::parse_source(&src, &file.rel),
        ));
    }

    let graph = CallGraph::build(&parsed_files);
    raw_findings.extend(taint::check(&graph));

    // ---- stale-allow audit (against raw, pre-suppression findings) --
    for a in &analysis.allows {
        let live = raw_findings.iter().any(|f| {
            f.rule == a.rule && f.file == a.file && (f.line == a.line || f.line == a.line + 1)
        });
        if !live {
            raw_findings.push(Finding {
                rule: RuleId::AllowStale,
                file: a.file.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "lint:allow({}) is stale: the rule no longer fires on this line \
                     or the next — delete the escape",
                    a.rule.name()
                ),
                chain: Vec::new(),
            });
        }
    }

    // ---- one suppression step over lexical + graph findings ---------
    let mut findings = raw_findings;
    rules::apply_allows(&mut findings, |file, rule, line| {
        allow_lines_by_file
            .get(file)
            .and_then(|lines| lines.get(&rule))
            .is_some_and(|lines| lines.contains(&line))
    });
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.name()).cmp(&(&b.file, b.line, b.col, b.rule.name()))
    });
    analysis.findings = findings;
    Ok((analysis, graph))
}
