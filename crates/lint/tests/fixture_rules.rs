//! Fixture-driven rule tests: the lexer keeps string and comment text
//! out of the rules, `d2-float-format` fires on its violation fixture,
//! and the `lint:allow` escape behaves exactly as documented.
//!
//! The fixtures live under `tests/fixtures/{clean,violations}/` and are
//! deliberately excluded from the workspace walk (`workspace::discover`
//! skips them), so the violations never reach the CI gate. The
//! retired lexical rules' fixtures are a crate of their own under
//! `tests/fixtures/compiler/`, which CI runs clippy on.

#![forbid(unsafe_code)]

use std::path::Path;

use tagwatch_lint::parser::parse_source;
use tagwatch_lint::{analyze_source, FileMeta, FileRole, Finding, RuleId};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn meta(crate_name: &str) -> FileMeta {
    FileMeta {
        crate_name: crate_name.to_string(),
        role: FileRole::Src,
    }
}

fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

/// Runs the lexical pass in an export crate (the d2 scope) and the
/// parser that feeds d4 and c1, and asserts that neither sees any of
/// the rule-trigger text the fixture hides in literals and comments.
fn assert_inert(rel: &str) {
    let src = fixture(rel);
    let (findings, _) = analyze_source(&meta("obs"), rel, &src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    let parsed = parse_source(&src, "crates/obs/src/fixture.rs");
    for f in &parsed.fns {
        assert!(f.sources.is_empty(), "{}: {:?}", f.qual, f.sources);
        assert!(f.concurrency.is_empty(), "{}: {:?}", f.qual, f.concurrency);
    }
}

// ---- clean set ----------------------------------------------------

#[test]
fn raw_strings_are_inert() {
    assert_inert("clean/raw_strings.rs");
}

#[test]
fn nested_block_comments_are_inert() {
    assert_inert("clean/nested_comments.rs");
}

#[test]
fn allow_with_reason_suppresses_and_is_recorded() {
    let src = fixture("clean/allow_with_reason.rs");
    let (findings, allows) = analyze_source(&meta("obs"), "clean/allow_with_reason.rs", &src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    assert_eq!(allows.len(), 3, "all three escapes recorded: {allows:?}");
    assert!(allows.iter().all(|a| a.rule == RuleId::D2FloatFormat));
    assert!(
        allows.iter().all(|a| !a.reason.trim().is_empty()),
        "reasons survive parsing"
    );
}

// ---- violation set ------------------------------------------------

#[test]
fn d2_fires_on_adhoc_float_json() {
    let src = fixture("violations/float_json.rs");
    let (findings, _) = analyze_source(&meta("obs"), "violations/float_json.rs", &src);
    assert!(
        rules_of(&findings).contains(&RuleId::D2FloatFormat),
        "{findings:?}"
    );
}

#[test]
fn d2_is_out_of_scope_outside_export_crates() {
    let src = fixture("violations/float_json.rs");
    let (findings, _) = analyze_source(&meta("attack"), "violations/float_json.rs", &src);
    assert!(
        !rules_of(&findings).contains(&RuleId::D2FloatFormat),
        "attack does not build JSON exports: {findings:?}"
    );
}

#[test]
fn malformed_allows_suppress_nothing_and_are_reported() {
    let src = fixture("violations/allow_no_reason.rs");
    let (findings, allows) = analyze_source(&meta("obs"), "violations/allow_no_reason.rs", &src);
    let rules = rules_of(&findings);
    let d2 = rules
        .iter()
        .filter(|&&r| r == RuleId::D2FloatFormat)
        .count();
    let syntax = rules.iter().filter(|&&r| r == RuleId::AllowSyntax).count();
    assert_eq!(d2, 2, "both float specs still fire: {findings:?}");
    assert_eq!(syntax, 2, "empty reason + unknown rule: {findings:?}");
    assert!(allows.is_empty(), "malformed escapes are not recorded");
}

// ---- end-to-end: the real workspace stays clean -------------------

#[test]
fn workspace_is_clean_under_deny() {
    let root = tagwatch_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    let (analysis, _) = tagwatch_lint::analyze_workspace_full(&root).expect("analyzable workspace");
    assert!(
        analysis.is_clean(),
        "workspace has lint findings:\n{}",
        analysis.human()
    );
    // The digested report is byte-deterministic across runs.
    let (again, _) = tagwatch_lint::analyze_workspace_full(&root).expect("analyzable workspace");
    assert_eq!(analysis.to_json(), again.to_json());
}
