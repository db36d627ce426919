//! Fixture-driven rule tests: every rule must fire on its violation
//! fixture and stay silent on the clean set, and the `lint:allow`
//! escape must behave exactly as documented.
//!
//! The fixtures live under `tests/fixtures/{clean,violations}/` and are
//! deliberately excluded from the workspace walk (`workspace::discover`
//! skips them), so the violations never reach the CI gate.

#![forbid(unsafe_code)]

use std::path::Path;

use tagwatch_lint::{analyze_source, FileMeta, FileRole, Finding, RuleId};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn meta(crate_name: &str, is_crate_root: bool) -> FileMeta {
    FileMeta {
        crate_name: crate_name.to_string(),
        role: FileRole::Src,
        is_crate_root,
    }
}

fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

// ---- clean set ----------------------------------------------------

#[test]
fn raw_strings_are_inert() {
    let src = fixture("clean/raw_strings.rs");
    let (findings, _) = analyze_source(&meta("core", false), "clean/raw_strings.rs", &src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn nested_block_comments_are_inert() {
    let src = fixture("clean/nested_comments.rs");
    let (findings, _) = analyze_source(&meta("core", false), "clean/nested_comments.rs", &src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn cfg_test_scopes_exempt_panics() {
    let src = fixture("clean/cfg_test_scoped.rs");
    let (findings, _) = analyze_source(&meta("core", false), "clean/cfg_test_scoped.rs", &src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn allow_with_reason_suppresses_and_is_recorded() {
    let src = fixture("clean/allow_with_reason.rs");
    let (findings, allows) =
        analyze_source(&meta("sim", false), "clean/allow_with_reason.rs", &src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    assert_eq!(allows.len(), 3, "all three escapes recorded: {allows:?}");
    assert!(allows.iter().any(|a| a.rule == RuleId::S2Panic));
    assert!(
        allows.iter().all(|a| !a.reason.trim().is_empty()),
        "reasons survive parsing"
    );
}

// ---- violation set ------------------------------------------------

#[test]
fn s2_fires_on_every_panic_path() {
    let src = fixture("violations/panics.rs");
    let (findings, _) = analyze_source(&meta("core", false), "violations/panics.rs", &src);
    let s2 = rules_of(&findings)
        .iter()
        .filter(|&&r| r == RuleId::S2Panic)
        .count();
    assert_eq!(s2, 4, "unwrap + expect + panic! + todo!: {findings:?}");
}

#[test]
fn s2_is_out_of_scope_for_non_library_crates() {
    let src = fixture("violations/panics.rs");
    let (findings, _) = analyze_source(&meta("bench", false), "violations/panics.rs", &src);
    assert!(
        findings.is_empty(),
        "bench is not a library crate: {findings:?}"
    );
}

#[test]
fn d1_fires_on_clocks_rngs_and_unordered_maps() {
    let src = fixture("violations/nondet.rs");
    let (findings, _) = analyze_source(&meta("core", false), "violations/nondet.rs", &src);
    let d1 = rules_of(&findings)
        .iter()
        .filter(|&&r| r == RuleId::D1Nondeterminism)
        .count();
    assert!(d1 >= 3, "Instant::now + SystemTime + HashMap: {findings:?}");
}

#[test]
fn d2_fires_on_adhoc_float_json() {
    let src = fixture("violations/float_json.rs");
    let (findings, _) = analyze_source(&meta("obs", false), "violations/float_json.rs", &src);
    assert!(
        rules_of(&findings).contains(&RuleId::D2FloatFormat),
        "{findings:?}"
    );
}

#[test]
fn d2_is_out_of_scope_outside_export_crates() {
    let src = fixture("violations/float_json.rs");
    let (findings, _) = analyze_source(&meta("attack", false), "violations/float_json.rs", &src);
    assert!(
        !rules_of(&findings).contains(&RuleId::D2FloatFormat),
        "attack does not build JSON exports: {findings:?}"
    );
}

#[test]
fn s1_fires_on_crate_root_without_forbid() {
    let src = fixture("violations/missing_forbid.rs");
    let (findings, _) = analyze_source(&meta("core", true), "violations/missing_forbid.rs", &src);
    assert!(
        rules_of(&findings).contains(&RuleId::S1Unsafe),
        "{findings:?}"
    );
    // Same file as a non-root module is fine.
    let (findings, _) = analyze_source(&meta("core", false), "violations/missing_forbid.rs", &src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn malformed_allows_suppress_nothing_and_are_reported() {
    let src = fixture("violations/allow_no_reason.rs");
    let (findings, allows) =
        analyze_source(&meta("core", false), "violations/allow_no_reason.rs", &src);
    let rules = rules_of(&findings);
    let s2 = rules.iter().filter(|&&r| r == RuleId::S2Panic).count();
    let syntax = rules.iter().filter(|&&r| r == RuleId::AllowSyntax).count();
    assert_eq!(s2, 2, "both unwraps still fire: {findings:?}");
    assert_eq!(syntax, 2, "empty reason + unknown rule: {findings:?}");
    assert!(allows.is_empty(), "malformed escapes are not recorded");
}

#[test]
fn s4_fires_on_every_disk_touch_in_library_code() {
    let src = fixture("violations/disk_io.rs");
    let (findings, _) = analyze_source(&meta("analytics", false), "violations/disk_io.rs", &src);
    let s4 = rules_of(&findings)
        .iter()
        .filter(|&&r| r == RuleId::S4Io)
        .count();
    assert!(
        s4 >= 7,
        "use/fs::write/OpenOptions/std::fs::read/File:: all fire: {findings:?}"
    );
    assert!(
        findings.iter().all(|f| f.rule == RuleId::S4Io),
        "nothing else in the fixture trips: {findings:?}"
    );
}

#[test]
fn s4_is_out_of_scope_for_cli_and_exempts_store_io() {
    let src = fixture("violations/disk_io.rs");
    let (findings, _) = analyze_source(&meta("cli", false), "violations/disk_io.rs", &src);
    assert!(
        findings.is_empty(),
        "the CLI layer owns user-facing file I/O: {findings:?}"
    );
    let (findings, _) = analyze_source(&meta("store", false), "crates/store/src/io.rs", &src);
    assert!(
        !rules_of(&findings).contains(&RuleId::S4Io),
        "store/src/io.rs is the designated touchpoint: {findings:?}"
    );
    let (findings, _) = analyze_source(&meta("store", false), "crates/store/src/wal.rs", &src);
    assert!(
        rules_of(&findings).contains(&RuleId::S4Io),
        "the rest of the store crate is in scope: {findings:?}"
    );
}

#[test]
fn s3_fires_on_undocumented_public_items() {
    let src = fixture("violations/undoc_pub.rs");
    let (findings, _) = analyze_source(&meta("core", false), "violations/undoc_pub.rs", &src);
    let s3 = rules_of(&findings)
        .iter()
        .filter(|&&r| r == RuleId::S3Doc)
        .count();
    assert_eq!(s3, 2, "undocumented fn + struct: {findings:?}");
    // Outside the doc-crates set the same file passes.
    let (findings, _) = analyze_source(&meta("sim", false), "violations/undoc_pub.rs", &src);
    assert!(
        !rules_of(&findings).contains(&RuleId::S3Doc),
        "{findings:?}"
    );
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
