//! Fixture-driven tests for the v2 call-graph rules: each graph rule
//! must fire on its violation mini-workspace, stay silent on the clean
//! one, and honor the `lint:allow` escape; the call-graph artifact must
//! be byte-stable against a committed golden and across runs.
//!
//! Unlike the per-file fixtures in `fixture_rules.rs`, every scenario
//! here is a *directory* shaped like a tiny workspace
//! (`crates/<name>/{src,tests}`), because d4/c1/u1 only exist at
//! whole-workspace scope — the violations span files and crates.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use tagwatch_lint::{analyze_workspace_full, Analysis, CallGraph, Finding, RuleId};

fn scenario(name: &str) -> (Analysis, CallGraph) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph")
        .join(name);
    analyze_workspace_full(&root)
        .unwrap_or_else(|e| panic!("cannot analyze fixture workspace {name}: {e}"))
}

fn of_rule(analysis: &Analysis, rule: RuleId) -> Vec<&Finding> {
    analysis
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .collect()
}

// ---- d4-digest-taint ----------------------------------------------

#[test]
fn d4_fires_on_a_cross_file_source_with_the_full_chain() {
    let (analysis, _) = scenario("d4_violation");
    let d4 = of_rule(&analysis, RuleId::D4DigestTaint);
    assert_eq!(d4.len(), 1, "exactly the one sink: {:?}", analysis.findings);
    let f = d4[0];
    // Reported at the sink, where the fix belongs…
    assert_eq!(f.file, "crates/cli/src/export.rs");
    assert!(f.message.contains("cli::export::to_jsonl"), "{f:?}");
    assert!(f.message.contains("SystemTime"), "{f:?}");
    // …with the chain walking back to the source's file and line.
    assert_eq!(f.chain.len(), 2, "{f:?}");
    assert_eq!(f.chain[0], "cli::export::to_jsonl");
    assert!(f.chain[1].contains("cli::time::now_ms"), "{f:?}");
    assert!(
        f.chain[1].contains("SystemTime at crates/cli/src/time.rs:7"),
        "{f:?}"
    );
    // The rendered diagnostic carries the chain as note lines.
    let human = analysis.human();
    assert!(human.contains("note: call chain:"), "{human}");
    assert!(human.contains("-> cli::time::now_ms"), "{human}");
}

#[test]
fn d4_stays_silent_when_the_stamp_is_injected() {
    let (analysis, _) = scenario("d4_clean");
    assert!(
        analysis.is_clean(),
        "clean fixture has findings:\n{}",
        analysis.human()
    );
    assert!(analysis.allows.is_empty());
}

#[test]
fn d4_allow_on_the_sink_suppresses_and_registers_live() {
    let (analysis, _) = scenario("d4_allow");
    assert!(
        analysis.is_clean(),
        "escaped fixture still has findings:\n{}",
        analysis.human()
    );
    assert_eq!(analysis.allows.len(), 1);
    let a = &analysis.allows[0];
    assert_eq!(a.rule, RuleId::D4DigestTaint);
    assert!(a.reason.contains("stamped on purpose"), "{a:?}");
    // A *used* escape must not be reported stale.
    assert!(of_rule(&analysis, RuleId::AllowStale).is_empty());
}

// ---- c1-pool-discipline -------------------------------------------

#[test]
fn c1_fires_on_escaped_primitives() {
    let (analysis, _) = scenario("c1_violation");
    let c1 = of_rule(&analysis, RuleId::C1PoolDiscipline);
    assert_eq!(c1.len(), 1, "{:?}", analysis.findings);
    assert!(
        c1[0].message.contains("Mutex") && c1[0].message.contains("sim::guarded"),
        "{c1:?}"
    );
    // Nothing else fires: the fixture isolates the rule.
    assert_eq!(analysis.findings.len(), 1, "{:?}", analysis.findings);
}

// ---- u1-dead-pub --------------------------------------------------

#[test]
fn u1_names_the_dead_item_and_spares_the_live_one() {
    let (analysis, _) = scenario("u1_violation");
    let u1 = of_rule(&analysis, RuleId::U1DeadPub);
    assert_eq!(u1.len(), 1, "{:?}", analysis.findings);
    assert!(u1[0].message.contains("store::dead_api"), "{:?}", u1[0]);
    assert!(
        !analysis.human().contains("live_api"),
        "the example-called fn must not be flagged:\n{}",
        analysis.human()
    );
}

#[test]
fn u1_counts_no_test_as_a_caller() {
    let (analysis, _) = scenario("u1_test_callers");
    let u1 = of_rule(&analysis, RuleId::U1DeadPub);
    assert_eq!(u1.len(), 3, "{:?}", analysis.findings);
    // A tests/ file, a #[cfg(test)] module, and the benchmark's test
    // module name these three, and none of them is a caller.
    for dead in [
        "`store::integration_tested_api`",
        "`store::unit_tested_api`",
        "`store::bench_tested_api`",
    ] {
        assert!(
            u1.iter().any(|f| f.message.contains(dead)),
            "{dead}: {u1:?}"
        );
    }
    // An example and the benchmark's own code are callers.
    let human = analysis.human();
    for live in ["`store::example_api`", "`store::bench_api`"] {
        assert!(!human.contains(live), "{live} flagged:\n{human}");
    }
}

#[test]
fn u1_counts_the_benchmark_package_as_a_caller() {
    let (analysis, _) = scenario("u1_benchmark_caller");
    let u1 = of_rule(&analysis, RuleId::U1DeadPub);
    assert_eq!(u1.len(), 1, "{:?}", analysis.findings);
    assert!(u1[0].message.contains("store::dead_api"), "{:?}", u1[0]);
    assert!(
        !analysis.human().contains("bench_only_api"),
        "the benchmark-called fn must not be flagged:\n{}",
        analysis.human()
    );
}

// ---- stale-allow audit --------------------------------------------

#[test]
fn a_fixed_violation_turns_its_escape_stale() {
    let (analysis, _) = scenario("stale_allow");
    let stale = of_rule(&analysis, RuleId::AllowStale);
    assert_eq!(stale.len(), 1, "{:?}", analysis.findings);
    assert_eq!(stale[0].file, "crates/core/src/lib.rs");
    assert_eq!(stale[0].line, 6, "reported on the escape itself");
    assert!(of_rule(&analysis, RuleId::U1DeadPub).is_empty());
    // The escape is still *recorded* (the audit lists it as STALE).
    assert_eq!(analysis.allows.len(), 1);
}

// ---- call-graph artifact ------------------------------------------

#[test]
fn graph_artifact_matches_the_committed_golden_byte_for_byte() {
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph/d4_violation.graph.json");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path.display()));
    let (_, graph) = scenario("d4_violation");
    assert_eq!(
        graph.to_json(),
        golden,
        "graph artifact drifted from the golden; if the schema change is \
         intentional, regenerate with `tagwatch-lint --root <fixture> --graph-out`"
    );
}

#[test]
fn graph_artifact_is_identical_across_runs() {
    let (_, first) = scenario("d4_violation");
    let (_, second) = scenario("d4_violation");
    assert_eq!(first.to_json(), second.to_json());
}

#[test]
fn real_workspace_graph_is_identical_across_runs() {
    let root = tagwatch_lint::find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    let (_, first) = analyze_workspace_full(&root).expect("analyzable workspace");
    let (_, second) = analyze_workspace_full(&root).expect("analyzable workspace");
    assert_eq!(first.to_json(), second.to_json());
    assert!(first
        .to_json()
        .contains("\"schema\": \"tagwatch-lint-graph/v1\""));
}
