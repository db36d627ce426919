//! The reachability/taint engine: the three call-graph rule families
//! evaluated over [`crate::graph::CallGraph`].
//!
//! * **`d4-digest-taint`** — every digest/export *sink* (direct
//!   callers of the FNV-1a primitive, plus the named serializers:
//!   JSON report writers, the WAL record writer, the checkpoint
//!   serializer, the Prometheus text exporter, span/flight JSONL
//!   writers) is BFS-walked through its callees; reaching a function
//!   containing a nondeterminism *source* token (wall clock, unseeded
//!   RNG, scheduler identity, env reads, unordered hash iteration) is
//!   a violation, reported at the sink with the full call chain.
//! * **`c1-pool-discipline`** — concurrency primitives (`Mutex`/
//!   `RwLock`/`Condvar`/`mpsc`/`Atomic*`/`thread::spawn`/
//!   `thread::scope`) are confined to the designated pool modules, and
//!   the merge path reachable from `PooledEngine`'s methods must itself
//!   be taint-clean.
//! * **`u1-dead-pub`** — a `pub` item whose name no non-test code
//!   references (outside its own declaration, `use` statements, and
//!   `impl` headers) is dead API: a test is not a caller.
//!
//! Scoping: test code (both `#[cfg(test)]` regions and non-`Src`
//! files) is exempt from d4 and the c1 confinement check; the `bench`
//! crate is exempt from d4 because it measures wall time by design
//! (its check digests hash only tick counts, which PR 8 pins); the
//! lint crate's own report digesting participates like everyone
//! else's.

use crate::graph::CallGraph;
use crate::rules::{Finding, RuleId};

/// Files allowed to contain concurrency primitives: the persistent
/// worker pool and the scoped fan-out helper.
const DESIGNATED_CONCURRENCY_FILES: [&str; 2] = [
    "crates/analytics/src/parallel.rs",
    "crates/analytics/src/pool.rs",
];

/// Qualified-path suffixes that are digest/export sinks even when
/// they do not call the FNV primitive directly. Each must name a
/// non-test fn of the workspace; a test checks that it does.
const SINK_SUFFIXES: [&str; 5] = [
    "to_prometheus_text",
    "to_jsonl",
    "to_json",
    "CheckpointDoc::to_bytes",
    "WalWriter::append",
];

/// Names of the FNV-1a digest primitives; any direct caller is a sink.
const DIGEST_PRIMITIVES: [&str; 1] = ["fnv1a_lines"];

/// Runs every call-graph rule. Findings come back unsorted and
/// unsuppressed; the workspace pass merges, suppresses, and sorts.
#[must_use]
pub fn check(graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_d4(graph, &mut findings);
    check_c1(graph, &mut findings);
    check_u1(graph, &mut findings);
    findings
}

/// Whether fn `i` is exempt from taint walks (test code, bench crate).
fn taint_exempt(graph: &CallGraph, i: usize) -> bool {
    let f = &graph.fns[i];
    f.in_test || f.crate_name == "bench"
}

/// The sink set for d4: direct FNV callers plus the named serializers.
fn sink_ids(graph: &CallGraph) -> Vec<usize> {
    let mut sinks: Vec<usize> = Vec::new();
    let primitive_ids: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| DIGEST_PRIMITIVES.contains(&f.name.as_str()))
        .map(|(i, _)| i)
        .collect();
    for &(a, b) in &graph.edges {
        if primitive_ids.contains(&b) && !primitive_ids.contains(&a) {
            sinks.push(a);
        }
    }
    for suffix in SINK_SUFFIXES {
        sinks.extend(graph.find_by_suffix(suffix));
    }
    sinks.retain(|&i| !taint_exempt(graph, i));
    sinks.sort_unstable();
    sinks.dedup();
    sinks
}

/// Walks callees from `sink`; on the first reachable function carrying
/// a source token, returns the finding with the full chain.
fn taint_walk(graph: &CallGraph, sink: usize, rule: RuleId, context: &str) -> Option<Finding> {
    let (visited, parent) = graph.bfs(sink);
    // Deterministic pick: the lowest-id tainted node (node ids are
    // stable because they are assigned after sorting by path).
    let hit = (0..graph.fns.len())
        .find(|&i| visited[i] && !graph.fns[i].sources.is_empty() && !taint_exempt(graph, i))?;
    let mut chain = graph.chain(&parent, hit);
    let src = &graph.fns[hit].sources[0];
    if let Some(last) = chain.last_mut() {
        *last = format!(
            "{last} [{} at {}:{}]",
            src.what, graph.fns[hit].file, src.line
        );
    }
    let sink_fn = &graph.fns[sink];
    Some(Finding {
        rule,
        file: sink_fn.file.clone(),
        line: sink_fn.line,
        col: sink_fn.col,
        message: format!(
            "{context}`{}` can reach nondeterminism source `{}` (in `{}`) — the \
             digested bytes are no longer a pure function of the seed",
            sink_fn.qual, src.what, graph.fns[hit].qual
        ),
        chain,
    })
}

/// d4-digest-taint: no sink reaches a source.
fn check_d4(graph: &CallGraph, findings: &mut Vec<Finding>) {
    for sink in sink_ids(graph) {
        if let Some(f) = taint_walk(graph, sink, RuleId::D4DigestTaint, "digest sink ") {
            findings.push(f);
        }
    }
}

/// c1-pool-discipline: primitive confinement, PooledEngine merge-path
/// purity.
fn check_c1(graph: &CallGraph, findings: &mut Vec<Finding>) {
    for f in &graph.fns {
        if f.in_test || f.concurrency.is_empty() {
            continue;
        }
        if DESIGNATED_CONCURRENCY_FILES.contains(&f.file.as_str()) {
            continue;
        }
        let tokens: Vec<&str> = f.concurrency.iter().map(|c| c.what.as_str()).collect();
        findings.push(Finding {
            rule: RuleId::C1PoolDiscipline,
            file: f.file.clone(),
            line: f.concurrency[0].line,
            col: 1,
            message: format!(
                "concurrency primitive(s) {} in `{}`: threading lives only in \
                 analytics::pool and analytics::parallel so the deterministic \
                 merge contract stays in one audited place",
                tokens.join("/"),
                f.qual
            ),
            chain: Vec::new(),
        });
    }
    // Merge paths reachable from PooledEngine must be taint-clean.
    let mut engine_roots: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test && f.qual.contains("::PooledEngine::"))
        .map(|(i, _)| i)
        .collect();
    engine_roots.sort_unstable();
    for root in engine_roots {
        if let Some(f) = taint_walk(
            graph,
            root,
            RuleId::C1PoolDiscipline,
            "PooledEngine merge path ",
        ) {
            findings.push(f);
        }
    }
}

/// u1-dead-pub: pub items that no non-test code references.
fn check_u1(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let refcount = |name: &str| graph.refs.get(name).copied().unwrap_or(0);
    for f in &graph.fns {
        if !f.is_pub || f.in_test || f.name == "main" {
            continue;
        }
        if refcount(&f.name) == 0 {
            findings.push(Finding {
                rule: RuleId::U1DeadPub,
                file: f.file.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "pub fn `{}` has no caller outside tests (no library, bin, \
                     example, or benchmark code names it) — delete it",
                    f.qual
                ),
                chain: Vec::new(),
            });
        }
    }
    for t in &graph.types {
        if !t.is_pub || t.in_test {
            continue;
        }
        if refcount(&t.name) == 0 {
            findings.push(Finding {
                rule: RuleId::U1DeadPub,
                file: t.file.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "pub {} `{}` has no user outside tests — delete it",
                    t.kind.keyword(),
                    t.qual
                ),
                chain: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use crate::parser::{parse_source, ParsedFile};
    use crate::rules::{FileMeta, FileRole};

    fn build(files: &[(&str, &str, &str)]) -> CallGraph {
        let parsed: Vec<(String, FileMeta, ParsedFile)> = files
            .iter()
            .map(|(rel, crate_name, src)| {
                (
                    (*rel).to_string(),
                    FileMeta {
                        crate_name: (*crate_name).to_string(),
                        role: FileRole::Src,
                    },
                    parse_source(src, rel),
                )
            })
            .collect();
        CallGraph::build(&parsed)
    }

    #[test]
    fn d4_reports_a_transitive_chain_to_the_source() {
        let g = build(&[
            (
                "crates/obs/src/export.rs",
                "obs",
                "pub fn fnv1a_lines(_l: &[&str]) -> u64 { 0 }\n",
            ),
            (
                "crates/analytics/src/rep.rs",
                "analytics",
                "use tagwatch_obs::fnv1a_lines;\n\
                 pub fn report() -> u64 { let _ = stamp(); fnv1a_lines(&[\"x\"]) }\n\
                 fn stamp() -> u64 { middle() }\n\
                 fn middle() -> u64 { let _t = std::time::Instant::now(); 7 }\n",
            ),
        ]);
        let findings = check(&g);
        let d4: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == RuleId::D4DigestTaint)
            .collect();
        assert_eq!(d4.len(), 1, "{findings:?}");
        let f = d4[0];
        assert_eq!(f.file, "crates/analytics/src/rep.rs");
        assert_eq!(
            f.chain,
            [
                "analytics::rep::report".to_string(),
                "analytics::rep::stamp".to_string(),
                "analytics::rep::middle [Instant::now at crates/analytics/src/rep.rs:4]"
                    .to_string(),
            ]
        );
    }

    #[test]
    fn d4_is_quiet_on_a_pure_sink() {
        let g = build(&[(
            "crates/obs/src/export.rs",
            "obs",
            "pub fn fnv1a_lines(_l: &[&str]) -> u64 { 0 }\n\
             pub fn digest_all() -> u64 { fnv1a_lines(&[\"a\"]) }\n",
        )]);
        assert!(check(&g).iter().all(|f| f.rule != RuleId::D4DigestTaint));
    }

    #[test]
    fn c1_flags_stray_primitives() {
        let g = build(&[(
            "crates/sim/src/bad.rs",
            "sim",
            "pub fn fan_out() { let (_tx, _rx) = std::sync::mpsc::channel::<u32>(); }\n",
        )]);
        let findings = check(&g);
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::C1PoolDiscipline && f.message.contains("mpsc")));
    }

    #[test]
    fn c1_permits_primitives_in_the_designated_modules() {
        let g = build(&[(
            "crates/analytics/src/pool.rs",
            "analytics",
            "pub fn topology() { let (_tx, _rx) = std::sync::mpsc::channel::<u32>(); }\n",
        )]);
        assert!(check(&g).iter().all(|f| f.rule != RuleId::C1PoolDiscipline));
    }

    #[test]
    fn u1_flags_unreferenced_pub_items_only() {
        // A `#[cfg(test)]` reference is not a caller.
        let g = build(&[(
            "crates/core/src/api.rs",
            "core",
            "pub fn orphan() {}\npub fn used() {}\npub fn only_tested() {}\n\
             fn caller() { used(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { super::used(); super::only_tested(); }\n}\n",
        )]);
        let findings = check(&g);
        let mut dead: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == RuleId::U1DeadPub)
            .map(|f| f.message.as_str())
            .collect();
        dead.sort_unstable();
        assert_eq!(dead.len(), 2, "{dead:?}");
        assert!(dead[0].contains("core::api::only_tested"), "{dead:?}");
        assert!(dead[1].contains("core::api::orphan"), "{dead:?}");
    }

    #[test]
    fn every_named_sink_resolves_to_live_workspace_code() {
        let root = crate::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above the lint crate");
        let (_, graph) = crate::analyze_workspace_full(&root).expect("analyzable workspace");
        let live = |ids: Vec<usize>| ids.into_iter().any(|i| !taint_exempt(&graph, i));
        for suffix in SINK_SUFFIXES {
            assert!(
                live(graph.find_by_suffix(suffix)),
                "sink `{suffix}` names no live fn"
            );
        }
        for name in DIGEST_PRIMITIVES {
            assert!(
                live(graph.find_by_suffix(name)),
                "primitive `{name}` names no live fn"
            );
        }
    }
}
