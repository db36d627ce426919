//! Workspace symbol table and conservative call graph.
//!
//! Built from the per-file [`crate::parser::ParsedFile`] extractions,
//! this module resolves call candidates against every function the
//! workspace defines and produces the adjacency structure the taint
//! engine walks. Resolution is deliberately *over*-approximate — a
//! method call `.merge(…)` gets an edge to every workspace method
//! named `merge` — because for determinism proofs a spurious edge can
//! only cause a false alarm (annotate it away), while a missing edge
//! would silently un-prove the digest-purity guarantee.
//!
//! Resolution order for a call candidate, first hit wins:
//!
//! 1. **Method calls** (`x.name(…)`): every `impl`-block function of
//!    that name, workspace-wide.
//! 2. **Bare calls** (`name(…)`): a function of that name in the
//!    caller's own module, else the target of a `use` import of that
//!    name.
//! 3. **Path calls** (`a::b::name(…)`): the first segment is expanded
//!    (`crate`/`self`/`super`, `use` aliases, `tagwatch_*` crate
//!    names), then matched exactly against qualified paths, then by
//!    path-suffix (`RoundScratch::new` matches
//!    `core::engine::RoundScratch::new`).
//!
//! Calls that resolve to nothing but start with a workspace crate
//! root are counted as *unresolved* (surfaced in the `--graph-out`
//! artifact); everything else is external (`std`, vendored) and
//! ignored. The artifact is deterministic: node ids are assigned
//! after sorting by qualified path, file, and line, and the JSON is
//! digested with the same FNV-1a helper as every other export.

use std::collections::{BTreeMap, BTreeSet};

use tagwatch_obs::{fnv1a_lines, json_escape};

use crate::parser::{ParsedFile, SourceHit, TypeKind};
use crate::rules::{FileMeta, FileRole};

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Fully qualified path (`analytics::pool::PooledEngine::new`).
    pub qual: String,
    /// Bare name.
    pub name: String,
    /// Module path (qualified path minus type and name segments).
    pub module: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Crate directory name.
    pub crate_name: String,
    /// `pub` without restriction.
    pub is_pub: bool,
    /// Defined in an `impl`/trait block.
    pub is_method: bool,
    /// In test code: `#[cfg(test)]` regions, or any file whose role is
    /// not `Src` (integration tests, examples, fixtures).
    pub in_test: bool,
    /// Nondeterminism-source tokens in the body.
    pub sources: Vec<SourceHit>,
    /// Concurrency-primitive tokens in the body.
    pub concurrency: Vec<SourceHit>,
}

/// One non-function item (for the dead-API rule).
#[derive(Debug, Clone)]
pub struct TypeNode {
    /// Fully qualified path.
    pub qual: String,
    /// Bare name.
    pub name: String,
    /// Declaration keyword kind.
    pub kind: TypeKind,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Crate directory name.
    pub crate_name: String,
    /// `pub` without restriction.
    pub is_pub: bool,
    /// In test code.
    pub in_test: bool,
}

/// The resolved workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Function nodes, sorted by (qual, file, line); the index is the
    /// node id used in `edges`.
    pub fns: Vec<FnNode>,
    /// Caller → callee edges, sorted and deduplicated.
    pub edges: Vec<(usize, usize)>,
    /// Successor lists derived from `edges`.
    pub succ: Vec<Vec<usize>>,
    /// Non-function items, sorted like `fns`.
    pub types: Vec<TypeNode>,
    /// Identifier reference counts over non-test code: `src/` outside
    /// `#[cfg(test)]`, bins, examples and `benchmark/src` (declaration
    /// name tokens, `use` statements, and `impl` headers excluded).
    pub refs: BTreeMap<String, u32>,
    /// Unresolved workspace-rooted calls: (caller id, path, line).
    pub unresolved: Vec<(usize, String, u32)>,
}

/// Workspace crate directory names (roots of qualified paths).
const WORKSPACE_CRATES: [&str; 11] = [
    "core",
    "protocols",
    "sim",
    "analytics",
    "attack",
    "obs",
    "store",
    "bench",
    "cli",
    "lint",
    "tagwatch",
];

impl CallGraph {
    /// Builds the graph from per-file parser output. Each entry is
    /// (workspace-relative path, file classification, parsed items).
    #[must_use]
    pub fn build(files: &[(String, FileMeta, ParsedFile)]) -> CallGraph {
        let mut g = CallGraph::default();

        // ---- nodes ------------------------------------------------
        for (rel, meta, parsed) in files {
            let nonsrc = meta.role != FileRole::Src;
            for f in &parsed.fns {
                let module = module_of(&f.qual, f.is_method);
                g.fns.push(FnNode {
                    qual: f.qual.clone(),
                    name: f.name.clone(),
                    module,
                    file: rel.clone(),
                    line: f.line,
                    col: f.col,
                    crate_name: meta.crate_name.clone(),
                    is_pub: f.is_pub,
                    is_method: f.is_method,
                    in_test: f.in_test || nonsrc,
                    sources: f.sources.clone(),
                    concurrency: f.concurrency.clone(),
                });
            }
            for t in &parsed.types {
                g.types.push(TypeNode {
                    qual: t.qual.clone(),
                    name: t.name.clone(),
                    kind: t.kind,
                    file: rel.clone(),
                    line: t.line,
                    col: t.col,
                    crate_name: meta.crate_name.clone(),
                    is_pub: t.is_pub,
                    in_test: t.in_test || nonsrc,
                });
            }
            if meta.role != FileRole::Test {
                for (name, count) in &parsed.refs {
                    *g.refs.entry(name.clone()).or_insert(0) += count;
                }
            }
        }
        g.fns
            .sort_by(|a, b| (&a.qual, &a.file, a.line).cmp(&(&b.qual, &b.file, b.line)));
        g.types
            .sort_by(|a, b| (&a.qual, &a.file, a.line).cmp(&(&b.qual, &b.file, b.line)));

        // ---- indexes ----------------------------------------------
        let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_module_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in g.fns.iter().enumerate() {
            by_qual.entry(&f.qual).or_default().push(i);
            if f.is_method {
                methods_by_name.entry(&f.name).or_default().push(i);
            } else {
                by_module_name
                    .entry((&f.module, &f.name))
                    .or_default()
                    .push(i);
            }
        }
        // Suffix matching scans all fns; precompute split paths once.
        let split: Vec<Vec<&str>> = g.fns.iter().map(|f| f.qual.split("::").collect()).collect();

        // ---- edges ------------------------------------------------
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut unresolved: Vec<(usize, String, u32)> = Vec::new();
        for (rel, meta, parsed) in files {
            for f in &parsed.fns {
                // Find this fn's node id (qual + file + line is unique).
                let Some(&from) = by_qual.get(f.qual.as_str()).and_then(|ids| {
                    ids.iter()
                        .find(|&&i| g.fns[i].file == *rel && g.fns[i].line == f.line)
                }) else {
                    continue;
                };
                for call in &f.calls {
                    let targets = resolve(
                        call.method,
                        &call.path,
                        &g.fns[from],
                        &parsed.imports,
                        &by_qual,
                        &methods_by_name,
                        &by_module_name,
                        &split,
                    );
                    match targets {
                        Resolution::Hits(ids) => {
                            for to in ids {
                                if to != from {
                                    edges.insert((from, to));
                                }
                            }
                        }
                        Resolution::Unresolved(path) => {
                            unresolved.push((from, path, call.line));
                        }
                        Resolution::External => {}
                    }
                }
                let _ = meta;
            }
        }
        g.edges = edges.into_iter().collect();
        g.unresolved = unresolved;
        g.unresolved.sort();
        g.unresolved.dedup();
        g.succ = vec![Vec::new(); g.fns.len()];
        for &(a, b) in &g.edges {
            g.succ[a].push(b);
        }
        g
    }

    /// Node ids of functions whose qualified path ends with the given
    /// `::`-separated suffix (segment-aligned).
    #[must_use]
    pub fn find_by_suffix(&self, suffix: &str) -> Vec<usize> {
        let want: Vec<&str> = suffix.split("::").collect();
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                let have: Vec<&str> = f.qual.split("::").collect();
                have.len() >= want.len() && have[have.len() - want.len()..] == want[..]
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS over successors from `start`, returning the parent map for
    /// chain reconstruction (`parent[i] == usize::MAX` for the root or
    /// unvisited nodes; check `visited`).
    #[must_use]
    pub fn bfs(&self, start: usize) -> (Vec<bool>, Vec<usize>) {
        let n = self.fns.len();
        let mut visited = vec![false; n];
        let mut parent = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in &self.succ[u] {
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        (visited, parent)
    }

    /// The call chain `start → … → end` as qualified paths, using the
    /// parent map from [`CallGraph::bfs`].
    #[must_use]
    pub fn chain(&self, parent: &[usize], end: usize) -> Vec<String> {
        let mut rev = vec![end];
        let mut cur = end;
        while parent[cur] != usize::MAX {
            cur = parent[cur];
            rev.push(cur);
        }
        rev.reverse();
        rev.into_iter().map(|i| self.fns[i].qual.clone()).collect()
    }

    /// The deterministic JSON call-graph artifact (`--graph-out`):
    /// fixed field order, adjacency grouped per caller, FNV-digested
    /// like every other export in the workspace.
    #[must_use]
    pub fn to_json(&self) -> String {
        let lines = self.body_lines();
        let digest = fnv1a_lines(lines.iter());
        let mut out = String::new();
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!("  \"digest\": \"fnv64:{digest:016x}\"\n}}\n"));
        out
    }

    fn body_lines(&self) -> Vec<String> {
        let mut lines = vec![
            "{".to_string(),
            "  \"schema\": \"tagwatch-lint-graph/v1\",".to_string(),
            format!("  \"fn_count\": {},", self.fns.len()),
            format!("  \"edge_count\": {},", self.edges.len()),
            format!("  \"type_count\": {},", self.types.len()),
            format!("  \"unresolved_count\": {},", self.unresolved.len()),
            "  \"fns\": [".to_string(),
        ];
        for (i, f) in self.fns.iter().enumerate() {
            let comma = if i + 1 < self.fns.len() { "," } else { "" };
            let sources: Vec<String> = f
                .sources
                .iter()
                .map(|s| format!("\"{}@{}\"", json_escape(&s.what), s.line))
                .collect();
            let concurrency: Vec<String> = f
                .concurrency
                .iter()
                .map(|s| format!("\"{}@{}\"", json_escape(&s.what), s.line))
                .collect();
            lines.push(format!(
                "    {{\"id\": {i}, \"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \
                 \"pub\": {}, \"method\": {}, \"test\": {}, \"sources\": [{}], \
                 \"concurrency\": [{}]}}{comma}",
                json_escape(&f.qual),
                json_escape(&f.file),
                f.line,
                f.is_pub,
                f.is_method,
                f.in_test,
                sources.join(", "),
                concurrency.join(", "),
            ));
        }
        lines.push("  ],".to_string());
        lines.push("  \"calls\": [".to_string());
        let mut grouped: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(a, b) in &self.edges {
            grouped.entry(a).or_default().push(b);
        }
        let total = grouped.len();
        for (i, (from, tos)) in grouped.iter().enumerate() {
            let comma = if i + 1 < total { "," } else { "" };
            let tos: Vec<String> = tos.iter().map(ToString::to_string).collect();
            lines.push(format!(
                "    {{\"from\": {from}, \"to\": [{}]}}{comma}",
                tos.join(", ")
            ));
        }
        lines.push("  ],".to_string());
        lines
    }
}

/// A call candidate's resolution outcome.
enum Resolution {
    Hits(Vec<usize>),
    Unresolved(String),
    External,
}

/// The module path of a qualified fn path: strips the name, and the
/// type segment for methods.
fn module_of(qual: &str, is_method: bool) -> String {
    let segs: Vec<&str> = qual.split("::").collect();
    let drop = if is_method { 2 } else { 1 };
    let keep = segs.len().saturating_sub(drop).max(1);
    segs[..keep].join("::")
}

#[expect(
    clippy::too_many_arguments,
    reason = "the caller's indexes are borrowed once per build and passed down unbundled"
)]
fn resolve(
    method: bool,
    path: &[String],
    caller: &FnNode,
    imports: &BTreeMap<String, Vec<String>>,
    by_qual: &BTreeMap<&str, Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    by_module_name: &BTreeMap<(&str, &str), Vec<usize>>,
    split: &[Vec<&str>],
) -> Resolution {
    if method {
        let name = path.last().map(String::as_str).unwrap_or_default();
        return match methods_by_name.get(name) {
            Some(ids) => Resolution::Hits(ids.clone()),
            None => Resolution::External,
        };
    }
    if path.len() == 1 {
        let name = path[0].as_str();
        if let Some(ids) = by_module_name.get(&(caller.module.as_str(), name)) {
            return Resolution::Hits(ids.clone());
        }
        if let Some(full) = imports.get(name) {
            return resolve_expanded(&expand_first(full, caller), by_qual, split);
        }
        // Locals, closures, std preludes — external.
        return Resolution::External;
    }
    // Multi-segment: splice imports of the first segment, then expand
    // `crate`/`self`/`super`/crate aliases.
    let mut full: Vec<String> = path.to_vec();
    if let Some(mapped) = imports.get(&full[0]) {
        let mut spliced = mapped.clone();
        spliced.extend(full[1..].iter().cloned());
        full = spliced;
    }
    resolve_expanded(&expand_first(&full, caller), by_qual, split)
}

/// Expands the first path segment against the caller's position:
/// `crate` → crate root, `self` → module, `super` → parent module,
/// `tagwatch_x` → `x`.
fn expand_first(path: &[String], caller: &FnNode) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    match path.first().map(String::as_str) {
        Some("crate") => out.push(caller.crate_name.clone()),
        Some("self") => out.extend(caller.module.split("::").map(str::to_string)),
        Some("super") => {
            let segs: Vec<&str> = caller.module.split("::").collect();
            let keep = segs.len().saturating_sub(1).max(1);
            out.extend(segs[..keep].iter().map(|s| (*s).to_string()));
        }
        Some(first) => match crate::parser::crate_alias(first) {
            Some(root) => out.push(root),
            None => out.push(first.to_string()),
        },
        None => {}
    }
    out.extend(path.iter().skip(1).cloned());
    out
}

/// Exact-qual match, then segment-aligned suffix match, then
/// unresolved-vs-external classification.
fn resolve_expanded(
    full: &[String],
    by_qual: &BTreeMap<&str, Vec<usize>>,
    split: &[Vec<&str>],
) -> Resolution {
    let joined = full.join("::");
    if let Some(ids) = by_qual.get(joined.as_str()) {
        return Resolution::Hits(ids.clone());
    }
    let want: Vec<&str> = full.iter().map(String::as_str).collect();
    let hits: Vec<usize> = split
        .iter()
        .enumerate()
        .filter(|(_, have)| have.len() >= want.len() && have[have.len() - want.len()..] == want[..])
        .map(|(i, _)| i)
        .collect();
    if !hits.is_empty() {
        return Resolution::Hits(hits);
    }
    // Re-export hop: `tagwatch_obs::fnv1a_lines` is written against
    // the crate facade (`pub use export::fnv1a_lines`), but the
    // definition lives at `obs::export::fnv1a_lines`. Match the crate
    // root exactly and the remaining segments as a suffix.
    if want.len() >= 2 {
        let (root, rest) = (want[0], &want[1..]);
        let hits: Vec<usize> = split
            .iter()
            .enumerate()
            .filter(|(_, have)| {
                have.first() == Some(&root)
                    && have.len() > rest.len()
                    && have[have.len() - rest.len()..] == rest[..]
            })
            .map(|(i, _)| i)
            .collect();
        if !hits.is_empty() {
            return Resolution::Hits(hits);
        }
    }
    let first = full.first().map(String::as_str).unwrap_or_default();
    if WORKSPACE_CRATES.contains(&first) && first != "core" {
        // `core::…` is ambiguous with Rust's own core; every other
        // workspace root that fails to resolve is worth surfacing.
        return Resolution::Unresolved(joined);
    }
    Resolution::External
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;
    use crate::rules::{FileMeta, FileRole};

    fn meta(crate_name: &str) -> FileMeta {
        FileMeta {
            crate_name: crate_name.to_string(),
            role: FileRole::Src,
        }
    }

    fn build(files: &[(&str, &str, &str)]) -> CallGraph {
        let parsed: Vec<(String, FileMeta, ParsedFile)> = files
            .iter()
            .map(|(rel, crate_name, src)| {
                ((*rel).to_string(), meta(crate_name), parse_source(src, rel))
            })
            .collect();
        CallGraph::build(&parsed)
    }

    #[test]
    fn same_module_and_import_calls_resolve() {
        let g = build(&[
            (
                "crates/core/src/a.rs",
                "core",
                "use tagwatch_obs::fnv1a_lines;\npub fn caller() { helper(); fnv1a_lines([\"x\"]); }\nfn helper() {}\n",
            ),
            (
                "crates/obs/src/export.rs",
                "obs",
                "pub fn fnv1a_lines(_x: [&str; 1]) {}\n",
            ),
        ]);
        let caller = g.fns.iter().position(|f| f.name == "caller").unwrap();
        let helper = g.fns.iter().position(|f| f.name == "helper").unwrap();
        let fnv = g.fns.iter().position(|f| f.name == "fnv1a_lines").unwrap();
        assert!(g.edges.contains(&(caller, helper)));
        assert!(g.edges.contains(&(caller, fnv)));
    }

    #[test]
    fn method_calls_fan_out_to_all_impls() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "core",
            "struct A;\nstruct B;\nimpl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn run(a: &A) { a.go(); }\n",
        )]);
        let run = g.fns.iter().position(|f| f.name == "run").unwrap();
        let gos: Vec<usize> = g
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == "go")
            .map(|(i, _)| i)
            .collect();
        for go in gos {
            assert!(g.edges.contains(&(run, go)), "missing edge to {go}");
        }
    }

    #[test]
    fn suffix_matching_links_cross_crate_paths() {
        let g = build(&[
            (
                "crates/analytics/src/x.rs",
                "analytics",
                "pub fn use_it() { tagwatch_core::engine::RoundScratch::new(); }\n",
            ),
            (
                "crates/core/src/engine.rs",
                "core",
                "pub struct RoundScratch;\nimpl RoundScratch { pub fn new() -> Self { RoundScratch } }\n",
            ),
        ]);
        let from = g.fns.iter().position(|f| f.name == "use_it").unwrap();
        let to = g.fns.iter().position(|f| f.name == "new").unwrap();
        assert!(g.edges.contains(&(from, to)));
    }

    #[test]
    fn bfs_chains_reconstruct_paths() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "core",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let a = g.fns.iter().position(|f| f.name == "a").unwrap();
        let c = g.fns.iter().position(|f| f.name == "c").unwrap();
        let (visited, parent) = g.bfs(a);
        assert!(visited[c]);
        let chain = g.chain(&parent, c);
        assert_eq!(chain, ["core::a::a", "core::a::b", "core::a::c"]);
    }

    #[test]
    fn graph_json_is_byte_stable() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "core",
            "fn a() { b(); }\nfn b() {}\n",
        )]);
        let j1 = g.to_json();
        let j2 = g.to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"schema\": \"tagwatch-lint-graph/v1\""));
        assert!(j1.ends_with("}\n"));
    }
}
