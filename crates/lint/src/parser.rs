//! A hand-rolled item parser over the lexer's token stream.
//!
//! The v2 analyzer needs more than tokens: to prove that no digest
//! sink can transitively reach a nondeterminism source it must know
//! **which function** each token belongs to and **who calls whom**.
//! This module extracts exactly that — function/type items with their
//! module paths, `use` imports, and per-function call candidates —
//! without pulling in `syn` (the build is offline and the analyzer
//! must stay auditable).
//!
//! It is deliberately not a full Rust grammar. The recognized shapes
//! are the ones the workspace actually uses:
//!
//! * `mod name { … }` / `mod name;` nesting (file modules are derived
//!   from the path by [`module_path_of`]).
//! * `impl Type { … }` and `impl Trait for Type { … }` blocks; the
//!   implementing type's last path segment becomes the method
//!   context, and `Self::` resolves against it.
//! * `fn name` items, with the body located as the first `{` at zero
//!   paren/bracket depth after the signature (return-position
//!   `impl Trait` cannot carry braces, so this is exact for the
//!   grammar subset in use).
//! * `use a::b::{c, d as e};` trees, flattened into alias → path
//!   mappings for the resolver.
//! * `struct`/`enum`/`trait`/`type`/`const`/`static` declarations
//!   (name, visibility, line) for the dead-API rule.
//!
//! Known approximations, documented in `docs/LINTING.md`: bodies of
//! `macro_rules!` definitions are skipped for item and call extraction
//! (their tokens still count as name references for liveness);
//! closures are attributed to their enclosing function; tuple-struct
//! literals and enum-variant constructors (`Some(x)`, `TagId(7)`) are
//! not call edges.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::rules::Code;

/// What kind of non-function item a [`TypeItem`] declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// `struct`
    Struct,
    /// `enum`
    Enum,
    /// `trait`
    Trait,
    /// `type` alias
    Alias,
    /// `const`
    Const,
    /// `static`
    Static,
}

impl TypeKind {
    /// The declaration keyword, for diagnostics.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            TypeKind::Struct => "struct",
            TypeKind::Enum => "enum",
            TypeKind::Trait => "trait",
            TypeKind::Alias => "type",
            TypeKind::Const => "const",
            TypeKind::Static => "static",
        }
    }
}

/// One call candidate extracted from a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallCand {
    /// Path segments as written (`["RoundScratch", "new"]`, or a
    /// single segment for bare calls and method calls).
    pub path: Vec<String>,
    /// Whether this was `.name(…)` method-call syntax.
    pub method: bool,
    /// 1-based line of the call site.
    pub line: u32,
}

/// One nondeterminism-source token found inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceHit {
    /// Human label (`Instant::now`, `HashMap`, …).
    pub what: String,
    /// 1-based line of the token.
    pub line: u32,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// Fully qualified path (`crate::module::Type::name` with the
    /// crate directory name as root, e.g.
    /// `analytics::session::MonitoringSession::tick`).
    pub qual: String,
    /// `pub` without a `(crate)`/`(super)` restriction.
    pub is_pub: bool,
    /// Defined inside an `impl` (or trait) block.
    pub is_method: bool,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Call candidates extracted from the body.
    pub calls: Vec<CallCand>,
    /// Nondeterminism-source tokens in the body.
    pub sources: Vec<SourceHit>,
    /// Concurrency-primitive tokens in the body (names only).
    pub concurrency: Vec<SourceHit>,
}

/// One non-function item (for the dead-API rule).
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Bare name.
    pub name: String,
    /// Fully qualified path.
    pub qual: String,
    /// Declaration keyword.
    pub kind: TypeKind,
    /// `pub` without a restriction.
    pub is_pub: bool,
    /// Inside a test region.
    pub in_test: bool,
    /// 1-based line of the keyword.
    pub line: u32,
    /// 1-based column of the keyword.
    pub col: u32,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Function items, in declaration order.
    pub fns: Vec<FnItem>,
    /// Non-function items, in declaration order.
    pub types: Vec<TypeItem>,
    /// `use` alias → full path segments.
    pub imports: BTreeMap<String, Vec<String>>,
    /// Identifier occurrences that count as *references* for the
    /// liveness rule: every code identifier except those inside `use`
    /// statements, item-declaration name tokens, and the type names
    /// of `impl` headers.
    pub refs: BTreeMap<String, u32>,
}

/// Derives the module path of a file from its workspace-relative path:
/// `crates/core/src/math/binomial.rs` → `core::math::binomial`,
/// `crates/core/src/lib.rs` → `core`, `src/lib.rs` → `tagwatch`,
/// `crates/cli/src/bin/x.rs` → `cli::bin::x`, and test/example files
/// get a `tests`/`examples` pseudo-segment (each is its own crate, so
/// they only need to be unique).
#[must_use]
pub fn module_path_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (&str, &[&str]) = if parts.first() == Some(&"crates") && parts.len() > 2
    {
        (parts[1], &parts[2..])
    } else {
        ("tagwatch", &parts[..])
    };
    let mut segs: Vec<String> = vec![crate_name.to_string()];
    for (i, part) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "main" && stem != "mod" {
                segs.push(stem.to_string());
            }
        } else if *part != "src" {
            segs.push((*part).to_string());
        }
    }
    segs.join("::")
}

/// Maps an extern-crate path root to its module root in the symbol
/// table: `tagwatch_core` → `core`, `tagwatch` → `tagwatch`; anything
/// else (std, vendored shims) returns `None`.
#[must_use]
pub fn crate_alias(seg: &str) -> Option<String> {
    if seg == "tagwatch" {
        return Some("tagwatch".to_string());
    }
    seg.strip_prefix("tagwatch_").map(str::to_string)
}

/// Nondeterminism-source token patterns: (matcher name, label).
/// Matched inside every function body; a hit marks the function as a
/// taint source for `d4-digest-taint`.
const SOURCE_IDENTS: [&str; 4] = ["SystemTime", "thread_rng", "HashMap", "HashSet"];

/// Concurrency-primitive identifier prefixes for `c1-pool-discipline`.
const CONCURRENCY_IDENTS: [&str; 5] = ["Mutex", "RwLock", "Condvar", "mpsc", "Barrier"];

struct Parser<'a> {
    code: &'a Code<'a>,
    test_ranges: &'a [(usize, usize)],
    out: ParsedFile,
    /// Code-token indices that must not count as references.
    nonref: Vec<usize>,
}

/// Parses one file. `code` is the comment-free token view shared with
/// the lexical pass; `test_ranges` the `#[cfg(test)]` regions.
#[must_use]
pub(crate) fn parse_file(code: &Code<'_>, test_ranges: &[(usize, usize)], rel: &str) -> ParsedFile {
    let root = module_path_of(rel);
    let mut p = Parser {
        code,
        test_ranges,
        out: ParsedFile::default(),
        nonref: Vec::new(),
    };
    p.parse_range(0, code.len(), &root, None);
    p.collect_refs();
    p.out
}

impl<'a> Parser<'a> {
    fn in_test(&self, k: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| lo <= k && k <= hi)
    }

    fn is_path_sep(&self, k: usize) -> bool {
        self.code.is_punct(k, ':') && self.code.is_punct(k + 1, ':')
    }

    /// Whether the item whose keyword sits at `k` is `pub` (without a
    /// `(crate)`/`(super)` restriction). Walks back over at most one
    /// `(` `…` `)` restriction group.
    fn is_pub_at(&self, k: usize) -> bool {
        if k == 0 {
            return false;
        }
        if self.code.is_ident(k - 1, "pub") {
            return true;
        }
        // `pub(crate) fn` → `)` directly before the keyword.
        if self.code.is_punct(k - 1, ')') {
            let mut j = k - 1;
            while j > 0 && !self.code.is_punct(j, '(') {
                j -= 1;
            }
            // Restricted visibility is not public API.
            let _ = j;
            return false;
        }
        false
    }

    /// From `start` (just past `fn name` or an `impl` header start),
    /// returns `Some(body_open)` for the first `{` at zero
    /// paren/bracket depth, or `None` if a `;` ends the item first.
    fn find_body_open(&self, start: usize, hi: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut k = start;
        while k < hi {
            if self.code.kind(k) == Some(TokenKind::Punct) {
                match self.code.text(k).as_bytes()[0] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => return Some(k),
                    b';' if depth == 0 => return None,
                    _ => {}
                }
            }
            k += 1;
        }
        None
    }

    /// Given the code index of a `{`, returns its matching `}` (or
    /// `hi - 1` when unterminated).
    fn close_of(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        for k in open..hi {
            if self.code.is_punct(k, '{') {
                depth += 1;
            } else if self.code.is_punct(k, '}') {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
        hi.saturating_sub(1)
    }

    fn parse_range(&mut self, lo: usize, hi: usize, module: &str, impl_ctx: Option<&str>) {
        let mut k = lo;
        while k < hi {
            if self.code.kind(k) != Some(TokenKind::Ident) {
                k += 1;
                continue;
            }
            match self.code.text(k) {
                "mod" if self.code.kind(k + 1) == Some(TokenKind::Ident) => {
                    let name = self.code.text(k + 1).to_string();
                    self.nonref.push(k + 1);
                    if self.code.is_punct(k + 2, '{') {
                        let close = self.close_of(k + 2, hi);
                        let inner = format!("{module}::{name}");
                        self.parse_range(k + 3, close, &inner, None);
                        k = close + 1;
                    } else {
                        k += 2; // `mod name;` file module
                    }
                }
                "impl" => {
                    let Some(open) = self.find_body_open(k + 1, hi) else {
                        k += 1;
                        continue;
                    };
                    let ty = self.impl_type_name(k + 1, open);
                    let close = self.close_of(open, hi);
                    self.parse_range(open + 1, close, module, ty.as_deref());
                    k = close + 1;
                }
                "trait" if self.code.kind(k + 1) == Some(TokenKind::Ident) => {
                    let name = self.code.text(k + 1).to_string();
                    self.record_type(k, &name, TypeKind::Trait, module);
                    if let Some(open) = self.find_body_open(k + 2, hi) {
                        let close = self.close_of(open, hi);
                        self.parse_range(open + 1, close, module, Some(&name.clone()));
                        k = close + 1;
                    } else {
                        k += 2;
                    }
                }
                "fn" if self.code.kind(k + 1) == Some(TokenKind::Ident) => {
                    let name = self.code.text(k + 1).to_string();
                    self.nonref.push(k + 1);
                    let qual = match impl_ctx {
                        Some(ty) => format!("{module}::{ty}::{name}"),
                        None => format!("{module}::{name}"),
                    };
                    let tok = self.code.tok(k);
                    let (line, col) = (tok.line, tok.col);
                    let mut item = FnItem {
                        name,
                        qual,
                        is_pub: self.is_pub_at(k),
                        is_method: impl_ctx.is_some(),
                        in_test: self.in_test(k),
                        line,
                        col,
                        calls: Vec::new(),
                        sources: Vec::new(),
                        concurrency: Vec::new(),
                    };
                    match self.find_body_open(k + 2, hi) {
                        Some(open) => {
                            let close = self.close_of(open, hi);
                            self.scan_body(open + 1, close, impl_ctx, &mut item);
                            self.out.fns.push(item);
                            k = close + 1;
                        }
                        None => {
                            // Bodyless trait-method declaration.
                            self.out.fns.push(item);
                            k += 2;
                        }
                    }
                }
                "use" => {
                    k = self.parse_use(k + 1, hi);
                }
                "macro_rules" => {
                    // `macro_rules ! name { … }` — opaque for items and
                    // calls; its tokens still count as references.
                    if let Some(open) = self.find_body_open(k + 1, hi) {
                        k = self.close_of(open, hi) + 1;
                    } else {
                        k += 1;
                    }
                }
                kw @ ("struct" | "enum" | "type" | "const" | "static")
                    if self.code.kind(k + 1) == Some(TokenKind::Ident)
                        || (kw == "static" && self.code.is_ident(k + 1, "mut")) =>
                {
                    let name_at = if self.code.is_ident(k + 1, "mut") {
                        k + 2
                    } else {
                        k + 1
                    };
                    // `const fn`, `impl const`, associated `type … ;` in
                    // traits are all handled by the generic skip below.
                    let name = self.code.text(name_at).to_string();
                    if name == "fn" {
                        k += 1; // `const fn` — the fn arm handles it
                        continue;
                    }
                    let kind = match kw {
                        "struct" => TypeKind::Struct,
                        "enum" => TypeKind::Enum,
                        "type" => TypeKind::Alias,
                        "const" => TypeKind::Const,
                        _ => TypeKind::Static,
                    };
                    self.record_type(k, &name, kind, module);
                    // Skip the declaration: to `;` or through `{…}`.
                    match self.find_body_open(name_at + 1, hi) {
                        Some(open) if matches!(kind, TypeKind::Struct | TypeKind::Enum) => {
                            k = self.close_of(open, hi) + 1;
                        }
                        _ => {
                            let mut j = name_at + 1;
                            let mut depth = 0i32;
                            while j < hi {
                                if self.code.kind(j) == Some(TokenKind::Punct) {
                                    match self.code.text(j).as_bytes()[0] {
                                        b'(' | b'[' | b'{' => depth += 1,
                                        b')' | b']' | b'}' => depth -= 1,
                                        b';' if depth == 0 => break,
                                        _ => {}
                                    }
                                }
                                j += 1;
                            }
                            k = j + 1;
                        }
                    }
                }
                _ => k += 1,
            }
        }
    }

    /// Records a non-function item declaration.
    fn record_type(&mut self, kw_at: usize, name: &str, kind: TypeKind, module: &str) {
        self.nonref.push(kw_at + 1);
        let tok = self.code.tok(kw_at);
        self.out.types.push(TypeItem {
            name: name.to_string(),
            qual: format!("{module}::{name}"),
            kind,
            is_pub: self.is_pub_at(kw_at),
            in_test: self.in_test(kw_at),
            line: tok.line,
            col: tok.col,
        });
    }

    /// The implementing type's last path segment for an `impl` header
    /// spanning `[start, open)`: the path after `for` when present,
    /// otherwise the first path at zero angle depth.
    fn impl_type_name(&mut self, start: usize, open: usize) -> Option<String> {
        let mut from = start;
        for k in start..open {
            if self.code.is_ident(k, "for") {
                from = k + 1;
            }
        }
        // Collect the trailing ident of the first path from `from`,
        // skipping generic groups and reference punctuation.
        let mut angle = 0i32;
        let mut last: Option<(usize, String)> = None;
        for k in from..open {
            match self.code.kind(k) {
                Some(TokenKind::Punct) => match self.code.text(k).as_bytes()[0] {
                    b'<' => angle += 1,
                    b'>' => angle -= 1,
                    _ => {}
                },
                Some(TokenKind::Ident) if angle == 0 => {
                    let t = self.code.text(k);
                    if t != "dyn" && t != "where" {
                        last = Some((k, t.to_string()));
                    }
                    if self
                        .code
                        .kind(k + 1)
                        .is_some_and(|kind| kind == TokenKind::Punct)
                        && !self.is_path_sep(k + 1)
                        && !self.code.is_punct(k + 1, '<')
                    {
                        // Path ended (e.g. `impl Foo {`).
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some((k, name)) = last {
            self.nonref.push(k);
            return Some(name);
        }
        None
    }

    /// Parses one `use …;` tree starting just past the `use` keyword;
    /// returns the index just past the terminating `;`. Records alias →
    /// path mappings and marks every token as non-reference.
    fn parse_use(&mut self, start: usize, hi: usize) -> usize {
        // Collect the whole statement first.
        let mut end = start;
        while end < hi && !self.code.is_punct(end, ';') {
            end += 1;
        }
        for k in start..end {
            if self.code.kind(k) == Some(TokenKind::Ident) {
                self.nonref.push(k);
            }
        }
        self.parse_use_tree(start, end, &[]);
        end + 1
    }

    /// Recursively flattens a use tree over `[lo, hi)` with the given
    /// path prefix.
    fn parse_use_tree(&mut self, lo: usize, hi: usize, prefix: &[String]) {
        let mut segs: Vec<String> = Vec::new();
        let mut k = lo;
        while k < hi {
            if self.code.kind(k) == Some(TokenKind::Ident) {
                let t = self.code.text(k).to_string();
                if t == "as" {
                    // alias: `path as name`
                    if self.code.kind(k + 1) == Some(TokenKind::Ident) {
                        let alias = self.code.text(k + 1).to_string();
                        let mut full = prefix.to_vec();
                        full.extend(segs.iter().cloned());
                        self.out.imports.insert(alias, full);
                    }
                    return;
                }
                segs.push(t);
                k += 1;
            } else if self.is_path_sep(k) {
                k += 2;
            } else if self.code.is_punct(k, '{') {
                let close = self.close_of(k, hi + 1);
                // Group: split on top-level commas.
                let mut depth = 0i32;
                let mut item_lo = k + 1;
                let mut full = prefix.to_vec();
                full.extend(segs.iter().cloned());
                for j in k + 1..close {
                    if self.code.kind(j) == Some(TokenKind::Punct) {
                        match self.code.text(j).as_bytes()[0] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            b',' if depth == 0 => {
                                self.parse_use_tree(item_lo, j, &full);
                                item_lo = j + 1;
                            }
                            _ => {}
                        }
                    }
                }
                if item_lo < close {
                    self.parse_use_tree(item_lo, close, &full);
                }
                return;
            } else if self.code.is_punct(k, '*') {
                return; // glob: no aliases recorded (conservative)
            } else {
                k += 1;
            }
        }
        if let Some(last) = segs.last().cloned() {
            let mut full = prefix.to_vec();
            full.extend(segs);
            self.out.imports.insert(last, full);
        }
    }

    /// Scans a function body for call candidates, nondeterminism
    /// sources, and concurrency primitives.
    fn scan_body(&mut self, lo: usize, hi: usize, impl_ctx: Option<&str>, item: &mut FnItem) {
        let mut k = lo;
        while k < hi {
            if self.code.kind(k) != Some(TokenKind::Ident) {
                k += 1;
                continue;
            }
            let text = self.code.text(k);
            let line = self.code.tok(k).line;

            // -- nondeterminism sources ------------------------------
            if SOURCE_IDENTS.contains(&text) {
                item.sources.push(SourceHit {
                    what: text.to_string(),
                    line,
                });
            }
            if text == "Instant" && self.is_path_sep(k + 1) && self.code.is_ident(k + 3, "now") {
                item.sources.push(SourceHit {
                    what: "Instant::now".to_string(),
                    line,
                });
            }
            if text == "thread" && self.is_path_sep(k + 1) && self.code.is_ident(k + 3, "current") {
                item.sources.push(SourceHit {
                    what: "thread::current".to_string(),
                    line,
                });
            }
            if text == "RandomState" {
                item.sources.push(SourceHit {
                    what: "RandomState".to_string(),
                    line,
                });
            }
            if text == "env"
                && self.is_path_sep(k + 1)
                && (self.code.is_ident(k + 3, "var")
                    || self.code.is_ident(k + 3, "vars")
                    || self.code.is_ident(k + 3, "var_os"))
            {
                item.sources.push(SourceHit {
                    what: format!("env::{}", self.code.text(k + 3)),
                    line,
                });
            }

            // -- concurrency primitives ------------------------------
            if CONCURRENCY_IDENTS.contains(&text) || text.starts_with("Atomic") {
                item.concurrency.push(SourceHit {
                    what: text.to_string(),
                    line,
                });
            }
            if text == "thread"
                && self.is_path_sep(k + 1)
                && (self.code.is_ident(k + 3, "spawn") || self.code.is_ident(k + 3, "scope"))
            {
                item.concurrency.push(SourceHit {
                    what: format!("thread::{}", self.code.text(k + 3)),
                    line,
                });
            }

            // -- call candidates -------------------------------------
            if self.code.is_punct(k + 1, '(') && !KEYWORDS.contains(&text) {
                if k > lo && self.code.is_punct(k - 1, '.') {
                    item.calls.push(CallCand {
                        path: vec![text.to_string()],
                        method: true,
                        line,
                    });
                } else {
                    let path = self.path_ending_at(k, lo, impl_ctx);
                    // Single-segment uppercase names are tuple-struct /
                    // enum-variant constructors, not calls.
                    let constructor =
                        path.len() == 1 && path[0].chars().next().is_some_and(char::is_uppercase);
                    if !constructor {
                        item.calls.push(CallCand {
                            path,
                            method: false,
                            line,
                        });
                    }
                }
            } else if self.is_path_sep(k + 1)
                && self.code.kind(k + 3) == Some(TokenKind::Ident)
                && !self.code.is_punct(k + 4, '(')
                && !self.is_path_sep(k + 4)
            {
                // Bare multi-segment path not followed by a call:
                // `map(Self::helper)`, `map(export::json_escape)` — the
                // trailing segment may still be a function reference.
                let tail = self.code.text(k + 3);
                if tail.chars().next().is_some_and(char::is_lowercase) {
                    let mut path = self.path_ending_at(k, lo, impl_ctx);
                    path.push(tail.to_string());
                    item.calls.push(CallCand {
                        path,
                        method: false,
                        line,
                    });
                }
            }
            k += 1;
        }
        item.calls.dedup();
    }

    /// Collects the full path whose final segment is the ident at `k`,
    /// walking back over `::` separators. `Self` is substituted with
    /// the impl context.
    fn path_ending_at(&self, k: usize, lo: usize, impl_ctx: Option<&str>) -> Vec<String> {
        let mut rev = vec![self.code.text(k).to_string()];
        let mut j = k;
        while j >= lo + 3
            && self.is_path_sep(j - 2)
            && self.code.kind(j - 3) == Some(TokenKind::Ident)
        {
            rev.push(self.code.text(j - 3).to_string());
            j -= 3;
        }
        rev.reverse();
        if rev.first().is_some_and(|s| s == "Self") {
            if let Some(ty) = impl_ctx {
                rev[0] = ty.to_string();
            }
        }
        rev
    }

    /// Counts identifier references, excluding the recorded
    /// non-reference tokens (declaration names, use statements, impl
    /// headers) and everything inside `#[cfg(test)]`: a test is not a
    /// caller. Format-string interpolations (`"{PROM_PREFIX}x"`) also
    /// count: they are how exporters reference shared constants.
    fn collect_refs(&mut self) {
        self.nonref.sort_unstable();
        for k in 0..self.code.len() {
            if self.in_test(k) {
                continue;
            }
            match self.code.kind(k) {
                Some(TokenKind::Ident) => {
                    if self.nonref.binary_search(&k).is_ok() {
                        continue;
                    }
                    let t = self.code.text(k);
                    if KEYWORDS.contains(&t) {
                        continue;
                    }
                    *self.out.refs.entry(t.to_string()).or_insert(0) += 1;
                }
                Some(TokenKind::Str | TokenKind::RawStr) => {
                    for name in interpolated_names(self.code.text(k)) {
                        *self.out.refs.entry(name).or_insert(0) += 1;
                    }
                }
                _ => {}
            }
        }
    }
}

/// Rust keywords and primitive names that are never call targets or
/// item references.
const KEYWORDS: [&str; 40] = [
    "as",
    "break",
    "const",
    "continue",
    "crate",
    "else",
    "enum",
    "extern",
    "false",
    "fn",
    "for",
    "if",
    "impl",
    "in",
    "let",
    "loop",
    "match",
    "mod",
    "move",
    "mut",
    "pub",
    "ref",
    "return",
    "self",
    "Self",
    "static",
    "struct",
    "super",
    "trait",
    "true",
    "type",
    "unsafe",
    "use",
    "where",
    "while",
    "async",
    "await",
    "dyn",
    "union",
    "macro_rules",
];

/// Extracts `{name}` / `{name:spec}` interpolation identifiers from a
/// string-literal token's text. Positional (`{0}`) and escaped (`{{`)
/// braces yield nothing; only names that could reference an item
/// (`{PROM_PREFIX}`, `{rate:.3}`) count.
fn interpolated_names(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut names = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            if j > start
                && !bytes[start].is_ascii_digit()
                && j < bytes.len()
                && (bytes[j] == b'}' || bytes[j] == b':' || bytes[j] == b'.')
            {
                names.push(text[start..j].to_string());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    names
}

/// Convenience for tests and fixture harnesses: lex + parse a source
/// string as `rel`.
#[must_use]
pub fn parse_source(src: &str, rel: &str) -> ParsedFile {
    let toks = crate::lexer::lex(src);
    let code = Code::new(src, &toks);
    let ranges = crate::rules::compute_test_ranges(&code);
    parse_file(&code, &ranges, rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_source(src, "crates/core/src/x.rs")
    }

    #[test]
    fn module_paths_follow_the_layout() {
        assert_eq!(module_path_of("crates/core/src/lib.rs"), "core");
        assert_eq!(
            module_path_of("crates/core/src/math/binomial.rs"),
            "core::math::binomial"
        );
        assert_eq!(module_path_of("src/lib.rs"), "tagwatch");
        assert_eq!(module_path_of("crates/cli/src/main.rs"), "cli");
        assert_eq!(
            module_path_of("crates/bench/src/bin/fig4.rs"),
            "bench::bin::fig4"
        );
        assert_eq!(
            module_path_of("crates/analytics/tests/soak.rs"),
            "analytics::tests::soak"
        );
    }

    #[test]
    fn fns_get_qualified_paths_and_impl_context() {
        let p = parse(
            "pub fn free() {}\nmod inner { fn hidden() {} }\nstruct S;\nimpl S { pub fn method(&self) { helper(); } }\nfn helper() {}\n",
        );
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            [
                "core::x::free",
                "core::x::inner::hidden",
                "core::x::S::method",
                "core::x::helper"
            ]
        );
        assert!(p.fns[0].is_pub && !p.fns[1].is_pub);
        assert!(p.fns[2].is_method);
        assert_eq!(p.fns[2].calls.len(), 1);
        assert_eq!(p.fns[2].calls[0].path, ["helper"]);
    }

    #[test]
    fn impl_for_takes_the_implementing_type() {
        let p = parse("struct Foo;\ntrait T { fn t(&self); }\nimpl T for Foo { fn t(&self) {} }\n");
        assert!(p.fns.iter().any(|f| f.qual == "core::x::Foo::t"));
        // The bodyless trait declaration is context `T`.
        assert!(p.fns.iter().any(|f| f.qual == "core::x::T::t"));
    }

    #[test]
    fn use_trees_flatten_to_aliases() {
        let p = parse(
            "use std::collections::{BTreeMap, BTreeSet as Set};\nuse tagwatch_obs::fnv1a_lines;\n",
        );
        assert_eq!(
            p.imports.get("Set").unwrap(),
            &vec![
                "std".to_string(),
                "collections".to_string(),
                "BTreeSet".to_string()
            ]
        );
        assert_eq!(
            p.imports.get("fnv1a_lines").unwrap(),
            &vec!["tagwatch_obs".to_string(), "fnv1a_lines".to_string()]
        );
        // Use tokens never count as references.
        assert!(!p.refs.contains_key("BTreeMap"));
    }

    #[test]
    fn calls_capture_paths_methods_and_self() {
        let p = parse(
            "struct S;\nimpl S { fn a(&self) { self.b(); Self::c(); core::util::d(); }\n fn b(&self) {} fn c() {} }\n",
        );
        let a = &p.fns[0];
        let paths: Vec<(Vec<String>, bool)> =
            a.calls.iter().map(|c| (c.path.clone(), c.method)).collect();
        assert!(paths.contains(&(vec!["b".to_string()], true)));
        assert!(paths.contains(&(vec!["S".to_string(), "c".to_string()], false)));
        assert!(paths.contains(&(
            vec!["core".to_string(), "util".to_string(), "d".to_string()],
            false
        )));
    }

    #[test]
    fn sources_and_concurrency_are_attributed_to_the_fn() {
        let p = parse(
            "fn t() { let _ = std::time::Instant::now(); }\nfn u() { let _m: std::sync::Mutex<u32> = std::sync::Mutex::new(0); }\n",
        );
        assert_eq!(p.fns[0].sources.len(), 1);
        assert_eq!(p.fns[0].sources[0].what, "Instant::now");
        assert!(p.fns[1].concurrency.iter().any(|c| c.what == "Mutex"));
    }

    #[test]
    fn constructors_are_not_calls() {
        let p = parse("fn f() -> Option<u32> { Some(1) }\n");
        assert!(p.fns[0].calls.is_empty(), "{:?}", p.fns[0].calls);
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let p = parse("macro_rules! m { () => { pub fn ghost() {} }; }\nfn real() {}\n");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn refs_exclude_declarations_but_count_uses() {
        let p = parse("pub struct Widget;\nfn f(w: Widget) -> Widget { w }\n");
        // Two type-position references; the declaration is excluded.
        assert_eq!(p.refs.get("Widget").copied(), Some(2));
    }
}
