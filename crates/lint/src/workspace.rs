//! Workspace discovery: which `.rs` files to analyze and how each is
//! classified.
//!
//! The walk is deliberately convention-based rather than
//! manifest-parsing: the workspace layout is fixed (`crates/<name>/…`
//! plus the root facade crate), and a convention walk keeps the
//! analyzer free of TOML parsing. Vendored stand-ins (`vendor/`),
//! build output (`target/`), and this crate's own violation fixtures
//! (`crates/lint/tests/fixtures/`) are never scanned. The benchmark
//! (`benchmark/src`) is a package of its own outside the workspace, but
//! it calls the crates' public API, so it is scanned as a caller like an
//! example: without it, `u1-dead-pub` would report items that only the
//! benchmark uses. `tests/` files are scanned too,
//! but their references never make an item live.
//!
//! Directory entries are sorted at every level, so the file list —
//! and therefore the findings report and its digest — is identical
//! across platforms and filesystem orders.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{FileMeta, FileRole};

/// One source file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (report key).
    pub rel: String,
    /// Absolute path for reading.
    pub path: PathBuf,
    /// Rule-scoping classification.
    pub meta: FileMeta,
}

/// Walks the workspace rooted at `root` and returns every analyzable
/// source file, sorted by relative path.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal; a missing optional
/// directory (e.g. a crate without `tests/`) is not an error.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();

    // Workspace member crates.
    let crates_dir = root.join("crates");
    for crate_dir in sorted_dirs(&crates_dir)? {
        let name = file_name(&crate_dir);
        collect_tree(
            &crate_dir.join("src"),
            root,
            &name,
            FileRole::Src,
            &mut files,
        )?;
        collect_tree(
            &crate_dir.join("tests"),
            root,
            &name,
            FileRole::Test,
            &mut files,
        )?;
        collect_tree(
            &crate_dir.join("examples"),
            root,
            &name,
            FileRole::Example,
            &mut files,
        )?;
    }

    // The root facade crate and its tests/examples.
    collect_tree(
        &root.join("src"),
        root,
        "tagwatch",
        FileRole::Src,
        &mut files,
    )?;
    collect_tree(
        &root.join("tests"),
        root,
        "tagwatch",
        FileRole::Test,
        &mut files,
    )?;
    collect_tree(
        &root.join("examples"),
        root,
        "tagwatch",
        FileRole::Example,
        &mut files,
    )?;
    collect_tree(
        &root.join("benchmark").join("src"),
        root,
        "benchmark",
        FileRole::Example,
        &mut files,
    )?;

    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// Locates the workspace root: walks up from `start` until a directory
/// holding a `Cargo.toml` that declares `[workspace]`.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Sorted subdirectories of `dir` (empty when `dir` does not exist).
fn sorted_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(out);
    };
    for entry in entries {
        let path = entry?.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` (sorted), classifying
/// each. Skips the lint fixture tree, which holds deliberate
/// violations for the rule tests.
fn collect_tree(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    role: FileRole,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(()); // optional tree absent
    };
    let mut paths: Vec<PathBuf> = entries
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    paths.sort();
    for path in paths {
        let name = file_name(&path);
        if path.is_dir() {
            if crate_name == "lint" && name == "fixtures" {
                continue;
            }
            collect_tree(&path, root, crate_name, role, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                rel,
                path,
                meta: FileMeta {
                    crate_name: crate_name.to_string(),
                    role,
                },
            });
        }
    }
    Ok(())
}
