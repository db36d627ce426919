//! The `tagwatch-lint` binary: analyze the workspace, print rustc-style
//! diagnostics, optionally archive the digested findings report and the
//! call-graph artifact, audit `lint:allow` escapes, and gate CI with
//! `--deny`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use tagwatch_lint::{analyze_workspace_full, find_root, RuleId};

const USAGE: &str = "\
tagwatch-lint: workspace call-graph analyzer for determinism

USAGE:
    tagwatch-lint [allows] [OPTIONS]

SUBCOMMANDS:
    allows            Audit every lint:allow escape (live vs STALE)

OPTIONS:
    --deny            Exit non-zero when any finding remains
                      (for `allows`: when any escape is stale)
    --report <PATH>   Write the FNV-digested JSON findings report
    --graph-out <PATH> Write the deterministic JSON call-graph artifact
    --explain <RULE>  Print the long-form rationale for one rule
    --root <PATH>     Workspace root (default: walk up to [workspace])
    --list-rules      Print the rule catalog and exit
    --help            Show this help
";

fn main() -> ExitCode {
    let mut deny = false;
    let mut report_path: Option<PathBuf> = None;
    let mut graph_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut audit_allows = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "allows" => audit_allows = true,
            "--deny" => deny = true,
            "--report" => match args.next() {
                Some(p) => report_path = Some(PathBuf::from(p)),
                None => return usage_error("--report needs a path"),
            },
            "--graph-out" => match args.next() {
                Some(p) => graph_path = Some(PathBuf::from(p)),
                None => return usage_error("--graph-out needs a path"),
            },
            "--explain" => match args.next().as_deref().map(RuleId::from_name) {
                Some(Some(rule)) => {
                    println!("{}: {}\n", rule.name(), rule.summary());
                    println!("{}", rule.explain());
                    return ExitCode::SUCCESS;
                }
                Some(None) => return usage_error("--explain: unknown rule name"),
                None => return usage_error("--explain needs a rule name"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--list-rules" => {
                for rule in RuleId::ALL {
                    println!("{:<18} {}", rule.name(), rule.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no [workspace] Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let (analysis, graph) = match analyze_workspace_full(&root) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    if audit_allows {
        // Stale allows surface as allow-stale findings; everything the
        // audit prints is derived from the same analysis, so the
        // listing is deterministic.
        let mut stale = 0usize;
        for a in &analysis.allows {
            let is_stale = analysis
                .findings
                .iter()
                .any(|f| f.rule == RuleId::AllowStale && f.file == a.file && f.line == a.line);
            let status = if is_stale {
                stale += 1;
                "STALE"
            } else {
                "live "
            };
            println!(
                "{status} {}:{} lint:allow({}): {}",
                a.file,
                a.line,
                a.rule.name(),
                a.reason
            );
        }
        println!(
            "tagwatch-lint allows: {} escape(s), {} stale",
            analysis.allows.len(),
            stale
        );
        if deny && stale > 0 {
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    print!("{}", analysis.human());
    println!("{}", analysis.summary());

    if let Some(path) = report_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, analysis.to_json()) {
            eprintln!("error: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("report written to {}", path.display());
    }

    if let Some(path) = graph_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, graph.to_json()) {
            eprintln!("error: cannot write call graph {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("call graph written to {}", path.display());
    }

    if deny && !analysis.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
