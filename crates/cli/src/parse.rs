//! Argument parsing for the `tagwatch-cli` binary.
//!
//! Hand-rolled on purpose: the workspace's dependency policy admits no
//! argument-parsing crates, and the grammar is small enough that a
//! direct parser is clearer than a DSL anyway.

use std::error::Error;
use std::fmt;

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `size trp <n> <m> <alpha>` — Eq. 2 frame size.
    SizeTrp {
        /// Population size.
        n: u64,
        /// Tolerance.
        m: u64,
        /// Confidence.
        alpha: f64,
    },
    /// `size utrp <n> <m> <alpha> [c]` — Eq. 3 frame size.
    SizeUtrp {
        /// Population size.
        n: u64,
        /// Tolerance.
        m: u64,
        /// Confidence.
        alpha: f64,
        /// Colluder sync budget (default 20).
        c: u64,
    },
    /// `detection <n> <x> <f>` — evaluate g(n, x, f).
    Detection {
        /// Population size.
        n: u64,
        /// Missing-tag count.
        x: u64,
        /// Frame size.
        f: u64,
    },
    /// `simulate trp <n> <m> [--trials T] [--seed S]`.
    SimulateTrp {
        /// Population size.
        n: u64,
        /// Tolerance (adversary steals `m + 1`).
        m: u64,
        /// Monte-Carlo trials.
        trials: u64,
        /// Root seed.
        seed: u64,
    },
    /// `simulate utrp <n> <m> [--budget C] [--trials T] [--seed S]`.
    SimulateUtrp {
        /// Population size.
        n: u64,
        /// Tolerance.
        m: u64,
        /// Colluder sync budget.
        budget: u64,
        /// Monte-Carlo trials.
        trials: u64,
        /// Root seed.
        seed: u64,
    },
    /// `identify <n> --steal K [--seed S]` — demo run of the
    /// missing-tag identification protocol.
    Identify {
        /// Population size.
        n: u64,
        /// Number of tags stolen before identification.
        steal: u64,
        /// Root seed.
        seed: u64,
    },
    /// `faults [--quick] [--trials T] [--seed S] [--metrics-out PATH]
    /// [--policy FILE]` — run the named fault-scenario matrix and print
    /// per-scenario alarm / desync / recovery rates.
    Faults {
        /// Cap trials at a smoke-test size (CI).
        quick: bool,
        /// Trials per scenario.
        trials: u64,
        /// Root seed.
        seed: u64,
        /// Where to write the telemetry metrics snapshot, if anywhere.
        metrics_out: Option<String>,
        /// Where to write the Prometheus text exposition, if anywhere.
        prom_out: Option<String>,
        /// Path of a `tagwatch-policy v1` document the scenario
        /// sessions run under (default: legacy session defaults).
        policy: Option<String>,
    },
    /// `soak [--seed S] [--ticks T] [--protocol trp|utrp]
    /// [--report PATH] [--metrics-out PATH] [--trace-out PATH]` — run
    /// the long-horizon soak driver and print its digest; the JSON
    /// report is written only with `--report`.
    Soak {
        /// Root seed (the whole run is deterministic in it).
        seed: u64,
        /// Monitoring ticks to drive.
        ticks: u64,
        /// Routine-tick protocol (`true` = UTRP, the default).
        utrp: bool,
        /// Where to write the JSON report, if anywhere.
        report: Option<String>,
        /// Where to write the telemetry metrics snapshot, if anywhere.
        metrics_out: Option<String>,
        /// Where to write the flight-recorder JSONL trace, if anywhere.
        trace_out: Option<String>,
        /// Where to write the Prometheus text exposition, if anywhere.
        prom_out: Option<String>,
        /// Where to write the span-tree JSONL, if anywhere.
        spans_out: Option<String>,
        /// Decorate spans with I/O-shell wall-clock nanoseconds. The
        /// cost clock stays authoritative; this trades the span
        /// artifact's byte-stability for latency readings.
        spans_wall: bool,
        /// Where to persist the durable write-ahead log, if anywhere.
        /// The WAL is flushed before any non-zero exit, so an
        /// invariant violation still leaves a resumable artifact.
        wal_out: Option<String>,
        /// Scripted crash: stop just before this tick (requires
        /// `--wal-out`, which is what makes the kill survivable).
        crash_at: Option<u64>,
        /// Path of a `tagwatch-policy v1` document to run under. The
        /// policy owns the protocol choice, so it conflicts with
        /// `--protocol`.
        policy: Option<String>,
        /// Worker threads for the session's round engine (default 1 =
        /// the scalar engine). Pure execution knob: the report and
        /// every digest are byte-identical at any value.
        threads: u64,
    },
    /// `recover <wal> [--report PATH]` — warm-restart a soak from its
    /// WAL, re-verify every recorded tick, run it to completion, and
    /// print the verified report digest.
    Recover {
        /// Path of the WAL to recover.
        path: String,
        /// Where to write the completed run's JSON report, if anywhere.
        report: Option<String>,
    },
    /// `inspect <path>` — summarize an exported telemetry artifact (a
    /// metrics snapshot, a JSONL event trace, a span tree, or a policy
    /// document, auto-detected).
    Inspect {
        /// Path of the artifact to summarize.
        path: String,
    },
    /// `inspect diff <a> <b>` — compare two artifacts of the same kind
    /// and report the first divergence (event, span, or metric).
    InspectDiff {
        /// Path of the baseline artifact.
        a: String,
        /// Path of the artifact to compare against it.
        b: String,
    },
    /// `registry new <n> <m> <alpha>` — print a fresh snapshot.
    RegistryNew {
        /// Population size (sequential IDs).
        n: u64,
        /// Tolerance.
        m: u64,
        /// Confidence.
        alpha: f64,
    },
    /// `registry info` — summarize a snapshot read from stdin text.
    RegistryInfo {
        /// The snapshot text (the binary reads stdin; tests inject).
        text: String,
    },
    /// `help` (also the zero-argument default).
    Help,
}

/// CLI usage errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What went wrong, user-facing.
    pub message: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
    }
}

fn want<T: std::str::FromStr>(args: &[String], idx: usize, name: &str) -> Result<T, CliError> {
    args.get(idx)
        .ok_or_else(|| err(format!("missing <{name}>")))?
        .parse()
        .map_err(|_| err(format!("bad <{name}>: `{}`", args[idx])))
}

fn flag(args: &[String], name: &str, default: u64) -> Result<u64, CliError> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| err(format!("{name} needs a value")))?
            .parse()
            .map_err(|_| err(format!("bad {name} value"))),
        None => Ok(default),
    }
}

fn opt_flag(args: &[String], name: &str) -> Result<Option<u64>, CliError> {
    args.iter()
        .position(|a| a == name)
        .map(|i| {
            args.get(i + 1)
                .ok_or_else(|| err(format!("{name} needs a value")))?
                .parse()
                .map_err(|_| err(format!("bad {name} value")))
        })
        .transpose()
}

fn path_flag(args: &[String], name: &str) -> Result<Option<String>, CliError> {
    args.iter()
        .position(|a| a == name)
        .map(|i| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| err(format!("{name} needs a path")))
        })
        .transpose()
}

/// `(flag, takes a value)`: the flags one command reads.
type Flags = &'static [(&'static str, bool)];

const SIMULATE_TRP_FLAGS: Flags = &[("--trials", true), ("--seed", true)];
const SIMULATE_UTRP_FLAGS: Flags = &[("--budget", true), ("--trials", true), ("--seed", true)];
const IDENTIFY_FLAGS: Flags = &[("--steal", true), ("--seed", true)];
const FAULTS_FLAGS: Flags = &[
    ("--quick", false),
    ("--trials", true),
    ("--seed", true),
    ("--metrics-out", true),
    ("--prom-out", true),
    ("--policy", true),
];
const SOAK_FLAGS: Flags = &[
    ("--seed", true),
    ("--ticks", true),
    ("--protocol", true),
    ("--report", true),
    ("--metrics-out", true),
    ("--trace-out", true),
    ("--prom-out", true),
    ("--spans-out", true),
    ("--spans-wall", false),
    ("--wal-out", true),
    ("--crash-at", true),
    ("--policy", true),
    ("--threads", true),
];
const RECOVER_FLAGS: Flags = &[("--report", true)];

/// Rejects every `--…` argument in `args[from..]` that is not in
/// `known`, and every flag given twice. The value after a flag that
/// takes one is skipped, so a path may start with `--`.
fn check_flags(args: &[String], from: usize, known: Flags) -> Result<(), CliError> {
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter().skip(from);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        let Some(&(name, takes_value)) = known.iter().find(|(name, _)| name == arg) else {
            return Err(err(format!(
                "unknown flag `{arg}` for `{}` (try `tagwatch-cli help`)",
                args[0]
            )));
        };
        if seen.contains(&name) {
            return Err(err(format!("{name} given more than once")));
        }
        seen.push(name);
        if takes_value {
            rest.next();
        }
    }
    Ok(())
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a user-facing [`CliError`] for unknown commands, for a flag
/// the command does not read or a flag given twice, and for malformed
/// values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first().map(String::as_str) else {
        return Ok(Command::Help);
    };
    // Checked before any value is read: a mistyped flag must not fall
    // back to a default and run (`--reprot x.json` would drop the
    // report). Positional paths of `inspect` are skipped, since a path
    // may start with `--`.
    let sub = args.get(1).map(String::as_str);
    let (from, known) = match (cmd, sub) {
        ("simulate", Some("utrp")) => (1, SIMULATE_UTRP_FLAGS),
        ("simulate", _) => (1, SIMULATE_TRP_FLAGS),
        ("identify", _) => (1, IDENTIFY_FLAGS),
        ("faults", _) => (1, FAULTS_FLAGS),
        ("soak", _) => (1, SOAK_FLAGS),
        ("recover", _) => (1, RECOVER_FLAGS),
        ("inspect", Some("diff")) => (4, &[][..]),
        ("inspect", _) => (2, &[][..]),
        ("help" | "--help" | "-h" | "size" | "detection" | "registry", _) => (1, &[][..]),
        // An unknown command is reported as such below.
        _ => (args.len(), &[][..]),
    };
    check_flags(args, from, known)?;
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "size" => match args.get(1).map(String::as_str) {
            Some("trp") => Ok(Command::SizeTrp {
                n: want(args, 2, "n")?,
                m: want(args, 3, "m")?,
                alpha: want(args, 4, "alpha")?,
            }),
            Some("utrp") => Ok(Command::SizeUtrp {
                n: want(args, 2, "n")?,
                m: want(args, 3, "m")?,
                alpha: want(args, 4, "alpha")?,
                c: if args.len() > 5 {
                    want(args, 5, "c")?
                } else {
                    20
                },
            }),
            _ => Err(err("usage: size trp|utrp <n> <m> <alpha> [c]")),
        },
        "detection" => Ok(Command::Detection {
            n: want(args, 1, "n")?,
            x: want(args, 2, "x")?,
            f: want(args, 3, "f")?,
        }),
        "simulate" => {
            let trials = flag(args, "--trials", 500)?;
            let seed = flag(args, "--seed", 1)?;
            match args.get(1).map(String::as_str) {
                Some("trp") => Ok(Command::SimulateTrp {
                    n: want(args, 2, "n")?,
                    m: want(args, 3, "m")?,
                    trials,
                    seed,
                }),
                Some("utrp") => Ok(Command::SimulateUtrp {
                    n: want(args, 2, "n")?,
                    m: want(args, 3, "m")?,
                    budget: flag(args, "--budget", 20)?,
                    trials,
                    seed,
                }),
                _ => Err(err(
                    "usage: simulate trp|utrp <n> <m> [--budget C] [--trials T] [--seed S]",
                )),
            }
        }
        "faults" => Ok(Command::Faults {
            quick: args.iter().any(|a| a == "--quick"),
            trials: flag(args, "--trials", 100)?,
            seed: flag(args, "--seed", 1)?,
            metrics_out: path_flag(args, "--metrics-out")?,
            prom_out: path_flag(args, "--prom-out")?,
            policy: path_flag(args, "--policy")?,
        }),
        "soak" => {
            let utrp = match args.iter().position(|a| a == "--protocol") {
                Some(i) => match args.get(i + 1).map(String::as_str) {
                    Some("trp") => false,
                    Some("utrp") => true,
                    _ => return Err(err("--protocol must be `trp` or `utrp`")),
                },
                None => true,
            };
            let wal_out = path_flag(args, "--wal-out")?;
            let crash_at = opt_flag(args, "--crash-at")?;
            if crash_at.is_some() && wal_out.is_none() {
                return Err(err(
                    "--crash-at needs --wal-out (the WAL is what survives the kill)",
                ));
            }
            let policy = path_flag(args, "--policy")?;
            if policy.is_some() && args.iter().any(|a| a == "--protocol") {
                return Err(err(
                    "--policy conflicts with --protocol (the policy document declares the protocol)",
                ));
            }
            let threads = flag(args, "--threads", 1)?;
            if threads == 0 {
                return Err(err("--threads must be at least 1"));
            }
            if threads > 1 && wal_out.is_some() {
                return Err(err(
                    "--threads applies to in-memory runs only (durable WAL runs are single-threaded)",
                ));
            }
            Ok(Command::Soak {
                seed: flag(args, "--seed", 1)?,
                ticks: flag(args, "--ticks", 5000)?,
                utrp,
                report: path_flag(args, "--report")?,
                metrics_out: path_flag(args, "--metrics-out")?,
                trace_out: path_flag(args, "--trace-out")?,
                prom_out: path_flag(args, "--prom-out")?,
                spans_out: path_flag(args, "--spans-out")?,
                spans_wall: args.iter().any(|a| a == "--spans-wall"),
                wal_out,
                crash_at,
                policy,
                threads,
            })
        }
        "recover" => Ok(Command::Recover {
            path: args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .ok_or_else(|| err("usage: recover <wal> [--report PATH]"))?,
            report: path_flag(args, "--report")?,
        }),
        "inspect" => match args.get(1).map(String::as_str) {
            Some("diff") => Ok(Command::InspectDiff {
                a: args
                    .get(2)
                    .cloned()
                    .ok_or_else(|| err("usage: inspect diff <a> <b>"))?,
                b: args
                    .get(3)
                    .cloned()
                    .ok_or_else(|| err("usage: inspect diff <a> <b>"))?,
            }),
            Some(path) => Ok(Command::Inspect {
                path: path.to_owned(),
            }),
            None => Err(err("usage: inspect <path> | inspect diff <a> <b>")),
        },
        "identify" => Ok(Command::Identify {
            n: want(args, 1, "n")?,
            steal: flag(args, "--steal", 5)?,
            seed: flag(args, "--seed", 1)?,
        }),
        "registry" => match args.get(1).map(String::as_str) {
            Some("new") => Ok(Command::RegistryNew {
                n: want(args, 2, "n")?,
                m: want(args, 3, "m")?,
                alpha: want(args, 4, "alpha")?,
            }),
            Some("info") => Ok(Command::RegistryInfo {
                text: String::new(),
            }),
            _ => Err(err("usage: registry new <n> <m> <alpha> | registry info")),
        },
        other => Err(err(format!(
            "unknown command `{other}` (try `tagwatch-cli help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_size_commands() {
        assert_eq!(
            parse(&argv("size trp 1000 10 0.95")).unwrap(),
            Command::SizeTrp {
                n: 1000,
                m: 10,
                alpha: 0.95
            }
        );
        assert_eq!(
            parse(&argv("size utrp 1000 10 0.95 40")).unwrap(),
            Command::SizeUtrp {
                n: 1000,
                m: 10,
                alpha: 0.95,
                c: 40
            }
        );
        // Default budget.
        assert!(matches!(
            parse(&argv("size utrp 1000 10 0.95")).unwrap(),
            Command::SizeUtrp { c: 20, .. }
        ));
    }

    #[test]
    fn parses_detection() {
        assert_eq!(
            parse(&argv("detection 500 6 700")).unwrap(),
            Command::Detection {
                n: 500,
                x: 6,
                f: 700
            }
        );
    }

    #[test]
    fn parses_simulate_with_flags() {
        assert_eq!(
            parse(&argv("simulate trp 300 5 --trials 50 --seed 9")).unwrap(),
            Command::SimulateTrp {
                n: 300,
                m: 5,
                trials: 50,
                seed: 9
            }
        );
        assert_eq!(
            parse(&argv("simulate utrp 300 5 --budget 30")).unwrap(),
            Command::SimulateUtrp {
                n: 300,
                m: 5,
                budget: 30,
                trials: 500,
                seed: 1
            }
        );
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_bad_input_with_messages() {
        let e = parse(&argv("size trp 1000 ten 0.95")).unwrap_err();
        assert!(e.message.contains("<m>"));
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(e.message.contains("unknown command"));
        let e = parse(&argv("simulate trp 300 5 --trials")).unwrap_err();
        assert!(e.message.contains("--trials"));
    }

    #[test]
    fn parses_identify() {
        assert_eq!(
            parse(&argv("identify 200 --steal 7 --seed 3")).unwrap(),
            Command::Identify {
                n: 200,
                steal: 7,
                seed: 3
            }
        );
        // Defaults.
        assert_eq!(
            parse(&argv("identify 200")).unwrap(),
            Command::Identify {
                n: 200,
                steal: 5,
                seed: 1
            }
        );
    }

    #[test]
    fn parses_faults() {
        assert_eq!(
            parse(&argv("faults --quick --trials 10 --seed 3")).unwrap(),
            Command::Faults {
                quick: true,
                trials: 10,
                seed: 3,
                metrics_out: None,
                prom_out: None,
                policy: None,
            }
        );
        // Defaults.
        assert_eq!(
            parse(&argv("faults")).unwrap(),
            Command::Faults {
                quick: false,
                trials: 100,
                seed: 1,
                metrics_out: None,
                prom_out: None,
                policy: None,
            }
        );
        assert!(matches!(
            parse(&argv("faults --metrics-out m.json")).unwrap(),
            Command::Faults { metrics_out: Some(p), .. } if p == "m.json"
        ));
        let e = parse(&argv("faults --metrics-out")).unwrap_err();
        assert!(e.message.contains("--metrics-out"));
    }

    #[test]
    fn parses_soak() {
        assert_eq!(
            parse(&argv(
                "soak --seed 7 --ticks 800 --protocol trp --report out.json"
            ))
            .unwrap(),
            Command::Soak {
                seed: 7,
                ticks: 800,
                utrp: false,
                report: Some("out.json".into()),
                metrics_out: None,
                trace_out: None,
                prom_out: None,
                spans_out: None,
                spans_wall: false,
                wal_out: None,
                crash_at: None,
                policy: None,
                threads: 1,
            }
        );
        // Defaults: seed 1, 5000 UTRP ticks, no report file.
        assert_eq!(
            parse(&argv("soak")).unwrap(),
            Command::Soak {
                seed: 1,
                ticks: 5000,
                utrp: true,
                report: None,
                metrics_out: None,
                trace_out: None,
                prom_out: None,
                spans_out: None,
                spans_wall: false,
                wal_out: None,
                crash_at: None,
                policy: None,
                threads: 1,
            }
        );
        assert!(matches!(
            parse(&argv("soak --metrics-out m.json --trace-out t.jsonl")).unwrap(),
            Command::Soak { metrics_out: Some(m), trace_out: Some(t), .. }
                if m == "m.json" && t == "t.jsonl"
        ));
        let e = parse(&argv("soak --protocol carrier-pigeon")).unwrap_err();
        assert!(e.message.contains("--protocol"));
        let e = parse(&argv("soak --report")).unwrap_err();
        assert!(e.message.contains("--report"));
        let e = parse(&argv("soak --trace-out")).unwrap_err();
        assert!(e.message.contains("--trace-out"));
    }

    #[test]
    fn parses_soak_durability_flags() {
        assert!(matches!(
            parse(&argv("soak --wal-out run.wal")).unwrap(),
            Command::Soak { wal_out: Some(w), crash_at: None, .. } if w == "run.wal"
        ));
        assert!(matches!(
            parse(&argv("soak --wal-out run.wal --crash-at 137")).unwrap(),
            Command::Soak {
                wal_out: Some(_),
                crash_at: Some(137),
                ..
            }
        ));
        // A crash without a WAL destination would lose the run.
        let e = parse(&argv("soak --crash-at 137")).unwrap_err();
        assert!(e.message.contains("--wal-out"), "{e}");
        let e = parse(&argv("soak --crash-at soon --wal-out w")).unwrap_err();
        assert!(e.message.contains("--crash-at"));
        let e = parse(&argv("soak --wal-out")).unwrap_err();
        assert!(e.message.contains("--wal-out"));
    }

    #[test]
    fn parses_policy_flags() {
        assert!(matches!(
            parse(&argv("soak --policy site.twp")).unwrap(),
            Command::Soak { policy: Some(p), .. } if p == "site.twp"
        ));
        assert!(matches!(
            parse(&argv("faults --quick --policy site.twp")).unwrap(),
            Command::Faults { policy: Some(p), .. } if p == "site.twp"
        ));
        // The policy document owns the protocol choice.
        let e = parse(&argv("soak --policy site.twp --protocol trp")).unwrap_err();
        assert!(e.message.contains("conflicts"), "{e}");
        let e = parse(&argv("soak --policy")).unwrap_err();
        assert!(e.message.contains("--policy"));
    }

    #[test]
    fn parses_recover() {
        assert_eq!(
            parse(&argv("recover results/run.wal")).unwrap(),
            Command::Recover {
                path: "results/run.wal".into(),
                report: None,
            }
        );
        assert_eq!(
            parse(&argv("recover run.wal --report out.json")).unwrap(),
            Command::Recover {
                path: "run.wal".into(),
                report: Some("out.json".into()),
            }
        );
        let e = parse(&argv("recover")).unwrap_err();
        assert!(e.message.contains("recover <wal>"));
        let e = parse(&argv("recover --report out.json")).unwrap_err();
        assert!(e.message.contains("recover <wal>"));
    }

    #[test]
    fn parses_inspect() {
        assert_eq!(
            parse(&argv("inspect results/metrics.json")).unwrap(),
            Command::Inspect {
                path: "results/metrics.json".into()
            }
        );
        let e = parse(&argv("inspect")).unwrap_err();
        assert!(e.message.contains("inspect <path>"));
    }

    #[test]
    fn parses_inspect_diff() {
        assert_eq!(
            parse(&argv("inspect diff a.jsonl b.jsonl")).unwrap(),
            Command::InspectDiff {
                a: "a.jsonl".into(),
                b: "b.jsonl".into(),
            }
        );
        let e = parse(&argv("inspect diff a.jsonl")).unwrap_err();
        assert!(e.message.contains("inspect diff <a> <b>"));
        let e = parse(&argv("inspect diff")).unwrap_err();
        assert!(e.message.contains("inspect diff <a> <b>"));
    }

    #[test]
    fn parses_observability_out_flags() {
        assert!(matches!(
            parse(&argv("soak --prom-out m.prom --spans-out s.jsonl")).unwrap(),
            Command::Soak { prom_out: Some(p), spans_out: Some(s), .. }
                if p == "m.prom" && s == "s.jsonl"
        ));
        assert!(matches!(
            parse(&argv("faults --quick --prom-out f.prom")).unwrap(),
            Command::Faults { prom_out: Some(p), .. } if p == "f.prom"
        ));
        assert!(matches!(
            parse(&argv("soak --spans-out s.jsonl --spans-wall")).unwrap(),
            Command::Soak {
                spans_wall: true,
                ..
            }
        ));
        let e = parse(&argv("soak --prom-out")).unwrap_err();
        assert!(e.message.contains("--prom-out"));
        let e = parse(&argv("soak --spans-out")).unwrap_err();
        assert!(e.message.contains("--spans-out"));
    }

    #[test]
    fn rejects_flags_the_command_does_not_read() {
        // A typo must not fall back to the default seed and run.
        for (line, flag) in [
            ("soak --seeed 7", "--seeed"),
            ("soak --bogus", "--bogus"),
            ("soak --ticks 5 --help", "--help"),
            ("faults --quick --ticks 5", "--ticks"),
            ("simulate trp 300 5 --budget 30", "--budget"),
            ("identify 200 --trials 9", "--trials"),
            ("recover run.wal --seed 2", "--seed"),
            ("inspect a.json --report out.json", "--report"),
            ("inspect diff a b --quick", "--quick"),
            ("size trp 1000 10 0.95 --seed 3", "--seed"),
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(e.message.contains(&format!("`{flag}`")), "{line}: {e}");
        }
        let e = parse(&argv("soak --ticks 5 --ticks 6")).unwrap_err();
        assert!(e.message.contains("--ticks given more than once"), "{e}");
        let e = parse(&argv("faults --quick --quick")).unwrap_err();
        assert!(e.message.contains("--quick given more than once"), "{e}");
        // A flag's value is not itself a flag, and a path argument of
        // `inspect` may start with `--`; an unknown command stays one.
        assert!(matches!(
            parse(&argv("soak --report --odd-name.json")).unwrap(),
            Command::Soak { report: Some(r), .. } if r == "--odd-name.json"
        ));
        assert!(matches!(
            parse(&argv("inspect --odd-name.json")).unwrap(),
            Command::Inspect { path } if path == "--odd-name.json"
        ));
        let e = parse(&argv("frobnicate --seed 1")).unwrap_err();
        assert!(e.message.contains("unknown command"), "{e}");
    }

    #[test]
    fn parses_registry_commands() {
        assert_eq!(
            parse(&argv("registry new 100 5 0.9")).unwrap(),
            Command::RegistryNew {
                n: 100,
                m: 5,
                alpha: 0.9
            }
        );
        assert!(matches!(
            parse(&argv("registry info")).unwrap(),
            Command::RegistryInfo { .. }
        ));
    }
}
