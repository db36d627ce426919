//! Argument parsing for the `tagwatch-cli` binary.
//!
//! Hand-rolled on purpose: the workspace's dependency policy admits no
//! argument-parsing crates. Each command's grammar — the words that
//! name it, its positional slots and its flags — is listed once, in
//! `SPECS`. One left-to-right walk over argv reads that table and
//! gives every token exactly one role, and `help` renders the same
//! table, so the parser and the usage text cannot drift apart.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use tagwatch_analytics::PolicyError;

use crate::faults::FaultsCmd;
use crate::soak::SoakCmd;

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `size trp` — Eq. 2 frame size.
    SizeTrp {
        /// Population size.
        n: u64,
        /// Tolerance.
        m: u64,
        /// Confidence.
        alpha: f64,
    },
    /// `size utrp` — Eq. 3 frame size.
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
    /// `detection` — evaluate g(n, x, f).
    Detection {
        /// Population size.
        n: u64,
        /// Missing-tag count.
        x: u64,
        /// Frame size.
        f: u64,
    },
    /// `simulate trp` — Monte-Carlo TRP detection.
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
    /// `simulate utrp` — Monte-Carlo UTRP detection against colluders.
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
    /// `identify` — demo run of the missing-tag identification protocol.
    Identify {
        /// Population size, at least 1.
        n: u64,
        /// Number of tags stolen before identification, less than `n`.
        steal: u64,
        /// Root seed.
        seed: u64,
    },
    /// `faults` — run the named fault-scenario matrix and print
    /// per-scenario alarm / desync / recovery rates.
    Faults(FaultsCmd),
    /// `soak` — run the long-horizon soak driver and print its digest.
    Soak(SoakCmd),
    /// `recover` — warm-restart a soak from its WAL, re-verify every
    /// recorded tick, run it to completion, and print the verified
    /// report digest.
    Recover {
        /// Path of the WAL to recover.
        path: String,
        /// Where to write the completed run's JSON report, if anywhere.
        report: Option<String>,
    },
    /// `inspect` — summarize an exported telemetry artifact (a
    /// metrics snapshot, a JSONL event trace, a span tree, or a policy
    /// document, auto-detected).
    Inspect {
        /// Path of the artifact to summarize.
        path: String,
    },
    /// `inspect diff` — compare two artifacts of the same kind
    /// and report the first divergence (event, span, or metric).
    InspectDiff {
        /// Path of the baseline artifact.
        a: String,
        /// Path of the artifact to compare against it.
        b: String,
    },
    /// `registry new` — print a fresh snapshot.
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

impl CliError {
    /// An error whose message is `message` rendered, e.g. a library
    /// error passed through `map_err(CliError::new)`.
    pub(crate) fn new(message: impl fmt::Display) -> Self {
        CliError {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for CliError {}

impl From<PolicyError> for CliError {
    /// A policy error arrives rendered as rustc-style `error:` blocks.
    /// The binary prints every error after one `error: `, so the first
    /// block drops its own.
    fn from(e: PolicyError) -> Self {
        let message = e.message.strip_prefix("error: ").unwrap_or(&e.message);
        CliError::new(message)
    }
}

/// One flag a command reads: its usage, the flag as typed and then the
/// placeholder of its value if it takes one (`--seed S`, or `--quick`
/// for a switch), and its one-line help.
struct Flag(&'static str, &'static str);

impl Flag {
    fn name(&self) -> &'static str {
        self.0.split_once(' ').map_or(self.0, |(name, _)| name)
    }

    fn takes_value(&self) -> bool {
        self.0.contains(' ')
    }
}

/// One command's grammar.
struct Spec {
    /// The words that name the command, e.g. `size trp`.
    words: &'static str,
    /// Positional slots in order: `<x>` is required, `[x]` optional.
    slots: &'static str,
    /// The flags the command reads.
    flags: &'static [Flag],
    /// One-line help.
    about: &'static str,
}

const SEED: Flag = Flag("--seed S", "root seed");
const SIM_TRIALS: Flag = Flag("--trials T", "Monte-Carlo trials");
const METRICS_OUT: Flag = Flag("--metrics-out PATH", "write the metrics snapshot");
const PROM_OUT: Flag = Flag("--prom-out PATH", "write the metrics as Prometheus text");
const REPORT: Flag = Flag("--report PATH", "write the JSON report there");

/// Every command the CLI knows, in `help` order.
const SPECS: &[Spec] = &[
    Spec {
        words: "size trp",
        slots: "<n> <m> <alpha>",
        flags: &[],
        about: "Eq. 2 frame size",
    },
    Spec {
        words: "size utrp",
        slots: "<n> <m> <alpha> [c]",
        flags: &[],
        about: "Eq. 3 frame size (+8 pad) against colluders with sync budget c",
    },
    Spec {
        words: "detection",
        slots: "<n> <x> <f>",
        flags: &[],
        about: "evaluate g(n, x, f)",
    },
    Spec {
        words: "simulate trp",
        slots: "<n> <m>",
        flags: &[SIM_TRIALS, SEED],
        about: "Monte-Carlo TRP detection when m + 1 tags are stolen",
    },
    Spec {
        words: "simulate utrp",
        slots: "<n> <m>",
        flags: &[Flag("--budget C", "colluder sync budget"), SIM_TRIALS, SEED],
        about: "Monte-Carlo UTRP detection against best-strategy colluders",
    },
    Spec {
        words: "identify",
        slots: "<n>",
        flags: &[Flag("--steal K", "tags stolen before identification"), SEED],
        about: "run missing-tag identification",
    },
    Spec {
        words: "faults",
        slots: "",
        flags: &[
            Flag("--quick", "cap trials at a smoke-test size"),
            Flag("--trials T", "trials per scenario"),
            SEED,
            METRICS_OUT,
            PROM_OUT,
            Flag("--policy FILE", "use a policy document's desync window"),
        ],
        about: "fault-scenario matrix (alarm / desync / recovery rates)",
    },
    Spec {
        words: "soak",
        slots: "",
        flags: &[
            SEED,
            Flag("--ticks T", "monitoring ticks to drive"),
            Flag("--protocol trp|utrp", "routine-tick protocol"),
            REPORT,
            METRICS_OUT,
            Flag("--trace-out PATH", "write the flight-recorder JSONL trace"),
            PROM_OUT,
            Flag("--spans-out PATH", "write the cost-clock span tree"),
            Flag("--spans-wall", "add wall time to spans (not byte-stable)"),
            Flag("--wal-out PATH", "journal the run to a write-ahead log"),
            Flag("--crash-at T", "stop before tick T (needs --wal-out)"),
            Flag("--policy FILE", "run under a policy document"),
        ],
        about: "long-horizon soak: Markov channel, scripted incidents, invariant checks",
    },
    Spec {
        words: "recover",
        slots: "<wal>",
        flags: &[REPORT],
        about: "resume a soak from its WAL, verify the replayed ticks and finish the run",
    },
    Spec {
        words: "inspect",
        slots: "<path>",
        flags: &[],
        about: "summarize a metrics snapshot, event trace, span tree or policy document",
    },
    Spec {
        words: "inspect diff",
        slots: "<a> <b>",
        flags: &[],
        about: "report the first divergence between two artifacts of the same kind",
    },
    Spec {
        words: "registry new",
        slots: "<n> <m> <alpha>",
        flags: &[],
        about: "print a fresh registry snapshot",
    },
    Spec {
        words: "registry info",
        slots: "",
        flags: &[],
        about: "summarize a registry snapshot read from stdin",
    },
    Spec {
        words: "help",
        slots: "",
        flags: &[],
        about: "print this text",
    },
];

/// Command lines `help` shows as examples.
const EXAMPLES: &[&str] = &[
    "size trp 1000 10 0.95",
    "simulate utrp 500 5 --budget 20 --trials 1000",
    "soak --ticks 200 --wal-out results/run.wal --crash-at 137",
    "recover results/run.wal --report results/recovered.json",
    "soak --ticks 200 --prom-out results/soak.prom --spans-out results/spans.jsonl",
    "inspect diff results/spans_a.jsonl results/spans_b.jsonl",
];

/// `words slots [--flag V]...`: one command's usage line.
fn usage(spec: &Spec) -> String {
    let flags: String = spec.flags.iter().map(|f| format!(" [{}]", f.0)).collect();
    format!("{} {}", spec.words, spec.slots)
        .trim_end()
        .to_owned()
        + &flags
}

/// The `help` text, rendered from the grammar table.
#[must_use]
pub(crate) fn help() -> String {
    let mut out = String::from(
        "tagwatch-cli - missing-RFID-tag monitoring toolbox (Tan, Sheng & Li, ICDCS 2008)\n\n\
         USAGE:\n",
    );
    for spec in SPECS {
        let head = format!("{} {}", spec.words, spec.slots);
        out.push_str(&format!(
            "  tagwatch-cli {}\n      {}\n",
            head.trim_end(),
            spec.about
        ));
        for flag in spec.flags {
            out.push_str(&format!("      {:<20} {}\n", flag.0, flag.1));
        }
    }
    out.push_str("\nEXAMPLES:\n");
    for example in EXAMPLES {
        out.push_str(&format!("  tagwatch-cli {example}\n"));
    }
    out
}

/// The roles one walk gave a command's tokens: each flag given, with
/// its value (`None` for a switch), and each positional value, under
/// its slot (`<n>`, `[c]`).
struct Walk<'a> {
    spec: &'static Spec,
    roles: Vec<(&'static str, Option<&'a str>)>,
}

/// Walks `tokens` (argv after the command words) left to right. Each
/// token is one of the command's flags, the value of the flag before
/// it, or the next positional slot; anything else fails, and the error
/// names it. A flag's value is never one of the command's own flag
/// names, so `--report --ticks 5` reports `--report` as missing its
/// value, but any other token may be a value, even `--odd-name.json`.
/// Where no flag is pending, a command with flags reads a `--` token as
/// a flag, so a typo fails by name instead of filling a slot; a command
/// without flags reads it as a positional (`inspect --odd-name.json`).
fn walk<'a>(spec: &'static Spec, tokens: &'a [String]) -> Result<Walk<'a>, CliError> {
    let find = |token: &str| spec.flags.iter().find(|f| f.name() == token);
    let mut slots = spec.slots.split_whitespace();
    let mut roles = Vec::new();
    let mut rest = tokens.iter().map(String::as_str);
    while let Some(token) = rest.next() {
        if let Some(flag) = find(token) {
            if roles.iter().any(|(role, _)| *role == flag.name()) {
                return Err(CliError::new(format!("{token} given more than once")));
            }
            let value = if flag.takes_value() {
                let value = rest.next().filter(|value| find(value).is_none());
                Some(value.ok_or_else(|| CliError::new(format!("{token} needs a value")))?)
            } else {
                None
            };
            roles.push((flag.name(), value));
        } else if token.starts_with("--") && !spec.flags.is_empty() {
            return Err(CliError::new(format!(
                "unknown flag `{token}` for `{}` (try `tagwatch-cli help`)",
                spec.words
            )));
        } else if let Some(slot) = slots.next() {
            roles.push((slot, Some(token)));
        } else {
            return Err(CliError::new(format!(
                "unexpected argument `{token}` for `{}` (usage: {})",
                spec.words,
                usage(spec)
            )));
        }
    }
    if let Some(slot) = slots.next().filter(|s| s.starts_with('<')) {
        let usage = usage(spec);
        return Err(CliError::new(format!("missing {slot} (usage: {usage})")));
    }
    Ok(Walk { spec, roles })
}

impl Walk<'_> {
    /// `Some` with its value (`None` for a switch) if `role`, a flag or
    /// a slot of the spec, was given.
    fn given(&self, role: &str) -> Option<Option<&str>> {
        let listed = self.spec.flags.iter().any(|f| f.name() == role)
            || self.spec.slots.split_whitespace().any(|slot| slot == role);
        assert!(
            listed,
            "`{}` reads {role}, not in its spec",
            self.spec.words
        );
        self.roles.iter().find(|(r, _)| *r == role).map(|(_, v)| *v)
    }

    /// The value given for `role`, as a `T`.
    fn get<T: FromStr>(&self, role: &str) -> Result<Option<T>, CliError> {
        self.given(role)
            .flatten()
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::new(format!("bad {role} value: `{v}`")))
            })
            .transpose()
    }

    /// The value of a required slot, which the walk has checked is given.
    fn need<T: FromStr>(&self, slot: &str) -> Result<T, CliError> {
        Ok(self.get(slot)?.expect("the walk fills every required slot"))
    }

    /// Whether the switch `flag` was given.
    fn switch(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// `--trials`, or `default` when it is not given: at least one,
    /// since no trials estimate nothing.
    fn trials(&self, default: u64) -> Result<u64, CliError> {
        match self.get("--trials")?.unwrap_or(default) {
            0 => Err(CliError::new("--trials must be at least 1")),
            trials => Ok(trials),
        }
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a user-facing [`CliError`], naming the offending token, for
/// an unknown command, a flag the command does not read or one given
/// twice, a flag without its value, a missing or surplus positional,
/// a malformed value, and the flag combinations `soak` refuses.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let word = |i: usize| match (i, args.get(i).map(String::as_str)) {
        (0, Some("--help" | "-h")) => Some("help"),
        (_, word) => word,
    };
    let Some(first) = word(0) else {
        return Ok(Command::Help);
    };
    let Some(spec) = SPECS
        .iter()
        .filter(|spec| {
            spec.words
                .split(' ')
                .enumerate()
                .all(|(i, w)| word(i) == Some(w))
        })
        .max_by_key(|spec| spec.words.len())
    else {
        let group: Vec<String> = SPECS
            .iter()
            .filter(|spec| spec.words.split(' ').next() == Some(first))
            .map(usage)
            .collect();
        return Err(CliError::new(match (group.is_empty(), word(1)) {
            (true, _) => format!("unknown command `{first}` (try `tagwatch-cli help`)"),
            (false, Some(sub)) => format!(
                "unknown `{first}` subcommand `{sub}` (usage: {})",
                group.join(" | ")
            ),
            (false, None) => format!("usage: {}", group.join(" | ")),
        }));
    };
    let a = walk(spec, &args[spec.words.split(' ').count()..])?;
    Ok(match spec.words {
        "help" => Command::Help,
        "size trp" => Command::SizeTrp {
            n: a.need("<n>")?,
            m: a.need("<m>")?,
            alpha: a.need("<alpha>")?,
        },
        "size utrp" => Command::SizeUtrp {
            n: a.need("<n>")?,
            m: a.need("<m>")?,
            alpha: a.need("<alpha>")?,
            c: a.get("[c]")?.unwrap_or(20),
        },
        "detection" => Command::Detection {
            n: a.need("<n>")?,
            x: a.need("<x>")?,
            f: a.need("<f>")?,
        },
        "simulate trp" => Command::SimulateTrp {
            n: a.need("<n>")?,
            m: a.need("<m>")?,
            trials: a.trials(500)?,
            seed: a.get("--seed")?.unwrap_or(1),
        },
        "simulate utrp" => Command::SimulateUtrp {
            n: a.need("<n>")?,
            m: a.need("<m>")?,
            budget: a.get("--budget")?.unwrap_or(20),
            trials: a.trials(500)?,
            seed: a.get("--seed")?.unwrap_or(1),
        },
        "identify" => {
            let n: u64 = a.need("<n>")?;
            if n == 0 {
                return Err(CliError::new("<n> must be at least 1"));
            }
            let given = a.get("--steal")?;
            let steal = given.unwrap_or(5);
            if steal >= n {
                let default = if given.is_none() {
                    " (the default)"
                } else {
                    ""
                };
                return Err(CliError::new(format!(
                    "--steal {steal}{default} must be less than <n> = {n}"
                )));
            }
            Command::Identify {
                n,
                steal,
                seed: a.get("--seed")?.unwrap_or(1),
            }
        }
        "faults" => {
            let d = FaultsCmd::default();
            Command::Faults(FaultsCmd {
                quick: a.switch("--quick") || d.quick,
                trials: a.get("--trials")?.unwrap_or(d.trials),
                seed: a.get("--seed")?.unwrap_or(d.seed),
                metrics_out: a.get("--metrics-out")?.or(d.metrics_out),
                prom_out: a.get("--prom-out")?.or(d.prom_out),
                policy: a.get("--policy")?.or(d.policy),
            })
        }
        "soak" => {
            let d = SoakCmd::default();
            let protocol: Option<String> = a.get("--protocol")?;
            let soak = SoakCmd {
                seed: a.get("--seed")?.unwrap_or(d.seed),
                ticks: a.get("--ticks")?.unwrap_or(d.ticks),
                utrp: match protocol.as_deref() {
                    None => d.utrp,
                    Some("trp") => false,
                    Some("utrp") => true,
                    Some(other) => {
                        return Err(CliError::new(format!(
                            "--protocol must be `trp` or `utrp`, not `{other}`"
                        )))
                    }
                },
                report: a.get("--report")?.or(d.report),
                metrics_out: a.get("--metrics-out")?.or(d.metrics_out),
                trace_out: a.get("--trace-out")?.or(d.trace_out),
                prom_out: a.get("--prom-out")?.or(d.prom_out),
                spans_out: a.get("--spans-out")?.or(d.spans_out),
                spans_wall: a.switch("--spans-wall") || d.spans_wall,
                wal_out: a.get("--wal-out")?.or(d.wal_out),
                crash_at: a.get("--crash-at")?.or(d.crash_at),
                policy: a.get("--policy")?.or(d.policy),
            };
            if soak.crash_at.is_some() && soak.wal_out.is_none() {
                return Err(CliError::new(
                    "--crash-at needs --wal-out (the WAL is what survives the kill)",
                ));
            }
            if let Some(tick) = soak.crash_at.filter(|&tick| tick >= soak.ticks) {
                return Err(CliError::new(format!(
                    "--crash-at {tick} never fires in a run of --ticks {} (ticks count from 0)",
                    soak.ticks
                )));
            }
            if soak.policy.is_some() && protocol.is_some() {
                return Err(CliError::new(
                    "--policy conflicts with --protocol (the policy document declares the protocol)",
                ));
            }
            Command::Soak(soak)
        }
        "recover" => Command::Recover {
            path: a.need("<wal>")?,
            report: a.get("--report")?,
        },
        "inspect" => Command::Inspect {
            path: a.need("<path>")?,
        },
        "inspect diff" => Command::InspectDiff {
            a: a.need("<a>")?,
            b: a.need("<b>")?,
        },
        "registry new" => Command::RegistryNew {
            n: a.need("<n>")?,
            m: a.need("<m>")?,
            alpha: a.need("<alpha>")?,
        },
        "registry info" => Command::RegistryInfo {
            text: String::new(),
        },
        other => unreachable!("no parse arm for `{other}`"),
    })
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
    fn identify_rejects_what_it_cannot_run_and_names_the_value() {
        let e = parse(&argv("identify 0")).unwrap_err();
        assert_eq!(e.message, "<n> must be at least 1");
        let e = parse(&argv("identify 0 --steal 0")).unwrap_err();
        assert_eq!(e.message, "<n> must be at least 1");
        let e = parse(&argv("identify 3")).unwrap_err();
        assert_eq!(
            e.message,
            "--steal 5 (the default) must be less than <n> = 3"
        );
        let e = parse(&argv("identify 5")).unwrap_err();
        assert_eq!(
            e.message,
            "--steal 5 (the default) must be less than <n> = 5"
        );
        let e = parse(&argv("identify 200 --steal 200 --seed 3")).unwrap_err();
        assert_eq!(e.message, "--steal 200 must be less than <n> = 200");
        assert_eq!(
            parse(&argv("identify 3 --steal 2")).unwrap(),
            Command::Identify {
                n: 3,
                steal: 2,
                seed: 1
            }
        );
        assert_eq!(
            parse(&argv("identify 1 --steal 0")).unwrap(),
            Command::Identify {
                n: 1,
                steal: 0,
                seed: 1
            }
        );
        assert!(matches!(
            parse(&argv("identify 6")).unwrap(),
            Command::Identify { n: 6, steal: 5, .. }
        ));
    }

    #[test]
    fn parses_faults() {
        assert_eq!(
            parse(&argv("faults --quick --trials 10 --seed 3")).unwrap(),
            Command::Faults(FaultsCmd {
                quick: true,
                trials: 10,
                seed: 3,
                metrics_out: None,
                prom_out: None,
                policy: None,
            })
        );
        // Defaults.
        assert_eq!(
            parse(&argv("faults")).unwrap(),
            Command::Faults(FaultsCmd {
                quick: false,
                trials: 100,
                seed: 1,
                metrics_out: None,
                prom_out: None,
                policy: None,
            })
        );
        assert!(matches!(
            parse(&argv("faults --metrics-out m.json")).unwrap(),
            Command::Faults(FaultsCmd { metrics_out: Some(p), .. }) if p == "m.json"
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
            Command::Soak(SoakCmd {
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
            })
        );
        // Defaults: seed 1, 5000 UTRP ticks, no report file.
        assert_eq!(
            parse(&argv("soak")).unwrap(),
            Command::Soak(SoakCmd {
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
            })
        );
        assert!(matches!(
            parse(&argv("soak --metrics-out m.json --trace-out t.jsonl")).unwrap(),
            Command::Soak(SoakCmd { metrics_out: Some(m), trace_out: Some(t), .. })
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
            Command::Soak(SoakCmd { wal_out: Some(w), crash_at: None, .. }) if w == "run.wal"
        ));
        assert!(matches!(
            parse(&argv("soak --wal-out run.wal --crash-at 137")).unwrap(),
            Command::Soak(SoakCmd {
                wal_out: Some(_),
                crash_at: Some(137),
                ..
            })
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
    fn crash_at_must_name_a_tick_the_run_reaches() {
        for line in [
            "soak --ticks 1 --crash-at 5 --wal-out x.wal",
            "soak --ticks 5 --crash-at 5 --wal-out x.wal",
            "soak --crash-at 5000 --wal-out x.wal",
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(
                e.message.contains("--crash-at") && e.message.contains("--ticks"),
                "{line}: {e}"
            );
        }
        // Ticks count from 0, so the run's first and last ticks both
        // fire.
        for (line, tick) in [
            ("soak --ticks 5 --crash-at 4 --wal-out x.wal", 4),
            ("soak --ticks 5 --crash-at 0 --wal-out x.wal", 0),
            ("soak --crash-at 4999 --wal-out x.wal", 4999),
        ] {
            assert!(
                matches!(
                    parse(&argv(line)).unwrap(),
                    Command::Soak(SoakCmd { crash_at: Some(t), .. }) if t == tick
                ),
                "{line}"
            );
        }
    }

    #[test]
    fn zero_trials_are_rejected() {
        for line in [
            "simulate trp 300 5 --trials 0",
            "simulate utrp 300 5 --trials 0",
            "simulate utrp 300 5 --budget 30 --trials 0 --seed 2",
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert_eq!(e.message, "--trials must be at least 1", "{line}");
        }
        assert!(matches!(
            parse(&argv("simulate trp 300 5 --trials 1")).unwrap(),
            Command::SimulateTrp { trials: 1, .. }
        ));
        assert!(matches!(
            parse(&argv("simulate utrp 300 5 --trials 1")).unwrap(),
            Command::SimulateUtrp { trials: 1, .. }
        ));
    }

    #[test]
    fn parses_policy_flags() {
        assert!(matches!(
            parse(&argv("soak --policy site.twp")).unwrap(),
            Command::Soak(SoakCmd { policy: Some(p), .. }) if p == "site.twp"
        ));
        assert!(matches!(
            parse(&argv("faults --quick --policy site.twp")).unwrap(),
            Command::Faults(FaultsCmd { policy: Some(p), .. }) if p == "site.twp"
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
            Command::Soak(SoakCmd { prom_out: Some(p), spans_out: Some(s), .. })
                if p == "m.prom" && s == "s.jsonl"
        ));
        assert!(matches!(
            parse(&argv("faults --quick --prom-out f.prom")).unwrap(),
            Command::Faults(FaultsCmd { prom_out: Some(p), .. }) if p == "f.prom"
        ));
        assert!(matches!(
            parse(&argv("soak --spans-out s.jsonl --spans-wall")).unwrap(),
            Command::Soak(SoakCmd {
                spans_wall: true,
                ..
            })
        ));
        let e = parse(&argv("soak --prom-out")).unwrap_err();
        assert!(e.message.contains("--prom-out"));
        let e = parse(&argv("soak --spans-out")).unwrap_err();
        assert!(e.message.contains("--spans-out"));
    }

    #[test]
    fn rejects_tokens_the_command_does_not_read() {
        // A typo must not fall back to the default seed and run, and a
        // surplus positional must not be dropped while the command runs.
        for (line, token) in [
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
            ("soak 7 --ticks 5", "7"),
            ("size trp 1000 10 0.95 oops", "oops"),
            ("detection 500 6 700 9", "9"),
            ("simulate trp 300 5 9 --trials 10", "9"),
            ("identify 200 300 --steal 3", "300"),
            ("registry new 10 2 0.9 extra", "extra"),
            ("recover a.wal b.wal", "b.wal"),
            ("inspect a.json b.json", "b.json"),
            ("inspect diff a b c", "c"),
            ("help me", "me"),
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(e.message.contains(&format!("`{token}`")), "{line}: {e}");
        }
        let e = parse(&argv("soak --ticks 5 --ticks 6")).unwrap_err();
        assert!(e.message.contains("--ticks given more than once"), "{e}");
        let e = parse(&argv("faults --quick --quick")).unwrap_err();
        assert!(e.message.contains("--quick given more than once"), "{e}");
        // A flag's value is never one of the command's own flags.
        for line in [
            "soak --report --ticks 5",
            "soak --ticks 5 --report --protocol",
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(e.message.contains("--report needs a value"), "{line}: {e}");
        }
        // A flag's value is not itself a flag, and a path argument of
        // `inspect` may start with `--`; an unknown command stays one.
        assert!(matches!(
            parse(&argv("soak --report --odd-name.json")).unwrap(),
            Command::Soak(SoakCmd { report: Some(r), .. }) if r == "--odd-name.json"
        ));
        assert!(matches!(
            parse(&argv("inspect --odd-name.json")).unwrap(),
            Command::Inspect { path } if path == "--odd-name.json"
        ));
        let e = parse(&argv("frobnicate --seed 1")).unwrap_err();
        assert!(e.message.contains("unknown command"), "{e}");
    }

    #[test]
    fn help_renders_every_command_and_flag_in_the_table() {
        let text = help();
        for spec in SPECS {
            let head = format!("{} {}", spec.words, spec.slots);
            let section = text
                .split("\n  tagwatch-cli ")
                .find(|s| s.lines().next() == Some(head.trim_end()))
                .unwrap_or_else(|| panic!("help has no `{head}` section:\n{text}"));
            for flag in spec.flags {
                assert!(
                    section.lines().any(|l| l.trim_start().starts_with(flag.0)),
                    "help for `{}` misses {}:\n{section}",
                    spec.words,
                    flag.0
                );
            }
        }
        for example in EXAMPLES {
            assert!(parse(&argv(example)).is_ok(), "example `{example}`");
        }
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

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Values and paths, including ones that look like flags.
        const VALUES: &[&str] = &[
            "0",
            "7",
            "20",
            "0.95",
            "trp",
            "utrp",
            "a.json",
            "out/run.wal",
            "--odd.json",
            "",
        ];

        /// Every word and flag in the table, the values, and junk.
        fn vocabulary() -> Vec<&'static str> {
            let mut tokens: Vec<&str> = SPECS.iter().flat_map(|s| s.words.split(' ')).collect();
            tokens.extend(SPECS.iter().flat_map(|s| s.flags.iter().map(Flag::name)));
            tokens.extend(VALUES);
            tokens.extend(["--junk", "--help", "-h"]);
            tokens
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// `parse` never panics, and a token appended to an argv
            /// that parses has no role left, so it fails by name. Most
            /// draws add one of the command's own flags, with a value
            /// when it takes one, so that many argv parse.
            #[test]
            fn every_token_gets_a_role_or_an_error(
                command in 0usize..SPECS.len() + 4,
                positionals in 0usize..10,
                draws in prop::collection::vec(any::<u64>(), 0..6),
            ) {
                let anywhere = vocabulary();
                let spec = SPECS.get(command);
                let flags = spec.map_or(&[][..], |s| s.flags);
                let mut args = spec.map_or_else(Vec::new, |s| argv(s.words));
                // Half the time, exactly as many values as the slots.
                let slots = spec.map_or(0, |s| s.slots.split_whitespace().count());
                let positionals = if positionals < 5 { positionals } else { slots };
                args.extend((0..positionals).map(|_| "7".to_owned()));
                for draw in draws {
                    let value = VALUES[(draw >> 32) as usize % VALUES.len()].to_owned();
                    match flags.get((draw >> 3) as usize % flags.len().max(1)) {
                        Some(flag) if draw % 8 != 0 => {
                            args.push(flag.name().to_owned());
                            if flag.takes_value() {
                                args.push(value);
                            }
                        }
                        _ => args.push(anywhere[(draw >> 3) as usize % anywhere.len()].to_owned()),
                    }
                }
                if parse(&args).is_ok() {
                    args.push("stray".to_owned());
                    match parse(&args) {
                        Ok(cmd) => prop_assert!(false, "{args:?} parsed to {cmd:?}"),
                        Err(e) => prop_assert!(e.message.contains("stray"), "{args:?}: {e}"),
                    }
                }
            }
        }
    }
}
