//! The tagwatch benchmark: one named workload per process, run from a
//! seed for a fixed number of seconds, with every output checked.
//!
//! ```text
//! tagwatch-benchmark --workload NAME --seed S [--seconds T] [--trace 0|1 | --traced]
//! tagwatch-benchmark spread < runs.jsonl
//! ```
//!
//! A run prints one `name value unit` line per metric, `#` lines with
//! context (tail percentile, sample counts, tracing overhead), and as
//! its last line one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. Untraced runs report the end-to-end metrics,
//! traced runs the per-layer ones. `spread` reads such JSON lines and
//! prints each metric's median and quartile spread over the runs.
//! See README.md in this directory for the workloads and metrics.

mod common;
mod fleet;
mod journal;
mod soak;
mod stats;
mod timed;

use std::io::BufRead;
use std::process::ExitCode;

use common::Outcome;

const USAGE: &str = "usage: tagwatch-benchmark --workload soak|fleet|journal --seed S \
                     [--seconds T] [--trace 0|1 | --traced]\n       \
                     tagwatch-benchmark spread < runs.jsonl";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            "--traced" => traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let Args {
        seed,
        seconds,
        traced,
        ..
    } = *args;
    match (args.workload.as_str(), traced) {
        ("soak", false) => soak::untraced(seed, seconds),
        ("soak", true) => soak::traced(seed, seconds),
        ("fleet", false) => fleet::untraced(seed, seconds),
        ("fleet", true) => fleet::traced(seed, seconds),
        ("journal", false) => journal::untraced(seed, seconds),
        ("journal", true) => journal::traced(seed, seconds),
        (other, _) => Err(format!("unknown workload `{other}`")),
    }
}

/// Reads result lines from stdin and prints, per metric, the median,
/// the quartiles and the quartile spread as a share of the median.
fn spread() -> ExitCode {
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else {
            eprintln!("spread: unreadable input");
            return ExitCode::from(2);
        };
        let metrics = common::parse_metrics(&line);
        if !metrics.is_empty() {
            runs.push(metrics);
        }
    }
    let Some(first) = runs.first() else {
        eprintln!("spread: no result lines on stdin");
        return ExitCode::from(2);
    };
    println!("{} runs", runs.len());
    for (name, _) in first {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
            .collect();
        let med = stats::median(&values).unwrap_or(f64::NAN);
        match (stats::quartiles(&values), stats::spread(&values)) {
            (Some([q1, _, q3]), Some(s)) => {
                println!("{name:<28} median {med:.6} q1 {q1:.6} q3 {q3:.6} spread {s:.4}")
            }
            _ => println!("{name:<28} median {med:.6} (spread undefined)"),
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("spread") {
        return spread();
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            print!("{}", outcome.render(&args.workload, args.seed, args.traced));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn trace_flag_and_traced_alias_parse() {
        let a = args(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("fleet", 7, 12.0, true)
        );
        let a = args(&["--workload", "soak", "--seed", "3", "--traced"]).unwrap();
        assert!(a.traced);
        assert_eq!(a.seconds, 10.0);
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        assert!(args(&["--workload", "soak"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "soak", "--seed", "x"]).is_err());
        assert!(args(&["--workload", "soak", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "soak", "--seed", "1", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "soak", "--seed", "1", "--bogus"]).is_err());
    }
}
