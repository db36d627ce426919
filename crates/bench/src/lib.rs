//! # tagwatch-bench
//!
//! Figure-regeneration binaries for the reproduction of Tan, Sheng & Li
//! (ICDCS 2008). Speed is measured by the repository benchmark in
//! `benchmark/`, not here.
//!
//! ## Binaries
//!
//! One binary per evaluation figure; each prints the figure's data as
//! aligned tables (one panel per tolerance `m`) plus CSV:
//!
//! ```text
//! cargo run --release -p tagwatch-bench --bin fig4   # collect-all vs TRP slots
//! cargo run --release -p tagwatch-bench --bin fig5   # TRP detection probability
//! cargo run --release -p tagwatch-bench --bin fig6   # TRP vs UTRP frame sizes
//! cargo run --release -p tagwatch-bench --bin fig7   # UTRP detection vs colluders
//! cargo run --release -p tagwatch-bench --bin ablation  # safety pad, attacker budget
//! ```
//!
//! Flags/environment (anything else exits with status 2 and an error
//! that names the input):
//! * `--quick` — reduced grid (4 population sizes, 100 trials);
//! * `--csv` — emit CSV instead of aligned tables;
//! * `--time` — fig4 only: Gen2 air time instead of slots;
//! * `TAGWATCH_TRIALS=N` — Monte-Carlo trials per cell, a positive
//!   integer (collect-all cells run `N / 10`, at least 1, capped at the
//!   grid's own count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ffi::OsStr;

use tagwatch_analytics::SweepConfig;

/// The environment variable that overrides Monte-Carlo trial counts.
const TRIALS_VAR: &str = "TAGWATCH_TRIALS";

/// Reads the common figure flags from argv and the trial override from
/// `TAGWATCH_TRIALS` into a sweep configuration.
///
/// `--quick` selects the reduced grid; otherwise the paper's full grid
/// runs. `extra_flags` are flags the binary reads from argv itself
/// (fig4's `--time`). Any other argument, or a trial count that is not
/// a positive integer, prints an error naming it and exits with
/// status 2.
#[must_use]
pub fn sweep_from_args(extra_flags: &[&str]) -> (SweepConfig, OutputMode) {
    let trials = std::env::var_os(TRIALS_VAR);
    parse_sweep(std::env::args().skip(1), extra_flags, trials.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// [`sweep_from_args`] over explicit inputs: `trials` is the raw
/// `TAGWATCH_TRIALS` value, if set.
fn parse_sweep<I: IntoIterator<Item = String>>(
    args: I,
    extra_flags: &[&str],
    trials: Option<&OsStr>,
) -> Result<(SweepConfig, OutputMode), String> {
    let mut quick = false;
    let mut mode = OutputMode::Table;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => mode = OutputMode::Csv,
            flag if extra_flags.contains(&flag) => {}
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    let mut config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::paper()
    };
    if let Some(raw) = trials {
        let t = raw
            .to_str()
            .and_then(|t| t.parse::<u64>().ok())
            .filter(|&t| t > 0)
            .ok_or_else(|| {
                format!(
                    "{TRIALS_VAR}=`{}` is not a positive trial count",
                    raw.to_string_lossy()
                )
            })?;
        config.trials = t;
        config.collect_trials = (t / 10).clamp(1, config.collect_trials.max(1));
    }
    Ok((config, mode))
}

/// How a figure binary renders its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Aligned terminal tables per tolerance panel.
    Table,
    /// One CSV block.
    Csv,
}

/// Prints the standard figure banner.
pub fn banner(figure: &str, what: &str, config: &SweepConfig) {
    println!("=== {figure}: {what} ===");
    println!(
        "grid: n in {:?} (x{}), m in {:?}, alpha = {}, trials = {}, c = {}",
        (
            config.n_values.first().copied().unwrap_or(0),
            config.n_values.last().copied().unwrap_or(0)
        ),
        config.n_values.len(),
        config.m_values,
        config.alpha,
        config.trials,
        config.sync_budget,
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], trials: Option<&str>) -> Result<(SweepConfig, OutputMode), String> {
        let args = args.iter().map(|a| (*a).to_owned());
        parse_sweep(args, &["--time"], trials.map(OsStr::new))
    }

    #[test]
    fn default_args_select_paper_grid() {
        let (cfg, mode) = parse(&[], None).unwrap();
        assert_eq!(cfg.n_values.len(), 20);
        assert_eq!(cfg.trials, 1000);
        assert_eq!(mode, OutputMode::Table);
    }

    #[test]
    fn quick_and_csv_flags_parse() {
        let (cfg, mode) = parse(&["--quick", "--csv"], None).unwrap();
        assert_eq!(cfg.n_values.len(), 4);
        assert_eq!(mode, OutputMode::Csv);
    }

    #[test]
    fn unknown_arguments_are_rejected_by_name() {
        for bad in ["--quik", "--frobnicate", "quick", "-q"] {
            let err = parse(&["--quick", bad], None).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
        // A binary's own flag passes only where that binary declares it.
        assert!(parse(&["--time"], None).is_ok());
        let err = parse_sweep(["--time".to_owned()], &[], None).unwrap_err();
        assert!(err.contains("`--time`"), "{err}");
    }

    #[test]
    fn trials_override_scales_both_counts() {
        let (cfg, _) = parse(&["--quick"], Some("25")).unwrap();
        assert_eq!((cfg.trials, cfg.collect_trials), (25, 2));
        let (cfg, _) = parse(&["--quick"], Some("7")).unwrap();
        assert_eq!((cfg.trials, cfg.collect_trials), (7, 1));
        let (cfg, _) = parse(&[], Some("5000")).unwrap();
        assert_eq!((cfg.trials, cfg.collect_trials), (5000, 25));
    }

    #[test]
    fn bad_trial_counts_are_rejected_by_value() {
        for bad in ["0", "", "abc", "-3", "2.5", " 7"] {
            let err = parse(&["--quick"], Some(bad)).unwrap_err();
            assert!(
                err.contains(&format!("TAGWATCH_TRIALS=`{bad}`")),
                "{bad:?}: {err}"
            );
        }
    }
}
