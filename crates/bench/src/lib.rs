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
//! Flags/environment:
//! * `--quick` — reduced grid (4 population sizes, 100 trials);
//! * `--csv` — emit CSV instead of aligned tables;
//! * `TAGWATCH_TRIALS=N` — override the Monte-Carlo trial count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tagwatch_analytics::SweepConfig;

/// Parses the common binary flags into a sweep configuration.
///
/// `--quick` selects the reduced grid; otherwise the paper's full grid
/// runs. `TAGWATCH_TRIALS` overrides trial counts either way.
#[must_use]
pub fn sweep_from_args<I: IntoIterator<Item = String>>(args: I) -> (SweepConfig, OutputMode) {
    let mut quick = false;
    let mut mode = OutputMode::Table;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => mode = OutputMode::Csv,
            _ => {}
        }
    }
    let config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::paper()
    };
    (config.with_env_overrides(), mode)
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

    #[test]
    fn default_args_select_paper_grid() {
        let (cfg, mode) = sweep_from_args(Vec::<String>::new());
        assert_eq!(cfg.n_values.len(), 20);
        assert_eq!(mode, OutputMode::Table);
    }

    #[test]
    fn quick_and_csv_flags_parse() {
        let (cfg, mode) = sweep_from_args(vec!["--quick".to_owned(), "--csv".to_owned()]);
        assert_eq!(cfg.n_values.len(), 4);
        assert_eq!(mode, OutputMode::Csv);
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let (cfg, mode) = sweep_from_args(vec!["--frobnicate".to_owned()]);
        assert_eq!(cfg.n_values.len(), 20);
        assert_eq!(mode, OutputMode::Table);
    }
}
