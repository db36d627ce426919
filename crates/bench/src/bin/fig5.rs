//! Fig. 5 — TRP accuracy: detection probability when the adversary
//! steals exactly `m + 1` tags, with `f` from Eq. 2 and `α = 0.95`.
//!
//! Paper shape: every bar sits just above the `α = 0.95` line (the
//! frame is the *minimal* one satisfying the constraint, so there is no
//! headroom to waste).

#![forbid(unsafe_code)]

use tagwatch_analytics::{fig5, sparkline, Table};
use tagwatch_bench::{banner, sweep_from_args, OutputMode};

fn main() {
    let (config, mode) = sweep_from_args(&[]);
    banner(
        "Fig. 5",
        "TRP detection probability, adversary steals m+1 tags",
        &config,
    );
    let rows = fig5(&config).expect("sweep grid rejected by core");

    if mode == OutputMode::Csv {
        let mut table = Table::new(["m", "n", "frame", "detected", "trials", "rate"]);
        for r in &rows {
            table.push_row([
                r.m.to_string(),
                r.n.to_string(),
                r.frame.to_string(),
                r.detection.successes.to_string(),
                r.detection.trials.to_string(),
                format!("{:.4}", r.detection.rate()),
            ]);
        }
        print!("{}", table.to_csv());
        return;
    }

    for &m in &config.m_values {
        println!("--- adversary steals m+1 = {} tags ---", m + 1);
        let mut table = Table::new(["n", "frame f", "detection rate", "95% CI", ">= alpha?"]);
        let panel: Vec<_> = rows.iter().filter(|r| r.m == m).collect();
        for r in &panel {
            let (lo, hi) = r.detection.wilson_interval(1.96);
            table.push_row([
                r.n.to_string(),
                r.frame.to_string(),
                format!("{:.4}", r.detection.rate()),
                format!("[{lo:.3}, {hi:.3}]"),
                if r.detection.rate() >= config.alpha {
                    "yes"
                } else {
                    "(below)"
                }
                .to_owned(),
            ]);
        }
        print!("{}", table.to_text());
        println!(
            "rate {}  (alpha = {})",
            sparkline(&panel.iter().map(|r| r.detection.rate()).collect::<Vec<_>>()),
            config.alpha
        );
        println!();
    }
}
