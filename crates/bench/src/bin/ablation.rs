//! Supplementary ablations (not figures from the paper, but design
//! choices its text argues for):
//!
//! * **safety pad** — the "+5–10 slots" the paper adds on top of the
//!   Eq. 3 minimum (because Theorem 3's horizon is an expectation):
//!   measured detection with pads 0/4/8/16;
//! * **attacker budget** — the frame is sized for `c = 20`; how does
//!   detection degrade if the real colluders afford more syncs than the
//!   deadline model assumed?

#![forbid(unsafe_code)]

use tagwatch_analytics::{budget_sweep, pad_ablation, Table};
use tagwatch_bench::{banner, sweep_from_args, OutputMode};

fn main() {
    let (mut config, mode) = sweep_from_args(&[]);
    // Ablations fix m = 10 and need fewer n points than the figures.
    config.n_values.retain(|&n| n % 500 == 0 || n == 100);
    banner(
        "Ablations",
        "safety pad and attacker budget (m = 10)",
        &config,
    );

    let pad_rows = pad_ablation(&config).expect("sweep grid rejected by core");
    let budget_rows = budget_sweep(&config).expect("sweep grid rejected by core");

    if mode == OutputMode::Csv {
        let mut t = Table::new(["experiment", "knob", "n", "frame", "rate"]);
        for r in &pad_rows {
            t.push_row([
                "pad".to_owned(),
                r.pad.to_string(),
                r.n.to_string(),
                r.frame.to_string(),
                format!("{:.4}", r.detection.rate()),
            ]);
        }
        for r in &budget_rows {
            t.push_row([
                "budget".to_owned(),
                r.attacker_budget.to_string(),
                r.n.to_string(),
                r.frame.to_string(),
                format!("{:.4}", r.detection.rate()),
            ]);
        }
        print!("{}", t.to_csv());
        return;
    }

    println!("--- safety pad on the Eq. 3 frame (design c = 20) ---");
    let mut t = Table::new(["pad", "n", "frame", "detection rate"]);
    for r in &pad_rows {
        t.push_row([
            format!("+{}", r.pad),
            r.n.to_string(),
            r.frame.to_string(),
            format!("{:.4}", r.detection.rate()),
        ]);
    }
    print!("{}", t.to_text());
    println!();

    println!("--- attacker budget vs a frame sized for c = 20 ---");
    let mut t = Table::new(["attacker c", "n", "frame", "detection rate"]);
    for r in &budget_rows {
        t.push_row([
            r.attacker_budget.to_string(),
            r.n.to_string(),
            r.frame.to_string(),
            format!("{:.4}", r.detection.rate()),
        ]);
    }
    print!("{}", t.to_text());
}
