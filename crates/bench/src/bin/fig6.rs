//! Fig. 6 — frame sizes: TRP (Eq. 2) vs UTRP (Eq. 3 + pad), `c = 20`.
//!
//! Paper shape: UTRP needs somewhat more slots than TRP, but the
//! overhead is small — collusion resistance is cheap in slots.

#![forbid(unsafe_code)]

use tagwatch_analytics::{fig6, sparkline, Table};
use tagwatch_bench::{banner, sweep_from_args, OutputMode};

fn main() {
    let (config, mode) = sweep_from_args(&[]);
    banner("Fig. 6", "frame sizes, TRP vs UTRP (c = 20)", &config);
    let rows = fig6(&config).expect("sweep grid rejected by core");

    if mode == OutputMode::Csv {
        let mut table = Table::new(["m", "n", "trp_slots", "utrp_slots"]);
        for r in &rows {
            table.push_row([
                r.m.to_string(),
                r.n.to_string(),
                r.trp_slots.to_string(),
                r.utrp_slots.to_string(),
            ]);
        }
        print!("{}", table.to_csv());
        return;
    }

    for &m in &config.m_values {
        println!("--- tolerate m = {m}, c = {} ---", config.sync_budget);
        let mut table = Table::new(["n", "TRP (slots)", "UTRP (slots)", "overhead"]);
        let panel: Vec<_> = rows.iter().filter(|r| r.m == m).collect();
        for r in &panel {
            table.push_row([
                r.n.to_string(),
                r.trp_slots.to_string(),
                r.utrp_slots.to_string(),
                format!("+{}", r.utrp_slots.saturating_sub(r.trp_slots)),
            ]);
        }
        print!("{}", table.to_text());
        println!(
            "trp {}  utrp {}",
            sparkline(&panel.iter().map(|r| r.trp_slots as f64).collect::<Vec<_>>()),
            sparkline(
                &panel
                    .iter()
                    .map(|r| r.utrp_slots as f64)
                    .collect::<Vec<_>>()
            ),
        );
        println!();
    }
}
