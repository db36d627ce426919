//! Fig. 4 — scanning cost: collect-all vs TRP, four tolerance panels.
//!
//! Paper shape: both curves grow linearly in `n`; TRP sits below
//! collect-all everywhere, and the gap widens with `n` and with `m`.

#![forbid(unsafe_code)]

use tagwatch_analytics::{fig4, fig4_time, sparkline, Table};
use tagwatch_bench::{banner, sweep_from_args, OutputMode};

fn main() {
    let (config, mode) = sweep_from_args(&["--time"]);

    // `--time` prints the Gen2 air-time companion instead of slots
    // (the paper's footnote that collect-all slots carry 96-bit IDs).
    if std::env::args().skip(1).any(|a| a == "--time") {
        banner(
            "Fig. 4 (time domain)",
            "air time, collect-all vs TRP",
            &config,
        );
        let rows = fig4_time(&config).expect("sweep grid rejected by core");
        for &m in &config.m_values {
            println!("--- tolerate m = {m} missing tags ---");
            let mut table = Table::new(["n", "collect all (ms)", "TRP (ms)", "TRP/collect"]);
            for r in rows.iter().filter(|r| r.m == m) {
                table.push_row([
                    r.n.to_string(),
                    format!("{:.1}", r.collect_all_micros.mean / 1e3),
                    format!("{:.1}", r.trp_micros as f64 / 1e3),
                    format!("{:.3}", r.trp_micros as f64 / r.collect_all_micros.mean),
                ]);
            }
            print!("{}", table.to_text());
            println!();
        }
        return;
    }

    banner("Fig. 4", "number of slots, collect-all vs TRP", &config);
    let rows = fig4(&config).expect("sweep grid rejected by core");

    if mode == OutputMode::Csv {
        let mut table = Table::new(["m", "n", "collect_all_slots", "trp_slots"]);
        for r in &rows {
            table.push_row([
                r.m.to_string(),
                r.n.to_string(),
                format!("{:.1}", r.collect_all_slots.mean),
                r.trp_slots.to_string(),
            ]);
        }
        print!("{}", table.to_csv());
        return;
    }

    for &m in &config.m_values {
        println!("--- tolerate m = {m} missing tags ---");
        let mut table = Table::new(["n", "collect all (slots)", "TRP (slots)", "TRP/collect"]);
        let panel: Vec<_> = rows.iter().filter(|r| r.m == m).collect();
        for r in &panel {
            table.push_row([
                r.n.to_string(),
                format!(
                    "{:.0} ± {:.0}",
                    r.collect_all_slots.mean,
                    r.collect_all_slots.std_err()
                ),
                r.trp_slots.to_string(),
                format!("{:.2}", r.trp_slots as f64 / r.collect_all_slots.mean),
            ]);
        }
        print!("{}", table.to_text());
        println!(
            "collect-all {}  trp {}",
            sparkline(
                &panel
                    .iter()
                    .map(|r| r.collect_all_slots.mean)
                    .collect::<Vec<_>>()
            ),
            sparkline(&panel.iter().map(|r| r.trp_slots as f64).collect::<Vec<_>>()),
        );
        println!();
    }
}
