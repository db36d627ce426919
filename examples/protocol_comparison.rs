//! Protocol shoot-out: every inventory/monitoring strategy in the
//! workspace on one population, one table.
//!
//! ```text
//! cargo run --release --example protocol_comparison [n]
//! ```
//!
//! Compares, for a population of `n` tags (default 2 000):
//!
//! * collect-all DFSA (Lee-optimal frames) — full identification;
//! * query-tree — deterministic full identification;
//! * cardinality estimation — counting only;
//! * TRP — missing-tag monitoring, `m = 10`;
//! * UTRP — the same, hardened against dishonest readers.
//!
//! Slot counts and (Gen2-model) air time both matter: collect-all's
//! slots carry 96-bit IDs while TRP's carry 10-bit bursts, which is the
//! paper's point that Fig. 4 understates collect-all's real cost.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch::analytics::Table;
use tagwatch::prelude::*;
use tagwatch::protocols::collect_all::{collect_all, CollectAllConfig};
use tagwatch::protocols::estimate::{estimate_cardinality, EstimateConfig};
use tagwatch::protocols::query_tree::query_tree_inventory;
use tagwatch::protocols::tree_slotted::{tree_slotted_inventory, TsaConfig};

const M: u64 = 10;
const ALPHA: f64 = 0.95;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000);
    let mut rng = StdRng::seed_from_u64(99);
    let timing = TimingModel::gen2();
    let stock = TagPopulation::with_sequential_ids(n);
    let params = MonitorParams::new(n as u64, M, ALPHA)?;

    let mut table = Table::new([
        "strategy",
        "slots",
        "air time (s)",
        "IDs on air?",
        "what it answers",
    ]);

    // collect-all
    let mut reader = Reader::new(ReaderConfig {
        timing,
        ..ReaderConfig::default()
    });
    let mut floor = stock.clone();
    let run = collect_all(
        &mut reader,
        &mut floor,
        &Channel::ideal(),
        &CollectAllConfig::paper(n as u64, M),
        &mut rng,
    )?;
    table.push_row([
        "collect-all (DFSA)".to_owned(),
        run.total_slots.to_string(),
        format!("{:.2}", run.duration.as_secs_f64()),
        "yes (96-bit)".to_owned(),
        "which tags are present".to_owned(),
    ]);

    // query tree
    let qt = query_tree_inventory(&stock, &timing);
    table.push_row([
        "query tree".to_owned(),
        qt.total_queries.to_string(),
        format!("{:.2}", qt.duration.as_secs_f64()),
        "yes (96-bit)".to_owned(),
        "which tags are present".to_owned(),
    ]);

    // tree slotted ALOHA
    let tsa = tree_slotted_inventory(
        &stock,
        &TsaConfig::for_expected(n as u64)?,
        &timing,
        &mut rng,
    );
    table.push_row([
        "tree slotted ALOHA".to_owned(),
        tsa.total_slots.to_string(),
        format!("{:.2}", tsa.duration.as_secs_f64()),
        "yes (96-bit)".to_owned(),
        "which tags are present".to_owned(),
    ]);

    // estimation
    let mut est_reader = Reader::new(ReaderConfig {
        timing,
        ..ReaderConfig::default()
    });
    let est = estimate_cardinality(
        &mut est_reader,
        &stock,
        &Channel::ideal(),
        &EstimateConfig::for_expected(n as u64)?,
        &mut rng,
    );
    table.push_row([
        "cardinality estimate".to_owned(),
        est.total_slots.to_string(),
        format!("{:.2}", est_reader.clock().as_secs_f64()),
        "no".to_owned(),
        format!("how many (n̂ = {:.0})", est.estimate),
    ]);

    // TRP
    let f_trp = trp_frame_size(&params)?;
    let mut trp_reader = Reader::new(ReaderConfig {
        timing,
        ..ReaderConfig::default()
    });
    let challenge = TrpChallenge::generate(f_trp, &mut rng);
    let _bs = trp::run_reader(&mut trp_reader, &challenge, &stock, &Channel::ideal());
    table.push_row([
        format!("TRP (m = {M})"),
        f_trp.get().to_string(),
        format!("{:.2}", trp_reader.clock().as_secs_f64()),
        "no".to_owned(),
        format!("are > {M} tags missing? (conf {ALPHA})"),
    ]);

    // UTRP
    let f_utrp = utrp_frame_size(&params, UtrpSizing::default())?;
    let utrp_challenge = UtrpChallenge::generate(f_utrp, &timing, &mut rng);
    let mut utrp_floor = stock.clone();
    let response = utrp::run_honest_reader(&mut utrp_floor, &utrp_challenge, &timing)?;
    table.push_row([
        format!("UTRP (m = {M}, c = 20)"),
        f_utrp.get().to_string(),
        format!("{:.2}", response.elapsed.as_secs_f64()),
        "no".to_owned(),
        "same, vs a dishonest reader".to_owned(),
    ]);

    println!("population: {n} tags, tolerance m = {M}, alpha = {ALPHA}");
    println!();
    print!("{}", table.to_text());
    println!();
    println!(
        "note: identification protocols answer a stronger question and\n\
         cannot beat n slots; monitoring needs only enough slots to make\n\
         m + 1 = {} absences statistically visible.",
        M + 1
    );
    Ok(())
}
