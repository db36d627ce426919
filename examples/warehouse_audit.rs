//! Warehouse audit: the scenario from the paper's introduction.
//!
//! ```text
//! cargo run --release --example warehouse_audit
//! ```
//!
//! A retailer tags 5 000 items. Every audit cycle the reader scans the
//! floor; scratched or shelf-blocked tags (detuned, in this simulation)
//! come and go, which is exactly why the tolerance `m` exists. The
//! example contrasts three audit strategies on cost and outcome:
//!
//! 1. **collect-all** — inventory every ID (the classical baseline);
//! 2. **TRP** — one presence frame sized by Eq. 2;
//! 3. **cardinality estimation** — cheapest, but only counts tags.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch::prelude::*;
use tagwatch::protocols::collect_all::{collect_all, CollectAllConfig};
use tagwatch::protocols::estimate::{estimate_cardinality, EstimateConfig};

const N: usize = 5_000;
const TOLERANCE: u64 = 25;
const ALPHA: f64 = 0.95;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);
    let timing = TimingModel::gen2();

    let mut floor = TagPopulation::with_sequential_ids(N);
    let mut server = MonitorServer::new(floor.ids(), TOLERANCE, ALPHA)?;

    // A handful of tags are unreadable this week (shelf blocking).
    let blocked = floor.detune_random(4, &mut rng)?;
    println!(
        "warehouse: {N} items, {} unreadable (blocked), tolerance m = {TOLERANCE}",
        blocked.len()
    );
    println!();

    // --- Strategy 1: collect-all ---------------------------------------
    let mut reader = Reader::new(ReaderConfig {
        timing,
        ..ReaderConfig::default()
    });
    let mut inventory_floor = floor.clone();
    let run = collect_all(
        &mut reader,
        &mut inventory_floor,
        &Channel::ideal(),
        &CollectAllConfig::paper(N as u64, TOLERANCE),
        &mut rng,
    )?;
    println!(
        "collect-all: {} IDs in {} slots over {} rounds ({:.1} s of air time)",
        run.collected.len(),
        run.total_slots,
        run.rounds,
        run.duration.as_secs_f64()
    );

    // --- Strategy 2: TRP ------------------------------------------------
    let challenge = server.issue_trp_challenge(&mut rng)?;
    let trp_slots = challenge.frame_size().get();
    let mut trp_reader = Reader::new(ReaderConfig {
        timing,
        ..ReaderConfig::default()
    });
    let bs = trp::run_reader(&mut trp_reader, &challenge, &floor, &Channel::ideal());
    let report = server.verify_trp(challenge, &bs)?;
    println!(
        "TRP:         1 frame of {trp_slots} slots ({:.1} s of air time) → {report}",
        trp_reader.clock().as_secs_f64()
    );
    println!(
        "             ({} blocked tags ≤ m = {TOLERANCE}: a blocked tag only shows \
         if no other tag shares its slot, and the m-tolerant frame is dense — \
         the guarantee is that > m missing is caught with ≥ {ALPHA} probability)",
        blocked.len()
    );

    // --- Strategy 3: estimation ----------------------------------------
    let mut est_reader = Reader::new(ReaderConfig {
        timing,
        ..ReaderConfig::default()
    });
    let estimate = estimate_cardinality(
        &mut est_reader,
        &floor,
        &Channel::ideal(),
        &EstimateConfig::for_expected(N as u64)?,
        &mut rng,
    );
    println!(
        "estimation:  n̂ = {:.0} ± {:.0} in {} slots (counts only, no identities)",
        estimate.estimate,
        estimate.std_dev(),
        estimate.total_slots
    );
    println!();

    // --- Now an actual theft --------------------------------------------
    println!("** overnight, thieves remove {} items **", TOLERANCE + 1);
    floor.remove_random((TOLERANCE + 1) as usize, &mut rng)?;

    let challenge = server.issue_trp_challenge(&mut rng)?;
    let bs = trp::run_reader(&mut trp_reader, &challenge, &floor, &Channel::ideal());
    let report = server.verify_trp(challenge, &bs)?;
    println!("morning TRP audit: {report}");
    assert!(report.is_alarm(), "theft beyond tolerance must alarm");

    println!(
        "\nserver history: {} checks, {} alarms",
        server.history().len(),
        server.alarms().len()
    );
    Ok(())
}
