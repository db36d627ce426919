//! Quickstart: monitor a set of tags with TRP in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A server registers 1 000 tags with policy "tolerate m = 10 missing,
//! detect worse with 95% confidence", then runs two monitoring rounds:
//! one over the intact set, one after a theft of m + 1 = 11 tags.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(1);

    // The physical warehouse and the server's registry.
    let mut warehouse = TagPopulation::with_sequential_ids(1_000);
    let mut server = MonitorServer::new(warehouse.ids(), 10, 0.95)?;
    println!("registered: {server}");

    // --- Round 1: the set is intact -----------------------------------
    let challenge = server.issue_trp_challenge(&mut rng)?;
    println!(
        "challenge: frame of {} (Eq. 2 minimal size for n=1000, m=10, alpha=0.95)",
        challenge.frame_size()
    );

    let mut reader = Reader::new(ReaderConfig::default());
    let bs = trp::run_reader(&mut reader, &challenge, &warehouse, &Channel::ideal());
    let report = server.verify_trp(challenge, &bs)?;
    println!("round 1 (intact):  {report}");
    assert!(report.verdict.is_intact());

    // --- Round 2: a thief removes 11 tags ------------------------------
    let stolen = warehouse.remove_random(11, &mut rng)?;
    println!("thief removes {} tags", stolen.len());

    let challenge = server.issue_trp_challenge(&mut rng)?;
    let bs = trp::run_reader(&mut reader, &challenge, &warehouse, &Channel::ideal());
    let report = server.verify_trp(challenge, &bs)?;
    println!("round 2 (theft):   {report}");

    // With the Eq. 2 frame this detects with probability > 0.95; the
    // fixed seed above is a detecting run.
    assert!(report.is_alarm());
    println!(
        "total air cost: {} slots across both rounds (collect-all would \
         have spent ~2.4 slots per tag per round — and transmitted every ID)",
        reader.slots_used()
    );
    Ok(())
}
