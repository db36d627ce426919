//! Channel robustness: what physical-layer noise does to monitoring.
//!
//! ```text
//! cargo run --release --example noisy_channel
//! ```
//!
//! The analysis assumes an ideal channel; real docks have fades,
//! blockers and interference. This example measures, across reply-loss
//! rates, the two error directions on an **intact** set and on a
//! **robbed** set:
//!
//! * false alarms (intact set flagged) — rises with loss, because a
//!   lost reply is indistinguishable from a missing tag;
//! * missed detections (theft of `m + 1` not flagged) — can only fall
//!   with loss, because noise only ever *adds* mismatch evidence.
//!
//! The asymmetry is the fail-safe property the server relies on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch::analytics::Table;
use tagwatch::core::trp;
use tagwatch::obs::histogram::{percentile, Histogram};
use tagwatch::prelude::*;

const N: usize = 400;
const M: u64 = 5;
const TRIALS: u64 = 150;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = TagPopulation::with_sequential_ids(N).ids();
    let params = MonitorParams::new(N as u64, M, 0.95)?;
    let f = trp_frame_size(&params)?;
    println!("n = {N}, m = {M}, frame = {f}; {TRIALS} trials per cell\n");

    let mut table = Table::new(["reply loss", "false alarms (intact)", "missed (m+1 stolen)"]);

    for loss in [0.0, 0.005, 0.01, 0.02, 0.05, 0.10] {
        let channel = Channel::with_config(ChannelConfig {
            reply_loss_prob: loss,
            ..ChannelConfig::default()
        })?;

        let mut false_alarms = 0u64;
        let mut missed = 0u64;
        for seed in 0..TRIALS {
            // Intact set.
            let mut rng = StdRng::seed_from_u64(seed);
            let floor = TagPopulation::with_sequential_ids(N);
            let ch = TrpChallenge::generate(f, &mut rng);
            let mut reader = Reader::new(ReaderConfig {
                seed,
                ..ReaderConfig::default()
            });
            let bs = trp::run_reader(&mut reader, &ch, &floor, &channel);
            if trp::verify(&registry, ch, &bs)?.is_alarm() {
                false_alarms += 1;
            }

            // Robbed set.
            let mut rng = StdRng::seed_from_u64(10_000 + seed);
            let mut floor = TagPopulation::with_sequential_ids(N);
            floor.remove_random((M + 1) as usize, &mut rng)?;
            let ch = TrpChallenge::generate(f, &mut rng);
            let bs = trp::run_reader(&mut reader, &ch, &floor, &channel);
            if !trp::verify(&registry, ch, &bs)?.is_alarm() {
                missed += 1;
            }
        }
        table.push_row([
            format!("{:.1}%", loss * 100.0),
            format!("{:.1}%", 100.0 * false_alarms as f64 / TRIALS as f64),
            format!("{:.1}%", 100.0 * missed as f64 / TRIALS as f64),
        ]);
    }
    print!("{}", table.to_text());

    // Distribution of mismatch evidence under moderate noise: how many
    // bits disagree when the alarm fires?
    println!("\nmismatch-count distribution at 2% loss, intact set:");
    let channel = Channel::with_config(ChannelConfig {
        reply_loss_prob: 0.02,
        ..ChannelConfig::default()
    })?;
    let mut hist = Histogram::new(0.0, 20.0, 10);
    let mut counts = Vec::new();
    for seed in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(seed);
        let floor = TagPopulation::with_sequential_ids(N);
        let ch = TrpChallenge::generate(f, &mut rng);
        let mut reader = Reader::new(ReaderConfig {
            seed,
            ..ReaderConfig::default()
        });
        let bs = trp::run_reader(&mut reader, &ch, &floor, &channel);
        let report = trp::verify(&registry, ch, &bs)?;
        hist.record(report.mismatched_slots as f64);
        counts.push(report.mismatched_slots as f64);
    }
    print!("{hist}");
    println!(
        "median {}  p90 {}",
        percentile(&counts, 0.5).unwrap(),
        percentile(&counts, 0.9).unwrap()
    );
    println!(
        "\ntakeaway: a deployment with loss sets the tolerance m above the\n\
         noise floor (here ~{} bits at 2% loss) — exactly the scratched-tag\n\
         argument the paper's introduction makes for m > 0.",
        percentile(&counts, 0.9).unwrap()
    );
    Ok(())
}
