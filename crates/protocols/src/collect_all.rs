//! The collect-all baseline (paper §1, §6 / Fig. 4).
//!
//! Collect-all is the classical monitoring strategy: inventory *every*
//! tag ID and diff against the registry. It is exactly what TRP is
//! designed to beat, so the reproduction needs a faithful, competitive
//! implementation: dynamic framed-slotted ALOHA (DFSA) where the reader
//! re-frames after every round, with frame sizes per Lee et al. \[7\]
//! ("the optimal frame size is equal to the number of unidentified
//! tags"). Following §6, a run with tolerance `m` stops once `n − m`
//! tags have been collected.

use rand::Rng;

use tagwatch_sim::aloha::FramePlan;
use tagwatch_sim::{
    Channel, FrameSize, Nonce, Reader, SimDuration, SimError, TagId, TagPopulation,
};

/// How the reader picks the next frame size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FramePolicy {
    /// Lee et al. \[7\]: frame size = expected number of unidentified
    /// tags (the paper's Fig. 4 configuration: `f₁ = n`, then the
    /// remainder).
    #[default]
    LeeOptimal,
    /// A fixed frame size every round (for ablations).
    Fixed(u64),
    /// Double the frame after a collision-heavy round, halve after an
    /// idle-heavy one (a classic Q-style adaptive ablation), starting
    /// from the given size.
    Adaptive(u64),
}

/// Collect-all configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectAllConfig {
    /// The registry size `n` the server expects.
    pub expected_tags: u64,
    /// Tolerance `m`: stop once `expected_tags − m` IDs are in hand.
    pub tolerance: u64,
    /// Frame-sizing policy.
    pub policy: FramePolicy,
    /// Hard cap on rounds, a safety net against pathological policies
    /// (e.g. `Fixed(1)` with thousands of tags).
    pub max_rounds: u32,
}

impl CollectAllConfig {
    /// The paper's configuration for a population of `n` with tolerance
    /// `m`.
    #[must_use]
    pub fn paper(n: u64, m: u64) -> Self {
        CollectAllConfig {
            expected_tags: n,
            tolerance: m,
            policy: FramePolicy::LeeOptimal,
            max_rounds: 10_000,
        }
    }
}

/// The result of a collect-all inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectAllRun {
    /// Every collected ID, in decode order.
    pub collected: Vec<TagId>,
    /// Total slots across all rounds — the paper's Fig. 4 metric
    /// ("the final number of slots is the sum of all the fs used in
    /// each round").
    pub total_slots: u64,
    /// Number of rounds (frames) used.
    pub rounds: u32,
    /// Total air time under the reader's timing model (IDs are long;
    /// this is where collect-all loses even harder than in slots).
    pub duration: SimDuration,
    /// Whether the run hit `max_rounds` before reaching its target.
    pub truncated: bool,
}

impl CollectAllRun {
    /// Whether the target count was reached.
    #[must_use]
    pub fn reached_target(&self, config: &CollectAllConfig) -> bool {
        self.collected.len() as u64 >= config.expected_tags.saturating_sub(config.tolerance)
    }
}

/// Runs a collect-all inventory over `population`.
///
/// Stops when `expected_tags − tolerance` IDs are collected, when every
/// *present* tag has been collected (fewer tags than expected may be in
/// range), or at `max_rounds`.
///
/// # Errors
///
/// Propagates substrate errors (e.g. an invalid fixed frame size).
pub fn collect_all<R: Rng + ?Sized>(
    reader: &mut Reader,
    population: &mut TagPopulation,
    channel: &Channel,
    config: &CollectAllConfig,
    rng: &mut R,
) -> Result<CollectAllRun, SimError> {
    let present = population.len() as u64;
    let target = config
        .expected_tags
        .saturating_sub(config.tolerance)
        .min(present);

    population.reset_inventory();
    let mut collected: Vec<TagId> = Vec::with_capacity(target as usize);
    let mut total_slots = 0u64;
    let mut duration = SimDuration::ZERO;
    let mut rounds = 0u32;
    let mut truncated = false;
    let mut adaptive_f = match config.policy {
        FramePolicy::Adaptive(f0) => f0.max(1),
        _ => 0,
    };

    while (collected.len() as u64) < target {
        if rounds >= config.max_rounds {
            truncated = true;
            break;
        }
        let remaining = target - collected.len() as u64;
        // All still-ready tags contend, including the ones beyond the
        // target count — the reader cannot tell tags apart in advance.
        let contending = present - collected.len() as u64;
        let f_raw = match config.policy {
            // Lee: size for the number of unidentified tags. Round 1
            // sizes for the full expectation (f₁ = n).
            FramePolicy::LeeOptimal => contending.max(1),
            FramePolicy::Fixed(f) => f,
            FramePolicy::Adaptive(_) => adaptive_f,
        };
        let f = FrameSize::new(f_raw)?;
        let plan = FramePlan::new(f, Nonce::new(rng.gen()));
        let round = reader.run_collection_frame(&plan, population, channel);
        total_slots += f.get();
        duration += round.execution.duration();
        rounds += 1;

        if let FramePolicy::Adaptive(_) = config.policy {
            let stats = round.execution.stats();
            if stats.collisions > stats.empty {
                adaptive_f = (adaptive_f * 2).min(FrameSize::MAX);
            } else if stats.empty > stats.collisions && adaptive_f > 1 {
                adaptive_f = (adaptive_f / 2).max(1);
            }
        }

        let newly = round.collected.len() as u64;
        collected.extend(round.collected);
        // No progress and nobody left contending: every remaining tag is
        // detuned or absent; further rounds cannot help.
        if newly == 0
            && population
                .iter()
                .all(|t| t.state() == tagwatch_sim::TagState::Silenced || t.is_detuned())
        {
            break;
        }
        let _ = remaining;
    }

    Ok(CollectAllRun {
        collected,
        total_slots,
        rounds,
        duration,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::{ReaderConfig, TimingModel};

    fn rig() -> (Reader, Channel, StdRng) {
        (
            Reader::new(ReaderConfig::default()),
            Channel::ideal(),
            StdRng::seed_from_u64(42),
        )
    }

    #[test]
    fn collects_every_tag_with_zero_tolerance() {
        let (mut reader, channel, mut rng) = rig();
        let mut pop = TagPopulation::with_sequential_ids(200);
        let config = CollectAllConfig::paper(200, 0);
        let run = collect_all(&mut reader, &mut pop, &channel, &config, &mut rng).unwrap();
        assert_eq!(run.collected.len(), 200);
        assert!(run.reached_target(&config));
        assert!(!run.truncated);
        // Every collected ID is distinct and real.
        let distinct: std::collections::HashSet<_> = run.collected.iter().collect();
        assert_eq!(distinct.len(), 200);
    }

    #[test]
    fn tolerance_stops_early() {
        let (mut reader, channel, mut rng) = rig();
        let mut pop = TagPopulation::with_sequential_ids(200);
        let full = collect_all(
            &mut reader,
            &mut pop,
            &channel,
            &CollectAllConfig::paper(200, 0),
            &mut rng,
        )
        .unwrap();

        let (mut reader2, channel2, mut rng2) = rig();
        let mut pop2 = TagPopulation::with_sequential_ids(200);
        let tolerant = collect_all(
            &mut reader2,
            &mut pop2,
            &channel2,
            &CollectAllConfig::paper(200, 30),
            &mut rng2,
        )
        .unwrap();

        assert!(tolerant.collected.len() >= 170);
        assert!(
            tolerant.total_slots < full.total_slots,
            "tolerance should save slots: {} vs {}",
            tolerant.total_slots,
            full.total_slots
        );
    }

    #[test]
    fn slot_cost_scales_linearly_with_population() {
        // Fig. 4: collect-all slots grow linearly in n at roughly e·n
        // for the Lee policy (each round clears a 1/e fraction).
        let mut costs = Vec::new();
        for n in [250usize, 500, 1000] {
            let (mut reader, channel, mut rng) = rig();
            let mut pop = TagPopulation::with_sequential_ids(n);
            let run = collect_all(
                &mut reader,
                &mut pop,
                &channel,
                &CollectAllConfig::paper(n as u64, 0),
                &mut rng,
            )
            .unwrap();
            costs.push(run.total_slots as f64 / n as f64);
        }
        for &per_tag in &costs {
            assert!(
                (1.8..=3.6).contains(&per_tag),
                "slots per tag {per_tag} outside the DFSA ballpark"
            );
        }
    }

    #[test]
    fn missing_tags_do_not_hang_the_run() {
        // 50 of 200 expected tags were stolen: the run must terminate by
        // collecting all 150 present.
        let (mut reader, channel, mut rng) = rig();
        let mut pop = TagPopulation::with_sequential_ids(200);
        pop.split_random(50, &mut rng).unwrap();
        let config = CollectAllConfig::paper(200, 0);
        let run = collect_all(&mut reader, &mut pop, &channel, &config, &mut rng).unwrap();
        assert_eq!(run.collected.len(), 150);
        assert!(!run.reached_target(&config));
    }

    #[test]
    fn detuned_tags_do_not_hang_the_run() {
        let (mut reader, channel, mut rng) = rig();
        let mut pop = TagPopulation::with_sequential_ids(60);
        pop.detune_random(10, &mut rng).unwrap();
        let run = collect_all(
            &mut reader,
            &mut pop,
            &channel,
            &CollectAllConfig::paper(60, 0),
            &mut rng,
        )
        .unwrap();
        assert_eq!(run.collected.len(), 50);
    }

    #[test]
    fn fixed_policy_respects_round_cap() {
        let (mut reader, channel, mut rng) = rig();
        let mut pop = TagPopulation::with_sequential_ids(500);
        let config = CollectAllConfig {
            expected_tags: 500,
            tolerance: 0,
            policy: FramePolicy::Fixed(2),
            max_rounds: 10,
        };
        let run = collect_all(&mut reader, &mut pop, &channel, &config, &mut rng).unwrap();
        assert!(run.truncated);
        assert_eq!(run.rounds, 10);
        assert_eq!(run.total_slots, 20);
    }

    #[test]
    fn adaptive_policy_converges() {
        let (mut reader, channel, mut rng) = rig();
        let mut pop = TagPopulation::with_sequential_ids(300);
        let config = CollectAllConfig {
            expected_tags: 300,
            tolerance: 0,
            policy: FramePolicy::Adaptive(16),
            max_rounds: 10_000,
        };
        let run = collect_all(&mut reader, &mut pop, &channel, &config, &mut rng).unwrap();
        assert_eq!(run.collected.len(), 300);
        assert!(!run.truncated);
    }

    #[test]
    fn gen2_timing_bills_id_lengths() {
        let mut reader = Reader::new(ReaderConfig {
            timing: TimingModel::gen2(),
            ..ReaderConfig::default()
        });
        let channel = Channel::ideal();
        let mut rng = StdRng::seed_from_u64(1);
        let mut pop = TagPopulation::with_sequential_ids(100);
        let run = collect_all(
            &mut reader,
            &mut pop,
            &channel,
            &CollectAllConfig::paper(100, 0),
            &mut rng,
        )
        .unwrap();
        // 100 ID replies at 2.4 ms each: at least 240 ms of air time.
        assert!(run.duration.as_micros() >= 240_000);
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let run = |seed: u64| {
            let mut reader = Reader::new(ReaderConfig::default());
            let channel = Channel::ideal();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pop = TagPopulation::with_sequential_ids(150);
            collect_all(
                &mut reader,
                &mut pop,
                &channel,
                &CollectAllConfig::paper(150, 5),
                &mut rng,
            )
            .unwrap()
            .total_slots
        };
        assert_eq!(run(9), run(9));
    }
}
