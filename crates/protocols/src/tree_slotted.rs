//! Tree Slotted ALOHA (TSA) — the cited anti-collision protocol of
//! Bonuccelli, Lonetti & Martelli \[2\].
//!
//! TSA organizes the inventory as a tree of frames: an initial root
//! frame is followed, for **each collided slot**, by a dedicated child
//! frame in which only the tags that collided in that slot retransmit.
//! Because a child frame's contender set is exactly the colliders of
//! one slot (typically 2–3 tags), small child frames clear them with
//! very few wasted slots, and the expected total cost undercuts flat
//! re-framing DFSA.
//!
//! Mechanically, tags track which node of the frame tree they belong
//! to: a tag that collided in slot `s` of frame `k` participates
//! exactly in the child frame spawned for `(k, s)`, picking a new slot
//! with a fresh nonce. We simulate the tree walk breadth-first with the
//! substrate's hashing so runs are deterministic per seed.

use rand::Rng;

use tagwatch_sim::hash::slot_for;
use tagwatch_sim::{FrameSize, Nonce, SimDuration, TagId, TagPopulation, TimingModel};

/// Configuration for a TSA inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TsaConfig {
    /// Root frame size. The classic choice is the expected tag count.
    pub root_frame: FrameSize,
    /// Child frame size per collided slot. Colliding groups are small,
    /// so tiny frames (the paper family uses sizes near the expected
    /// collider count + 1) work best.
    pub child_frame: FrameSize,
    /// Safety cap on tree depth (a collision among identical… cannot
    /// happen with distinct IDs and fresh nonces, but the cap bounds
    /// adversarial inputs).
    pub max_depth: u32,
}

impl TsaConfig {
    /// The standard configuration for an expected population of `n`:
    /// root frame `n`, child frames of 4 slots.
    ///
    /// # Errors
    ///
    /// Propagates frame-size validation (only for `n = 0`, which yields
    /// the minimum root frame of 1).
    pub fn for_expected(n: u64) -> Result<Self, tagwatch_sim::SimError> {
        Ok(TsaConfig {
            root_frame: FrameSize::new(n.max(1))?,
            child_frame: FrameSize::new(4)?,
            max_depth: 64,
        })
    }
}

/// Metrics from one TSA inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct TsaRun {
    /// Collected IDs in decode order.
    pub collected: Vec<TagId>,
    /// Total slots across the whole frame tree.
    pub total_slots: u64,
    /// Number of frames (root + children).
    pub frames: u64,
    /// Deepest tree level reached (root = 0).
    pub depth_reached: u32,
    /// Air time under the given timing model (collection mode: IDs).
    pub duration: SimDuration,
    /// Whether the depth cap stopped unresolved collisions (never on
    /// distinct IDs with fresh nonces, barring astronomically unlikely
    /// repeated hash ties).
    pub truncated: bool,
}

/// Runs a TSA inventory over the present, tuned tags of `population`.
pub fn tree_slotted_inventory<R: Rng + ?Sized>(
    population: &TagPopulation,
    config: &TsaConfig,
    timing: &TimingModel,
    rng: &mut R,
) -> TsaRun {
    let contenders: Vec<TagId> = population
        .iter()
        .filter(|t| !t.is_detuned())
        .map(|t| t.id())
        .collect();

    let mut run = TsaRun {
        collected: Vec::with_capacity(contenders.len()),
        total_slots: 0,
        frames: 0,
        depth_reached: 0,
        duration: SimDuration::ZERO,
        truncated: false,
    };

    // Breadth-first queue of (contender-group, depth).
    let mut queue: std::collections::VecDeque<(Vec<TagId>, u32)> =
        std::collections::VecDeque::new();
    if !contenders.is_empty() {
        queue.push_back((contenders, 0));
    }

    while let Some((group, depth)) = queue.pop_front() {
        let f = if depth == 0 {
            config.root_frame
        } else {
            config.child_frame
        };
        let r = Nonce::new(rng.gen());
        run.frames += 1;
        run.total_slots += f.get();
        run.depth_reached = run.depth_reached.max(depth);
        run.duration += timing.frame_announce + timing.slot_broadcast * f.get();

        // Bucket the group's slot choices.
        let mut buckets: Vec<Vec<TagId>> = vec![Vec::new(); f.as_usize()];
        for &id in &group {
            buckets[slot_for(id, r, f) as usize].push(id);
        }
        for bucket in buckets {
            match bucket.len() {
                0 => run.duration += timing.empty_slot,
                1 => {
                    run.duration += timing.id_reply;
                    run.collected.push(bucket[0]);
                }
                _ => {
                    run.duration += timing.id_reply; // garbled full-length burst
                    if depth + 1 >= config.max_depth {
                        run.truncated = true;
                    } else {
                        queue.push_back((bucket, depth + 1));
                    }
                }
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(n: usize, seed: u64) -> TsaRun {
        let pop = TagPopulation::with_sequential_ids(n);
        let mut rng = StdRng::seed_from_u64(seed);
        tree_slotted_inventory(
            &pop,
            &TsaConfig::for_expected(n as u64).unwrap(),
            &TimingModel::uniform_slots(),
            &mut rng,
        )
    }

    #[test]
    fn collects_every_tag_exactly_once() {
        let tsa = run(400, 1);
        assert_eq!(tsa.collected.len(), 400);
        let distinct: std::collections::BTreeSet<_> = tsa.collected.iter().collect();
        assert_eq!(distinct.len(), 400);
        assert!(!tsa.truncated);
    }

    #[test]
    fn cost_is_linear_with_modest_constant() {
        for n in [100usize, 400, 1000] {
            let tsa = run(n, 2);
            let per_tag = tsa.total_slots as f64 / n as f64;
            assert!(
                (1.0..=4.0).contains(&per_tag),
                "n={n}: {per_tag} slots per tag"
            );
        }
    }

    #[test]
    fn beats_or_matches_flat_dfsa_on_slots() {
        // TSA's selling point versus flat re-framing: resolving each
        // collided slot with a tiny dedicated frame wastes less than
        // re-framing all unresolved tags together.
        use crate::collect_all::{collect_all, CollectAllConfig};
        use tagwatch_sim::{Channel, Reader, ReaderConfig};

        let mut tsa_total = 0u64;
        let mut dfsa_total = 0u64;
        for seed in 0..10u64 {
            tsa_total += run(500, seed).total_slots;

            let mut rng = StdRng::seed_from_u64(seed);
            let mut reader = Reader::new(ReaderConfig::default());
            let mut pop = TagPopulation::with_sequential_ids(500);
            dfsa_total += collect_all(
                &mut reader,
                &mut pop,
                &Channel::ideal(),
                &CollectAllConfig::paper(500, 0),
                &mut rng,
            )
            .unwrap()
            .total_slots;
        }
        assert!(
            tsa_total < dfsa_total + dfsa_total / 10,
            "tsa {tsa_total} much worse than dfsa {dfsa_total}"
        );
    }

    #[test]
    fn empty_population_costs_nothing() {
        let pop = TagPopulation::new();
        let mut rng = StdRng::seed_from_u64(3);
        let tsa = tree_slotted_inventory(
            &pop,
            &TsaConfig::for_expected(0).unwrap(),
            &TimingModel::uniform_slots(),
            &mut rng,
        );
        assert_eq!(tsa.total_slots, 0);
        assert_eq!(tsa.frames, 0);
        assert!(tsa.collected.is_empty());
    }

    #[test]
    fn detuned_tags_are_invisible() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut pop = TagPopulation::with_sequential_ids(60);
        pop.detune_random(20, &mut rng).unwrap();
        let tsa = tree_slotted_inventory(
            &pop,
            &TsaConfig::for_expected(60).unwrap(),
            &TimingModel::uniform_slots(),
            &mut rng,
        );
        assert_eq!(tsa.collected.len(), 40);
    }

    #[test]
    fn dense_collisions_recurse_but_terminate() {
        // Tiny root frame over many tags: heavy recursion, still total.
        let pop = TagPopulation::with_sequential_ids(300);
        let mut rng = StdRng::seed_from_u64(5);
        let tsa = tree_slotted_inventory(
            &pop,
            &TsaConfig {
                root_frame: FrameSize::new(4).unwrap(),
                child_frame: FrameSize::new(4).unwrap(),
                max_depth: 64,
            },
            &TimingModel::uniform_slots(),
            &mut rng,
        );
        assert_eq!(tsa.collected.len(), 300);
        assert!(tsa.depth_reached > 1);
        assert!(!tsa.truncated);
    }

    #[test]
    fn depth_cap_truncates_gracefully() {
        let pop = TagPopulation::with_sequential_ids(300);
        let mut rng = StdRng::seed_from_u64(6);
        let tsa = tree_slotted_inventory(
            &pop,
            &TsaConfig {
                root_frame: FrameSize::new(2).unwrap(),
                child_frame: FrameSize::new(2).unwrap(),
                max_depth: 2,
            },
            &TimingModel::uniform_slots(),
            &mut rng,
        );
        assert!(tsa.truncated);
        assert!(tsa.collected.len() < 300);
    }

    #[test]
    fn runs_are_seed_reproducible() {
        assert_eq!(run(200, 9).total_slots, run(200, 9).total_slots);
        assert_eq!(run(200, 9).collected, run(200, 9).collected);
    }
}
