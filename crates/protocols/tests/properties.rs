//! Property-based tests for the baseline protocols.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use tagwatch_protocols::collect_all::{collect_all, CollectAllConfig, FramePolicy};
use tagwatch_protocols::estimate::{estimate_cardinality, EstimateConfig};
use tagwatch_protocols::query_tree::query_tree_inventory;
use tagwatch_sim::{Channel, FrameSize, Reader, ReaderConfig, TagPopulation, TimingModel};

proptest! {
    // Keep case counts moderate: each case runs a full protocol.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn collect_all_is_complete_and_duplicate_free(n in 1usize..250, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reader = Reader::new(ReaderConfig::default());
        let mut pop = TagPopulation::with_sequential_ids(n);
        let run = collect_all(
            &mut reader,
            &mut pop,
            &Channel::ideal(),
            &CollectAllConfig::paper(n as u64, 0),
            &mut rng,
        )
        .unwrap();
        prop_assert_eq!(run.collected.len(), n);
        let distinct: std::collections::BTreeSet<_> = run.collected.iter().collect();
        prop_assert_eq!(distinct.len(), n);
        prop_assert!(!run.truncated);
        // Cost sanity: at least one slot per tag, at most a generous
        // constant factor.
        prop_assert!(run.total_slots >= n as u64);
        prop_assert!(run.total_slots <= 8 * n as u64 + 64);
    }

    #[test]
    fn collect_all_tolerance_never_costs_more(n in 20usize..200, m in 0u64..15, seed in any::<u64>()) {
        let run = |tol: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reader = Reader::new(ReaderConfig::default());
            let mut pop = TagPopulation::with_sequential_ids(n);
            collect_all(
                &mut reader,
                &mut pop,
                &Channel::ideal(),
                &CollectAllConfig::paper(n as u64, tol),
                &mut rng,
            )
            .unwrap()
            .total_slots
        };
        let strict = run(0);
        let tolerant = run(m.min(n as u64 - 1));
        prop_assert!(tolerant <= strict, "tolerance increased cost: {tolerant} > {strict}");
    }

    #[test]
    fn query_tree_identifies_arbitrary_id_sets(ids in prop::collection::hash_set(any::<u128>(), 0..120)) {
        let pop = TagPopulation::from_ids(
            ids.iter().map(|&raw| tagwatch_sim::TagId::new(raw)),
        );
        // Distinct u128s may collide after 96-bit masking; skip then.
        let Ok(pop) = pop else { return Ok(()); };
        let run = query_tree_inventory(&pop, &TimingModel::uniform_slots());
        let found: std::collections::BTreeSet<_> = run.collected.iter().copied().collect();
        let expected: std::collections::BTreeSet<_> = pop.ids().into_iter().collect();
        prop_assert_eq!(found, expected);
        // Structural identity of the binary trie walk.
        prop_assert_eq!(run.total_queries, 1 + 2 * run.collisions);
    }

    #[test]
    fn estimator_is_unbiased_enough(n in 20usize..400, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reader = Reader::new(ReaderConfig::default());
        let pop = TagPopulation::with_sequential_ids(n);
        let outcome = estimate_cardinality(
            &mut reader,
            &pop,
            &Channel::ideal(),
            &EstimateConfig {
                frame_size: FrameSize::new((4 * n) as u64).unwrap(),
                rounds: 8,
            },
            &mut rng,
        );
        prop_assert!(!outcome.saturated);
        let rel = (outcome.estimate - n as f64).abs() / n as f64;
        // 8 rounds at f = 4n: generous 35% bound holds with huge margin
        // for any seed (typical error is ~5%).
        prop_assert!(rel < 0.35, "n = {n}, estimate = {}", outcome.estimate);
    }

    #[test]
    fn fixed_policy_slot_accounting(n in 1usize..150, f in 1u64..256, rounds in 1u32..40, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reader = Reader::new(ReaderConfig::default());
        let mut pop = TagPopulation::with_sequential_ids(n);
        let run = collect_all(
            &mut reader,
            &mut pop,
            &Channel::ideal(),
            &CollectAllConfig {
                expected_tags: n as u64,
                tolerance: 0,
                policy: FramePolicy::Fixed(f),
                max_rounds: rounds,
            },
            &mut rng,
        )
        .unwrap();
        prop_assert_eq!(run.total_slots, u64::from(run.rounds) * f);
        prop_assert!(run.rounds <= rounds);
    }
}
