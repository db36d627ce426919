//! Cross-protocol consistency: every identification/estimation baseline
//! must agree with the ground-truth population, and their costs must
//! order the way the paper argues.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch::prelude::*;
use tagwatch::protocols::collect_all::{collect_all, CollectAllConfig, FramePolicy};
use tagwatch::protocols::estimate::{estimate_cardinality, EstimateConfig};
use tagwatch::protocols::query_tree::query_tree_inventory;

#[test]
fn collect_all_and_query_tree_find_the_same_set() {
    let mut rng = StdRng::seed_from_u64(11);
    let pop = TagPopulation::with_random_ids(256, &mut rng);
    let truth: std::collections::BTreeSet<TagId> = pop.ids().into_iter().collect();

    // Query tree.
    let qt = query_tree_inventory(&pop, &TimingModel::uniform_slots());
    let qt_set: std::collections::BTreeSet<TagId> = qt.collected.iter().copied().collect();
    assert_eq!(qt_set, truth);

    // Collect-all.
    let mut reader = Reader::new(ReaderConfig::default());
    let mut floor = pop.clone();
    let run = collect_all(
        &mut reader,
        &mut floor,
        &Channel::ideal(),
        &CollectAllConfig::paper(256, 0),
        &mut rng,
    )
    .unwrap();
    let ca_set: std::collections::BTreeSet<TagId> = run.collected.iter().copied().collect();
    assert_eq!(ca_set, truth);
}

#[test]
fn estimator_brackets_the_true_cardinality() {
    let mut rng = StdRng::seed_from_u64(12);
    for n in [50usize, 200, 600] {
        let pop = TagPopulation::with_sequential_ids(n);
        let mut reader = Reader::new(ReaderConfig::default());
        let outcome = estimate_cardinality(
            &mut reader,
            &pop,
            &Channel::ideal(),
            &EstimateConfig::for_expected(n as u64).unwrap(),
            &mut rng,
        );
        let rel = (outcome.estimate - n as f64).abs() / n as f64;
        assert!(
            rel < 0.25,
            "n={n}: estimate {} off by {rel}",
            outcome.estimate
        );
    }
}

#[test]
fn monitoring_beats_identification_in_slots() {
    // The paper's core claim, as an executable assertion: for every
    // tested n, the TRP frame is smaller than what any identification
    // protocol spends.
    let mut rng = StdRng::seed_from_u64(13);
    for n in [200usize, 500, 1000] {
        let params = MonitorParams::new(n as u64, 10, 0.95).unwrap();
        let trp_slots = trp_frame_size(&params).unwrap().get();

        let pop = TagPopulation::with_sequential_ids(n);
        let qt = query_tree_inventory(&pop, &TimingModel::uniform_slots());

        let mut reader = Reader::new(ReaderConfig::default());
        let mut floor = pop.clone();
        let ca = collect_all(
            &mut reader,
            &mut floor,
            &Channel::ideal(),
            &CollectAllConfig::paper(n as u64, 10),
            &mut rng,
        )
        .unwrap();

        assert!(
            trp_slots < ca.total_slots,
            "n={n}: trp {trp_slots} vs collect-all {}",
            ca.total_slots
        );
        assert!(
            trp_slots < qt.total_queries,
            "n={n}: trp {trp_slots} vs query-tree {}",
            qt.total_queries
        );
    }
}

#[test]
fn frame_policies_all_terminate_and_agree_on_the_set() {
    let mut rng = StdRng::seed_from_u64(14);
    let truth: std::collections::BTreeSet<TagId> = TagPopulation::with_sequential_ids(150)
        .ids()
        .into_iter()
        .collect();
    for policy in [
        FramePolicy::LeeOptimal,
        FramePolicy::Fixed(64),
        FramePolicy::Adaptive(16),
    ] {
        let mut reader = Reader::new(ReaderConfig::default());
        let mut floor = TagPopulation::with_sequential_ids(150);
        let run = collect_all(
            &mut reader,
            &mut floor,
            &Channel::ideal(),
            &CollectAllConfig {
                expected_tags: 150,
                tolerance: 0,
                policy,
                max_rounds: 10_000,
            },
            &mut rng,
        )
        .unwrap();
        let set: std::collections::BTreeSet<TagId> = run.collected.iter().copied().collect();
        assert_eq!(set, truth, "{policy:?}");
        assert!(!run.truncated, "{policy:?} truncated");
    }
}

#[test]
fn lee_policy_is_cheapest_of_the_dfsa_policies() {
    // The Lee-optimal frame sizing the paper cites should beat naive
    // fixed frames on total slots (that is why Fig. 4 uses it).
    let run_with = |policy: FramePolicy, seed: u64| -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reader = Reader::new(ReaderConfig::default());
        let mut floor = TagPopulation::with_sequential_ids(400);
        collect_all(
            &mut reader,
            &mut floor,
            &Channel::ideal(),
            &CollectAllConfig {
                expected_tags: 400,
                tolerance: 0,
                policy,
                max_rounds: 100_000,
            },
            &mut rng,
        )
        .unwrap()
        .total_slots
    };
    let lee: u64 = (0..5).map(|s| run_with(FramePolicy::LeeOptimal, s)).sum();
    let tiny_fixed: u64 = (0..5).map(|s| run_with(FramePolicy::Fixed(32), s)).sum();
    let huge_fixed: u64 = (0..5).map(|s| run_with(FramePolicy::Fixed(4096), s)).sum();
    assert!(lee < tiny_fixed, "lee {lee} vs fixed-32 {tiny_fixed}");
    assert!(lee < huge_fixed, "lee {lee} vs fixed-4096 {huge_fixed}");
}

#[test]
fn collect_all_matches_registry_diff_detection() {
    // Collect-all detects missing tags exactly (that is its virtue —
    // cost is its vice): registry minus collected = the stolen set.
    let mut rng = StdRng::seed_from_u64(15);
    let mut floor = TagPopulation::with_sequential_ids(200);
    let registry: std::collections::BTreeSet<TagId> = floor.ids().into_iter().collect();
    let stolen = floor.remove_random(7, &mut rng).unwrap();
    let stolen_ids: std::collections::BTreeSet<TagId> = stolen.iter().map(|t| t.id()).collect();

    let mut reader = Reader::new(ReaderConfig::default());
    let run = collect_all(
        &mut reader,
        &mut floor,
        &Channel::ideal(),
        &CollectAllConfig::paper(200, 0),
        &mut rng,
    )
    .unwrap();
    let collected: std::collections::BTreeSet<TagId> = run.collected.into_iter().collect();
    let diff: std::collections::BTreeSet<TagId> =
        registry.difference(&collected).copied().collect();
    assert_eq!(diff, stolen_ids);
}
