//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;

use tagwatch::analytics::PooledEngine;
use tagwatch::core::utrp::{simulate_round, UtrpChallenge, UtrpParticipant};
use tagwatch::core::{
    run_device_round, trp, Bitstring, NonceSequence, RoundEngine, RoundScratch, TrpChallenge,
};
use tagwatch::obs::Obs;
use tagwatch::prelude::*;
use tagwatch::sim::aloha::{predicted_occupancy, FramePlan};
use tagwatch::sim::{slot_for, slot_for_counted};

fn bits(max_len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 0..max_len)
}

/// One observed UTRP round through `engine`: the triple every exact
/// engine must agree on (occupancy, announcements, probe total).
fn observed_round<E: RoundEngine>(
    engine: &mut E,
    parts: &[UtrpParticipant],
    ch: &UtrpChallenge,
) -> (Bitstring, u64, u64) {
    let obs = Obs::new();
    engine.load_participants(parts);
    let announcements = engine
        .run_observed(ch.frame_size(), ch.nonces(), &obs)
        .expect("nonce sequence covers the frame");
    (
        engine.take_bitstring(),
        announcements,
        obs.counter(obs.m.probes_total),
    )
}

proptest! {
    // ---------------- bitstring algebra ----------------

    #[test]
    fn bitstring_round_trips_bools(pattern in bits(300)) {
        let bs = Bitstring::from_bools(&pattern);
        prop_assert_eq!(bs.to_bools(), pattern.clone());
        prop_assert_eq!(bs.len(), pattern.len());
        prop_assert_eq!(bs.count_ones(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn bitstring_or_is_commutative_and_monotone(a in bits(256), b in bits(256)) {
        let la = a.len().min(b.len());
        let x = Bitstring::from_bools(&a[..la]);
        let y = Bitstring::from_bools(&b[..la]);
        let xy = x.or(&y).unwrap();
        let yx = y.or(&x).unwrap();
        prop_assert_eq!(&xy, &yx);
        prop_assert!(xy.count_ones() >= x.count_ones().max(y.count_ones()));
    }

    #[test]
    fn bitstring_xor_self_is_zero(a in bits(256)) {
        let x = Bitstring::from_bools(&a);
        let z = x.xor(&x).unwrap();
        prop_assert_eq!(z.count_ones(), 0);
        prop_assert_eq!(x.hamming_distance(&x).unwrap(), 0);
    }

    #[test]
    fn hamming_is_a_metric_sample(a in bits(128), b in bits(128), c in bits(128)) {
        let l = a.len().min(b.len()).min(c.len());
        let x = Bitstring::from_bools(&a[..l]);
        let y = Bitstring::from_bools(&b[..l]);
        let z = Bitstring::from_bools(&c[..l]);
        let xy = x.hamming_distance(&y).unwrap();
        let yz = y.hamming_distance(&z).unwrap();
        let xz = x.hamming_distance(&z).unwrap();
        prop_assert!(xz <= xy + yz, "triangle inequality violated");
        prop_assert_eq!(xy, y.hamming_distance(&x).unwrap());
    }

    #[test]
    fn mismatch_indices_match_xor(a in bits(200), b in bits(200)) {
        let l = a.len().min(b.len());
        let x = Bitstring::from_bools(&a[..l]);
        let y = Bitstring::from_bools(&b[..l]);
        let idx = x.mismatch_indices(&y).unwrap();
        prop_assert_eq!(idx.len(), x.hamming_distance(&y).unwrap());
        for i in idx {
            prop_assert_ne!(x.get(i).unwrap(), y.get(i).unwrap());
        }
    }

    // ---------------- hashing ----------------

    #[test]
    fn slots_always_land_in_frame(id in any::<u64>(), r in any::<u64>(), ct in any::<u64>(), f in 1u64..100_000) {
        let f = FrameSize::new(f).unwrap();
        prop_assert!(slot_for(TagId::from(id), Nonce::new(r), f) < f.get());
        prop_assert!(slot_for_counted(TagId::from(id), Nonce::new(r), Counter::new(ct), f) < f.get());
    }

    #[test]
    fn predicted_occupancy_is_union_of_slots(ids in prop::collection::hash_set(any::<u64>(), 0..60), r in any::<u64>(), f in 1u64..512) {
        let f = FrameSize::new(f).unwrap();
        let ids: Vec<TagId> = ids.into_iter().map(TagId::from).collect();
        let occ = predicted_occupancy(&ids, Nonce::new(r), f);
        // Exactly the slots some tag picked are set.
        let mut expect = vec![false; f.as_usize()];
        for &id in &ids {
            expect[slot_for(id, Nonce::new(r), f) as usize] = true;
        }
        prop_assert_eq!(occ, expect);
    }

    // ---------------- TRP protocol ----------------

    #[test]
    fn occupancy_writer_equals_the_bool_prediction(
        raw in prop::collection::vec(any::<u64>(), 0..300),
        wide in any::<bool>(),
        r in any::<u64>(),
        f in 1u64..70_000,
    ) {
        // Repeated IDs included; wide IDs fill both halves, so the
        // writer's fold64 is exercised, not just the low word.
        let ids: Vec<TagId> = raw
            .iter()
            .map(|&x| if wide {
                TagId::new((u128::from(x.rotate_left(29)) << 64) | u128::from(x))
            } else {
                TagId::from(x)
            })
            .collect();
        let f = FrameSize::new(f).unwrap();
        let ch = TrpChallenge::new(FramePlan::new(f, Nonce::new(r)));
        let bools = Bitstring::from_bools(&predicted_occupancy(&ids, Nonce::new(r), f));
        prop_assert_eq!(&trp::expected_bitstring(&ids, &ch), &bools);
        prop_assert_eq!(&trp::observed_bitstring(&ids, &ch), &bools);
    }

    #[test]
    fn trp_expected_equals_observed_for_intact_sets(n in 1usize..200, f in 1u64..1024, r in any::<u64>(), seed in any::<u64>()) {
        let _ = seed;
        let pop = TagPopulation::with_sequential_ids(n);
        let ch = TrpChallenge::new(FramePlan::new(FrameSize::new(f).unwrap(), Nonce::new(r)));
        let expected = trp::expected_bitstring(&pop.ids(), &ch);
        let observed = trp::observed_bitstring(&pop.ids(), &ch);
        prop_assert_eq!(&expected, &observed);
        let report = trp::verify(&pop.ids(), ch, &observed).unwrap();
        prop_assert!(report.verdict.is_intact());
    }

    #[test]
    fn trp_missing_tags_never_add_bits(n in 10usize..150, steal in 1usize..9, f in 16u64..512, r in any::<u64>(), seed in any::<u64>()) {
        // Removing tags can only clear bits: observed ⊆ expected.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pop = TagPopulation::with_sequential_ids(n);
        let all = pop.ids();
        let steal = steal.min(n - 1);
        pop.remove_random(steal, &mut rng).unwrap();
        let ch = TrpChallenge::new(FramePlan::new(FrameSize::new(f).unwrap(), Nonce::new(r)));
        let expected = trp::expected_bitstring(&all, &ch);
        let observed = trp::observed_bitstring(&pop.ids(), &ch);
        let union = expected.or(&observed).unwrap();
        prop_assert_eq!(union, expected, "a missing tag added energy?");
    }

    // ---------------- UTRP round engine ----------------

    #[test]
    fn utrp_fast_equals_reference_everywhere(
        n in 0usize..60,
        f in 1u64..160,
        seed in any::<u64>(),
        mute_mod in 1u64..12,
        ct0 in 0u64..50,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ch = UtrpChallenge::generate(
            FrameSize::new(f).unwrap(),
            &TimingModel::gen2(),
            &mut rng,
        );
        let mut fast: Vec<UtrpParticipant> = (1..=n as u64)
            .map(|i| {
                let mut p = UtrpParticipant::new(TagId::from(i), Counter::new(ct0 + i));
                p.mute = i % mute_mod == 0;
                p
            })
            .collect();
        // The device oracle over the same tags, on an ideal channel.
        let mut floor: TagPopulation = fast
            .iter()
            .map(|p| {
                let mut tag = tagwatch::sim::Tag::with_counter(p.id, p.counter);
                tag.set_detuned(p.mute);
                tag
            })
            .collect();
        let a = simulate_round(&mut fast, ch.frame_size(), ch.nonces()).unwrap();
        let b = run_device_round(
            &mut floor,
            &ch,
            &TimingModel::gen2(),
            &Channel::ideal(),
            &tagwatch::sim::FaultPlan::new(),
            &mut rng,
        )
        .unwrap();
        prop_assert_eq!(a.bitstring, b.bitstring);
        prop_assert_eq!(a.announcements, b.announcements);
        for (p, tag) in fast.iter().zip(floor.iter()) {
            prop_assert_eq!(p.counter, tag.counter());
        }
    }

    // The pooled engine is an exact engine: for any population
    // (scattered counters, mute tags), any frame, and any worker
    // count, its sharded scan must reproduce the scalar engine's
    // bitstring, announcement count, AND observed probe total — the
    // probe accounting is `Σ active_i`, so it is chunking- and
    // thread-invariant by contract. The threshold is forced down so
    // the workers actually engage at proptest-sized populations.
    #[test]
    fn pooled_engine_matches_scalar_at_any_thread_count(
        n in 1usize..300,
        f in 8u64..200,
        seed in any::<u64>(),
        threads in 1usize..5,
        mute_mod in 1u64..12,
        ct0 in 0u64..50,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ch = UtrpChallenge::generate(
            FrameSize::new(f).unwrap(),
            &TimingModel::gen2(),
            &mut rng,
        );
        let parts: Vec<UtrpParticipant> = (1..=n as u64)
            .map(|i| {
                let mut p = UtrpParticipant::new(TagId::from(i), Counter::new(ct0 + i % 7));
                p.mute = i % mute_mod == 0;
                p
            })
            .collect();

        let expected = observed_round(&mut RoundScratch::new(), &parts, &ch);
        let mut engine = PooledEngine::with_threshold(threads, 16);
        let got = observed_round(&mut engine, &parts, &ch);
        prop_assert_eq!(&got, &expected, "threads={}", threads);
    }

    #[test]
    fn utrp_round_invariants(n in 1usize..80, f in 1u64..200, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ch = UtrpChallenge::generate(
            FrameSize::new(f).unwrap(),
            &TimingModel::gen2(),
            &mut rng,
        );
        let mut parts: Vec<UtrpParticipant> = (1..=n as u64)
            .map(|i| UtrpParticipant::new(TagId::from(i), Counter::ZERO))
            .collect();
        let outcome = simulate_round(&mut parts, ch.frame_size(), ch.nonces()).unwrap();
        // Occupied slots never exceed participants or frame size.
        prop_assert!(outcome.bitstring.count_ones() <= n.min(f as usize));
        // Announcements: 1 initial + at most one per occupied slot.
        prop_assert!(outcome.announcements >= 1);
        prop_assert!(outcome.announcements <= 1 + outcome.bitstring.count_ones() as u64);
        // All counters advanced by exactly the announcement count.
        prop_assert!(parts.iter().all(|p| p.counter.get() == outcome.announcements));
    }

    // ---------------- nonce sequences ----------------

    #[test]
    fn nonce_cursor_yields_sequence_in_order(len in 0usize..200, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let seq = NonceSequence::generate(len, &mut rng);
        let mut cur = seq.cursor();
        for k in 0..len {
            prop_assert_eq!(cur.next_nonce().unwrap(), seq.get(k).unwrap());
        }
        prop_assert!(cur.next_nonce().is_err());
    }

    // ---------------- frame sizing ----------------

    #[test]
    fn trp_frame_satisfies_constraint_on_random_params(n in 2u64..800, m_frac in 0.0f64..0.3, alpha in 0.5f64..0.999) {
        let m = ((n - 1) as f64 * m_frac) as u64;
        let params = MonitorParams::new(n, m, alpha).unwrap();
        let f = trp_frame_size(&params).unwrap().get();
        let g = tagwatch::core::math::detection::detection_probability(
            n, m + 1, f, tagwatch::core::math::detection::EmptySlotModel::Poisson);
        prop_assert!(g > alpha, "g({f}) = {g} <= {alpha}");
        if f > 1 {
            let g_prev = tagwatch::core::math::detection::detection_probability(
                n, m + 1, f - 1, tagwatch::core::math::detection::EmptySlotModel::Poisson);
            prop_assert!(g_prev <= alpha, "f not minimal: g({}) = {g_prev}", f - 1);
        }
    }
}
