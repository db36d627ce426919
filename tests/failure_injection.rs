//! Failure injection: physical-layer faults and operator mistakes must
//! degrade *safely* — alarms and errors, never silent false "intact".

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch::core::trp;
use tagwatch::core::utrp::run_honest_reader;
use tagwatch::core::RoundScratch;
use tagwatch::obs::Obs;
use tagwatch::prelude::*;
use tagwatch::sim::FaultPlan;

#[test]
fn heavy_reply_loss_causes_alarms_not_crashes() {
    let lossy = Channel::with_config(ChannelConfig {
        reply_loss_prob: 0.5,
        ..ChannelConfig::default()
    })
    .unwrap();
    let floor = TagPopulation::with_sequential_ids(200);
    let mut server = MonitorServer::new(floor.ids(), 5, 0.95).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let mut alarms = 0;
    for seed in 0..20 {
        let ch = server.issue_trp_challenge(&mut rng).unwrap();
        let mut reader = Reader::new(ReaderConfig {
            seed,
            ..ReaderConfig::default()
        });
        let bs = trp::run_reader(&mut reader, &ch, &floor, &lossy);
        if server.verify_trp(ch, &bs).unwrap().is_alarm() {
            alarms += 1;
        }
    }
    // Half the replies vanish: essentially every round alarms. That is
    // the documented conservative behaviour (fail safe).
    assert!(alarms >= 19, "only {alarms}/20 alarms under 50% loss");
}

#[test]
fn combined_noise_and_theft_still_detects_theft() {
    // Noise must never *mask* theft: with loss and phantoms active and
    // 6 tags stolen, the miss rate stays at/below the clean-channel
    // bound.
    let noisy = Channel::with_config(ChannelConfig {
        reply_loss_prob: 0.02,
        phantom_reply_prob: 0.02,
        capture_prob: 0.5,
        ..ChannelConfig::default()
    })
    .unwrap();
    let registry = TagPopulation::with_sequential_ids(200).ids();
    let params = MonitorParams::new(200, 5, 0.95).unwrap();
    let f = trp_frame_size(&params).unwrap();
    let mut missed = 0;
    let trials = 150;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut floor = TagPopulation::with_sequential_ids(200);
        floor.remove_random(6, &mut rng).unwrap();
        let ch = TrpChallenge::generate(f, &mut rng);
        let mut reader = Reader::new(ReaderConfig {
            seed,
            ..ReaderConfig::default()
        });
        let bs = trp::run_reader(&mut reader, &ch, &floor, &noisy);
        if !trp::verify(&registry, ch, &bs).unwrap().is_alarm() {
            missed += 1;
        }
    }
    assert!(
        missed as f64 / trials as f64 <= 0.05,
        "missed {missed}/{trials}"
    );
}

#[test]
fn wrong_length_responses_error_cleanly() {
    let mut server =
        MonitorServer::new(TagPopulation::with_sequential_ids(50).ids(), 2, 0.9).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let ch = server.issue_trp_challenge(&mut rng).unwrap();
    let too_short = Bitstring::zeros(3);
    assert!(matches!(
        server.verify_trp(ch, &too_short),
        Err(CoreError::ResponseShapeMismatch { .. })
    ));
    // The error is not recorded as a verification.
    assert!(server.history().is_empty());
}

#[test]
fn detuned_beyond_tolerance_alarms_like_theft() {
    // Physically-present-but-dead tags beyond m: indistinguishable from
    // theft, and treated as such.
    let mut rng = StdRng::seed_from_u64(3);
    let mut floor = TagPopulation::with_sequential_ids(200);
    let registry = floor.ids();
    floor.detune_random(30, &mut rng).unwrap();
    let params = MonitorParams::new(200, 5, 0.95).unwrap();
    let f = trp_frame_size(&params).unwrap();
    let mut alarms = 0;
    for seed in 0..50u64 {
        let mut r = StdRng::seed_from_u64(100 + seed);
        let ch = TrpChallenge::generate(f, &mut r);
        let mut reader = Reader::new(ReaderConfig::default());
        let bs = trp::run_reader(&mut reader, &ch, &floor, &Channel::ideal());
        if trp::verify(&registry, ch, &bs).unwrap().is_alarm() {
            alarms += 1;
        }
    }
    assert!(alarms >= 45, "30 dead tags alarmed only {alarms}/50 rounds");
}

#[test]
fn utrp_detuned_tags_keep_counters_in_sync() {
    // A blocked tag misses its reply window but still hears
    // announcements — after the round its counter matches its healthy
    // peers, so a later un-blocking does not poison the mirror.
    let mut rng = StdRng::seed_from_u64(4);
    let mut floor = TagPopulation::with_sequential_ids(60);
    let ids = floor.ids();
    floor.get_mut(ids[5]).unwrap().set_detuned(true);

    let server = MonitorServer::new(ids.clone(), 2, 0.9).unwrap();
    let timing = server.config().timing;
    let ch = server.issue_utrp_challenge(&mut rng).unwrap();
    run_honest_reader(&mut floor, &ch, &timing).unwrap();

    let healthy_ct = floor.get(ids[0]).unwrap().counter();
    assert_eq!(floor.get(ids[5]).unwrap().counter(), healthy_ct);
}

#[test]
fn zero_sized_populations_are_rejected_at_the_door() {
    assert!(MonitorServer::new(Vec::<TagId>::new(), 0, 0.9).is_err());
}

#[test]
fn invalid_channel_configs_are_rejected() {
    for bad in [
        ChannelConfig {
            reply_loss_prob: -0.1,
            ..ChannelConfig::default()
        },
        ChannelConfig {
            phantom_reply_prob: 2.0,
            ..ChannelConfig::default()
        },
        ChannelConfig {
            capture_prob: f64::NAN,
            ..ChannelConfig::default()
        },
    ] {
        assert!(Channel::with_config(bad).is_err());
    }
}

#[test]
fn scripted_desync_is_diagnosed_recovered_and_confirmed() {
    // The headline robustness scenario, end to end through the facade:
    // one tag misses a single downlink announcement, the next round is
    // diagnosed as Desynced (not an alarm), hypothesis-based recovery
    // repairs the mirror without a physical audit, and the round after
    // that verifies intact.
    use tagwatch::core::utrp::attributed_round;
    use tagwatch::core::{ResyncHypothesis, RoundExecutor};

    let mut server = MonitorServer::with_config(
        TagPopulation::with_sequential_ids(40).ids(),
        3,
        0.9,
        ServerConfig {
            desync_window: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut floor = TagPopulation::with_sequential_ids(40);
    let timing = server.config().timing;
    let mut rng = StdRng::seed_from_u64(7);

    // Round 1: the tag replying in the first occupied slot misses the
    // round's LAST announcement — its reply already landed, so the
    // round verifies intact, but its counter ends one behind the
    // mirror.
    let ch1 = server.issue_utrp_challenge(&mut rng).unwrap();
    let registry: Vec<(TagId, Counter)> = floor
        .ids()
        .into_iter()
        .map(|id| (id, Counter::ZERO))
        .collect();
    let (dry, attribution) = attributed_round(&registry, &ch1).unwrap();
    let first_occupied = dry.bitstring.iter_ones().next().unwrap();
    let victim = attribution[first_occupied][0];
    let plan = FaultPlan::new().lose_announcement(dry.announcements - 1, [victim]);
    let response = RoundExecutor::new(Channel::ideal(), Some(plan))
        .run_utrp_scratch(
            &mut floor,
            &ch1,
            &timing,
            &mut rng,
            &mut RoundScratch::new(),
        )
        .unwrap();
    assert!(server
        .verify_utrp(ch1, &response)
        .unwrap()
        .verdict
        .is_intact());

    // Later rounds: the stale counter stays latent while it happens to
    // hash into an indistinguishable slot (those rounds verify intact)
    // and surfaces as soon as a challenge separates it. Desynced is
    // inconclusive — neither an alarm nor a pass — and names the
    // victim.
    let report = loop {
        let ch = server.issue_utrp_challenge(&mut rng).unwrap();
        let response = run_honest_reader(&mut floor, &ch, &timing).unwrap();
        let report = server.verify_utrp(ch, &response).unwrap();
        if report.verdict.is_desynced() {
            break report;
        }
        assert!(report.verdict.is_intact(), "{report}");
    };
    assert_eq!(
        report.verdict,
        Verdict::Desynced {
            suspects: vec![victim]
        },
        "{report}"
    );
    assert!(!report.is_alarm());
    assert!(matches!(
        server.pending_resync(),
        Some(ResyncHypothesis::SingleLag { tag, lag: 1, .. }) if *tag == victim
    ));

    // Recover from the hypothesis alone and let round 3 confirm it.
    assert_eq!(server.resync_from_hypothesis().unwrap(), vec![victim]);
    let ch3 = server.issue_utrp_challenge(&mut rng).unwrap();
    let response = run_honest_reader(&mut floor, &ch3, &timing).unwrap();
    assert!(server
        .verify_utrp(ch3, &response)
        .unwrap()
        .verdict
        .is_intact());
}

#[test]
fn physical_audit_resyncs_after_undiagnosable_fault() {
    // A fault outside the hypothesis window (here: a lead past the
    // configured window) alarms rather than guessing; a physical audit
    // via resync_counters restores monitoring exactly.
    let mut server = MonitorServer::with_config(
        TagPopulation::with_sequential_ids(30).ids(),
        2,
        0.9,
        ServerConfig {
            desync_window: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut floor = TagPopulation::with_sequential_ids(30);
    let timing = server.config().timing;
    let mut rng = StdRng::seed_from_u64(8);

    // Three whole rounds run in the field but never reach the server —
    // a uniform lead far beyond desync_window = 2.
    for _ in 0..3 {
        let ch = server.issue_utrp_challenge(&mut rng).unwrap();
        run_honest_reader(&mut floor, &ch, &timing).unwrap();
    }
    let ch = server.issue_utrp_challenge(&mut rng).unwrap();
    let response = run_honest_reader(&mut floor, &ch, &timing).unwrap();
    let report = server.verify_utrp(ch, &response).unwrap();
    assert!(
        report.is_alarm(),
        "beyond-window desync must alarm: {report}"
    );
    assert!(!server.counters_synced());
    assert!(matches!(
        server.issue_utrp_challenge(&mut rng),
        Err(CoreError::CounterDesync)
    ));

    // Audit the floor, resync, and monitoring resumes cleanly.
    server
        .resync_counters(floor.iter().map(|t| (t.id(), t.counter())))
        .unwrap();
    assert!(server.counters_synced());
    let ch = server.issue_utrp_challenge(&mut rng).unwrap();
    let response = run_honest_reader(&mut floor, &ch, &timing).unwrap();
    assert!(server
        .verify_utrp(ch, &response)
        .unwrap()
        .verdict
        .is_intact());
}

#[test]
fn desynced_snapshot_round_trips_and_blocks_until_audit() {
    // A server persisted mid-desync must come back desynced: the text
    // snapshot carries counters_synced = false, the restored server
    // refuses to issue UTRP challenges, and only an audit reopens it.
    let mut server =
        MonitorServer::new(TagPopulation::with_sequential_ids(20).ids(), 2, 0.9).unwrap();
    let mut floor = TagPopulation::with_sequential_ids(20);
    let timing = server.config().timing;
    let mut rng = StdRng::seed_from_u64(9);

    // Steal two tags; the UTRP round alarms and poisons the mirror.
    let ch = server.issue_utrp_challenge(&mut rng).unwrap();
    floor.remove_random(3, &mut rng).unwrap();
    let response = run_honest_reader(&mut floor, &ch, &timing).unwrap();
    assert!(server.verify_utrp(ch, &response).unwrap().is_alarm());
    assert!(!server.counters_synced());

    // Round-trip through the durable text form.
    let text = server.snapshot().to_text();
    let snap = RegistrySnapshot::from_text(&text).unwrap();
    assert!(!snap.counters_synced);
    let mut restored = MonitorServer::from_snapshot(snap, ServerConfig::default()).unwrap();
    assert!(!restored.counters_synced());
    assert!(matches!(
        restored.issue_utrp_challenge(&mut rng),
        Err(CoreError::CounterDesync)
    ));
    // A diagnosed hypothesis is deliberately NOT persisted: recovery
    // after a restore requires a physical audit.
    assert!(matches!(
        restored.resync_from_hypothesis(),
        Err(CoreError::NoResyncHypothesis)
    ));

    restored
        .resync_counters(floor.iter().map(|t| (t.id(), t.counter())))
        .unwrap();
    assert!(restored.counters_synced());
    assert!(restored.issue_utrp_challenge(&mut rng).is_ok());
}

#[test]
fn capture_effect_reduces_collisions_for_collect_all() {
    use tagwatch::protocols::collect_all::{collect_all, CollectAllConfig};
    let run_with_capture = |capture: f64, seed: u64| -> u32 {
        let ch = Channel::with_config(ChannelConfig {
            capture_prob: capture,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reader = Reader::new(ReaderConfig {
            seed,
            ..ReaderConfig::default()
        });
        let mut floor = TagPopulation::with_sequential_ids(300);
        collect_all(
            &mut reader,
            &mut floor,
            &ch,
            &CollectAllConfig::paper(300, 0),
            &mut rng,
        )
        .unwrap()
        .rounds
    };
    let plain: u32 = (0..5).map(|s| run_with_capture(0.0, s)).sum();
    let capture: u32 = (0..5).map(|s| run_with_capture(0.9, s)).sum();
    assert!(
        capture <= plain,
        "capture effect should not slow inventory: {capture} vs {plain} rounds"
    );
}

// ---------------------------------------------------------------------
// Unified-executor differential audit: the `RoundExecutor` must agree
// *exactly* with the per-device state-machine oracle behind
// `run_device_round` for arbitrary fault plans and channels, through
// its count-based fault engine, and through its fault-free engine when
// no faults are configured. Any bitstring, counter or RNG divergence
// between the paths is a regression.
// ---------------------------------------------------------------------

fn random_plan(rng: &mut StdRng, frame: u64, n: u64) -> FaultPlan {
    use rand::Rng;
    let mut plan = FaultPlan::new();
    for _ in 0..rng.gen_range(0..4u32) {
        plan = plan.lose_replies_at(rng.gen_range(0..frame));
    }
    for _ in 0..rng.gen_range(0..3u32) {
        let victims: Vec<TagId> = (0..rng.gen_range(1..4u32))
            .map(|_| TagId::new(u128::from(rng.gen_range(1..=n))))
            .collect();
        plan = plan.lose_announcement(rng.gen_range(0..30u64), victims);
    }
    if rng.gen_bool(0.25) {
        plan = plan.crash_after_slot(rng.gen_range(frame / 2..frame));
    }
    if rng.gen_bool(0.25) {
        plan = plan.truncate_response(rng.gen_range(1..frame + 1));
    }
    plan
}

/// A channel probability: zero for pick 0, and above zero, up to
/// certainty, otherwise.
fn probability(pick: u8) -> f64 {
    [0.0, 0.03, 0.2, 0.6, 1.0][usize::from(pick)]
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(160))]

    #[test]
    fn unified_executor_agrees_with_both_legacy_fault_engines(
        n in 1u64..=60,
        frame in 1u64..=180,
        picks in proptest::prop::collection::vec(0u8..=4, 4..5),
        mute in proptest::prop::collection::vec(0u8..=5, 60..61),
        advances in proptest::prop::collection::vec(0u64..=3, 60..61),
        seed in proptest::prelude::any::<u64>(),
    ) {
        use tagwatch::core::{run_device_round, RoundExecutor};

        let channel = Channel::with_config(ChannelConfig {
            reply_loss_prob: probability(picks[0]),
            phantom_reply_prob: probability(picks[1]),
            capture_prob: probability(picks[2]),
            downlink_loss_prob: probability(picks[3]),
        })
        .unwrap();
        let timing = TimingModel::gen2();
        let mut meta_rng = StdRng::seed_from_u64(seed);
        let mut floor_a = TagPopulation::with_sequential_ids(n as usize);
        // About one tag in six is mute, and counters start up to three
        // announcements apart.
        for (i, tag) in floor_a.iter_mut().enumerate() {
            tag.set_detuned(mute[i] == 0);
            tag.advance_counter(advances[i]);
        }
        let mut floor_b = floor_a.clone();
        let f = FrameSize::new(frame).unwrap();
        let challenge = UtrpChallenge::generate(f, &timing, &mut meta_rng);
        let plan = random_plan(&mut meta_rng, frame, n);

        let executor = RoundExecutor::new(channel, Some(plan.clone()));
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x7000);
        let mut rng_b = rng_a.clone();

        let a = executor
            .run_utrp_scratch(
                &mut floor_a,
                &challenge,
                &timing,
                &mut rng_a,
                &mut RoundScratch::new(),
            )
            .unwrap();
        let b = run_device_round(&mut floor_b, &challenge, &timing, &channel, &plan, &mut rng_b)
            .unwrap();

        proptest::prop_assert_eq!(&a, &b, "executor vs device oracle");
        for (ta, tb) in floor_a.iter().zip(floor_b.iter()) {
            proptest::prop_assert_eq!(ta.counter(), tb.counter(), "counter of {}", ta.id());
        }
        proptest::prop_assert_eq!(&rng_a, &rng_b, "RNG draws differ");
    }
}

#[test]
fn faultless_executor_is_byte_identical_to_fault_free_paths() {
    use tagwatch::core::utrp::run_honest_reader;
    use tagwatch::core::RoundExecutor;

    let timing = TimingModel::gen2();
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let mut floor_a = TagPopulation::with_sequential_ids(60);
        let mut floor_b = floor_a.clone();
        let f = FrameSize::new(160).unwrap();

        // UTRP: executor with an *empty* plan must take the exact
        // fault-free path (and consume no RNG).
        let challenge = UtrpChallenge::generate(f, &timing, &mut rng);
        let executor = RoundExecutor::new(Channel::ideal(), Some(FaultPlan::new()));
        let mut unused_rng = StdRng::seed_from_u64(0);
        let via_executor = executor
            .run_utrp_scratch(
                &mut floor_a,
                &challenge,
                &timing,
                &mut unused_rng,
                &mut RoundScratch::new(),
            )
            .unwrap();
        let direct = run_honest_reader(&mut floor_b, &challenge, &timing).unwrap();
        assert_eq!(via_executor, direct, "seed {seed}");

        // TRP: same story against observed_bitstring.
        let trp_ch = TrpChallenge::generate(f, &mut rng);
        let via_trp = executor
            .run_trp(&floor_a, &trp_ch, &mut unused_rng, &Obs::disabled())
            .unwrap();
        assert_eq!(
            via_trp,
            trp::observed_bitstring(&floor_a.ids(), &trp_ch),
            "seed {seed}"
        );
        assert_eq!(
            unused_rng,
            StdRng::seed_from_u64(0),
            "faultless executor consumed RNG, seed {seed}"
        );
    }
}
