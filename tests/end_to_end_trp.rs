//! End-to-end TRP: server ↔ reader ↔ tags through the full device
//! simulation (no fast paths), across channel conditions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch::core::trp;
use tagwatch::prelude::*;

fn server_and_floor(n: usize, m: u64) -> (MonitorServer, TagPopulation) {
    let floor = TagPopulation::with_sequential_ids(n);
    let server = MonitorServer::new(floor.ids(), m, 0.95).expect("valid params");
    (server, floor)
}

#[test]
fn intact_set_passes_over_many_rounds() {
    let (mut server, floor) = server_and_floor(300, 5);
    let mut rng = StdRng::seed_from_u64(1);
    let mut reader = Reader::new(ReaderConfig::default());
    for round in 0..20 {
        let challenge = server.issue_trp_challenge(&mut rng).unwrap();
        let bs = trp::run_reader(&mut reader, &challenge, &floor, &Channel::ideal());
        let report = server.verify_trp(challenge, &bs).unwrap();
        assert!(report.verdict.is_intact(), "round {round}: {report}");
    }
    assert_eq!(server.history().len(), 20);
    assert!(server.alarms().is_empty());
}

#[test]
fn theft_beyond_tolerance_is_detected_at_design_rate() {
    let (server, _) = server_and_floor(300, 5);
    let mut detected = 0u32;
    let trials = 200u64;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut floor = TagPopulation::with_sequential_ids(300);
        floor.remove_random(6, &mut rng).unwrap();
        let challenge = server.issue_trp_challenge(&mut rng).unwrap();
        let mut reader = Reader::new(ReaderConfig::default());
        let bs = trp::run_reader(&mut reader, &challenge, &floor, &Channel::ideal());
        let report = trp::verify(&server.registered_ids(), challenge, &bs).unwrap();
        if report.is_alarm() {
            detected += 1;
        }
    }
    let rate = f64::from(detected) / trials as f64;
    assert!(rate > 0.90, "detection rate {rate} (design target 0.95)");
}

#[test]
fn theft_within_tolerance_detection_is_not_required() {
    // Stealing <= m tags: the system gives NO guarantee either way; this
    // test pins the actual behaviour — detection is possible but the
    // rate is below the m+1 rate (fewer missing tags, Lemma 1).
    let (server, _) = server_and_floor(300, 10);
    let count_alarms = |steal: usize| -> u32 {
        let mut alarms = 0;
        for seed in 0..150u64 {
            let mut rng = StdRng::seed_from_u64(9_000 + seed);
            let mut floor = TagPopulation::with_sequential_ids(300);
            floor.remove_random(steal, &mut rng).unwrap();
            let challenge = server.issue_trp_challenge(&mut rng).unwrap();
            let bs = trp::observed_bitstring(&floor.ids(), &challenge);
            if trp::verify(&server.registered_ids(), challenge, &bs)
                .unwrap()
                .is_alarm()
            {
                alarms += 1;
            }
        }
        alarms
    };
    let small_theft = count_alarms(2);
    let big_theft = count_alarms(11);
    assert!(
        small_theft < big_theft,
        "2-tag theft alarmed {small_theft}, 11-tag theft {big_theft}"
    );
}

#[test]
fn perfect_channel_never_false_alarms() {
    // With no losses and an intact set, the bit-exact comparison must
    // match every time: zero false-positive rate on the ideal channel.
    let (mut server, floor) = server_and_floor(500, 0);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..30 {
        let challenge = server.issue_trp_challenge(&mut rng).unwrap();
        let bs = trp::observed_bitstring(&floor.ids(), &challenge);
        let report = server.verify_trp(challenge, &bs).unwrap();
        assert!(report.verdict.is_intact());
    }
}

#[test]
fn lossy_channel_fails_safe() {
    // Reply loss makes present tags look absent: the server may alarm
    // spuriously (fail safe) but must never be *fooled into intact* by
    // noise when tags genuinely are missing beyond tolerance.
    let lossy = Channel::with_config(ChannelConfig {
        reply_loss_prob: 0.05,
        ..ChannelConfig::default()
    })
    .unwrap();
    let (server, _) = server_and_floor(300, 5);
    let mut missed = 0;
    let trials = 100u64;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let mut floor = TagPopulation::with_sequential_ids(300);
        floor.remove_random(6, &mut rng).unwrap();
        let challenge = server.issue_trp_challenge(&mut rng).unwrap();
        let mut reader = Reader::new(ReaderConfig {
            seed,
            ..ReaderConfig::default()
        });
        let bs = trp::run_reader(&mut reader, &challenge, &floor, &lossy);
        let report = trp::verify(&server.registered_ids(), challenge, &bs).unwrap();
        if !report.is_alarm() {
            missed += 1;
        }
    }
    // Loss only *adds* mismatches on top of the theft evidence, so the
    // miss rate can only shrink relative to the ideal channel.
    assert!(
        missed <= 10,
        "missed {missed}/{trials} thefts on a lossy channel"
    );
}

#[test]
fn phantom_noise_alarms_rather_than_masks() {
    // Phantom energy sets bits the server expected empty — extra
    // mismatches, i.e. alarms. It must never repair a missing-tag hole.
    let noisy = Channel::with_config(ChannelConfig {
        phantom_reply_prob: 0.02,
        ..ChannelConfig::default()
    })
    .unwrap();
    let (server, floor) = server_and_floor(200, 0);
    let mut rng = StdRng::seed_from_u64(77);
    let challenge = server.issue_trp_challenge(&mut rng).unwrap();
    let mut reader = Reader::new(ReaderConfig::default());
    let bs = trp::run_reader(&mut reader, &challenge, &floor, &noisy);
    let expected = trp::expected_bitstring(&server.registered_ids(), &challenge);
    // Any phantom bit is a 0→1 flip relative to expectation; check that
    // no expected-1 bit was cleared (phantoms cannot hide tags).
    for (i, (exp, obs)) in expected.iter().zip(bs.iter()).enumerate() {
        if exp {
            assert!(obs, "slot {i}: phantom noise erased a present tag?");
        }
    }
}

#[test]
fn frame_sizes_scale_with_the_paper_shape() {
    // Sanity on the Eq. 2 implementation end-to-end through the server.
    let mut rng = StdRng::seed_from_u64(5);
    let mut last = 0;
    for n in [200usize, 400, 800, 1600] {
        let (server, _) = server_and_floor(n, 10);
        let f = server
            .issue_trp_challenge(&mut rng)
            .unwrap()
            .frame_size()
            .get();
        assert!(f > last, "frame must grow with n: {f} after {last}");
        assert!(f < n as u64 * 2, "frame {f} implausibly large for n={n}");
        last = f;
    }
}

#[test]
fn slot_accounting_matches_frame_size() {
    let (mut server, floor) = server_and_floor(150, 5);
    let mut rng = StdRng::seed_from_u64(8);
    let mut reader = Reader::new(ReaderConfig::default());
    let challenge = server.issue_trp_challenge(&mut rng).unwrap();
    let f = challenge.frame_size().get();
    let bs = trp::run_reader(&mut reader, &challenge, &floor, &Channel::ideal());
    assert_eq!(bs.len() as u64, f);
    assert_eq!(reader.slots_used(), f);
    server.verify_trp(challenge, &bs).unwrap();
}
