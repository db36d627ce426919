//! Adversarial integration: every implemented attack against both
//! protocols, through the public server API — the security claims of
//! the paper as executable assertions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagwatch::attack::colluder::{collude_utrp, ColluderConfig};
use tagwatch::attack::replay::ReplayAttacker;
use tagwatch::attack::split_set::split_set_attack;
use tagwatch::core::trp::observed_bitstring;
use tagwatch::prelude::*;

const N: usize = 250;
const M: u64 = 5;

fn fresh_server() -> MonitorServer {
    MonitorServer::new(TagPopulation::with_sequential_ids(N).ids(), M, 0.95).unwrap()
}

#[test]
fn replay_never_beats_fresh_challenges() {
    let mut server = fresh_server();
    let stock = TagPopulation::with_sequential_ids(N);
    let mut rng = StdRng::seed_from_u64(1);

    let mut attacker = ReplayAttacker::new();
    let mut taped = std::collections::BTreeSet::new();
    // Attacker tapes 5 honest rounds while the set is intact.
    for _ in 0..5 {
        let ch = server.issue_trp_challenge(&mut rng).unwrap();
        taped.insert(ch.plan().nonce());
        attacker.record(&ch, observed_bitstring(&stock.ids(), &ch));
        // The honest result is also submitted, keeping the server happy.
        let bs = attacker.respond(&ch);
        assert!(server.verify_trp(ch, &bs).unwrap().verdict.is_intact());
    }
    assert_eq!(taped.len(), 5, "every taped challenge had a fresh nonce");

    // Theft happens; attacker replays tapes against 50 fresh challenges.
    for _ in 0..50 {
        let ch = server.issue_trp_challenge(&mut rng).unwrap();
        let bs = attacker.respond(&ch);
        let report = server.verify_trp(ch, &bs).unwrap();
        assert!(report.is_alarm(), "a taped bitstring passed a fresh nonce");
    }
}

#[test]
fn split_set_collusion_beats_trp_but_not_utrp() {
    let mut rng = StdRng::seed_from_u64(2);

    // TRP: the Alg. 4 attack passes every time.
    let mut trp_server = fresh_server();
    let mut s1 = TagPopulation::with_sequential_ids(N);
    let s2 = s1.split_random((M + 1) as usize, &mut rng).unwrap();
    for _ in 0..20 {
        let ch = trp_server.issue_trp_challenge(&mut rng).unwrap();
        let forged = split_set_attack(&s1.ids(), &s2.ids(), &ch).unwrap();
        let report = trp_server.verify_trp(ch, &forged).unwrap();
        assert!(report.verdict.is_intact(), "Alg. 4 must defeat plain TRP");
    }

    // UTRP: the strongest colluder variant is caught at the design rate.
    let mut caught = 0;
    let trials = 100u64;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let mut server = fresh_server();
        let ch = server.issue_utrp_challenge(&mut rng).unwrap();
        let mut a1 = TagPopulation::with_sequential_ids(N);
        let mut a2 = a1.split_random((M + 1) as usize, &mut rng).unwrap();
        let outcome = collude_utrp(
            &mut a1,
            &mut a2,
            &ch,
            &ColluderConfig {
                sync_budget: 20,
                tcomm: SimDuration::from_micros(1),
            },
            &server.config().timing.clone(),
        )
        .unwrap();
        if server
            .verify_utrp(ch, &outcome.response)
            .unwrap()
            .is_alarm()
        {
            caught += 1;
        }
    }
    assert!(
        caught as f64 / trials as f64 > 0.9,
        "UTRP caught only {caught}/{trials}"
    );
}

#[test]
fn colluders_with_more_budget_evade_more() {
    // Detection should degrade monotonically (statistically) in the
    // sync budget — the quantity the deadline exists to cap.
    let rate_at = |budget: u64| -> f64 {
        let trials = 150u64;
        let mut caught = 0;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(7_000 + seed);
            let mut server = fresh_server();
            // A deliberately small frame so budget matters.
            let f = FrameSize::new(150).unwrap();
            let ch = server.issue_utrp_challenge_with_frame(f, &mut rng).unwrap();
            let mut a1 = TagPopulation::with_sequential_ids(N);
            let mut a2 = a1.split_random((M + 1) as usize, &mut rng).unwrap();
            let outcome = collude_utrp(
                &mut a1,
                &mut a2,
                &ch,
                &ColluderConfig {
                    sync_budget: budget,
                    tcomm: SimDuration::from_micros(1),
                },
                &server.config().timing.clone(),
            )
            .unwrap();
            if server
                .verify_utrp(ch, &outcome.response)
                .unwrap()
                .is_alarm()
            {
                caught += 1;
            }
        }
        caught as f64 / trials as f64
    };
    let weak = rate_at(0);
    let strong = rate_at(120);
    assert!(
        weak > strong + 0.1,
        "budget 0 caught {weak}, budget 120 caught {strong}"
    );
}

#[test]
fn a_dishonest_reader_cannot_rescan_to_learn_the_pattern() {
    // Fig. 3's "re-seed backwards" attack: running the round twice gives
    // different bitstrings (counters moved), so pre-scanning the tags
    // teaches the attacker nothing about the verifiable answer.
    let mut rng = StdRng::seed_from_u64(3);
    let server = fresh_server();
    let ch = server.issue_utrp_challenge(&mut rng).unwrap();
    let timing = server.config().timing;

    let mut floor = TagPopulation::with_sequential_ids(N);
    let first = tagwatch::core::utrp::run_honest_reader(&mut floor, &ch, &timing).unwrap();
    let second = tagwatch::core::utrp::run_honest_reader(&mut floor, &ch, &timing).unwrap();
    assert_ne!(
        first.bitstring, second.bitstring,
        "rescanning must re-randomize the bitstring"
    );
}

#[test]
fn forged_all_ones_and_all_zeros_fail() {
    // Lazy forgeries: claim everything answered / nothing answered.
    let mut server = fresh_server();
    let mut rng = StdRng::seed_from_u64(4);

    let ch = server.issue_trp_challenge(&mut rng).unwrap();
    let f = ch.frame_size().as_usize();
    let ones: Bitstring = (0..f).map(|_| true).collect();
    assert!(server.verify_trp(ch, &ones).unwrap().is_alarm());

    let ch = server.issue_trp_challenge(&mut rng).unwrap();
    let zeros = Bitstring::zeros(f);
    assert!(server.verify_trp(ch, &zeros).unwrap().is_alarm());
}

#[test]
fn random_guessing_has_negligible_success() {
    // A forger without the IDs guessing a random bitstring: with ~40%
    // of slots occupied, the per-slot match probability makes success
    // astronomically small. 200 attempts must all fail.
    use rand::Rng;
    let mut server = fresh_server();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..200 {
        let ch = server.issue_trp_challenge(&mut rng).unwrap();
        let f = ch.frame_size().as_usize();
        let guess: Bitstring = (0..f).map(|_| rng.gen_bool(0.5)).collect();
        assert!(server.verify_trp(ch, &guess).unwrap().is_alarm());
    }
}

#[test]
fn desync_diagnosis_never_accepts_colluders_and_names_stolen_tags() {
    // The robustness tradeoff, as an executable assertion. With a
    // desync window enabled (it is OFF by default precisely because of
    // this), a colluding reader holding the stolen tags can steer some
    // rounds into `Desynced` instead of an outright alarm — the stolen
    // tag genuinely lags its mirror, indistinguishably from a tag that
    // missed an announcement. Two things must still hold: the set is
    // NEVER accepted as intact above the design miss rate, and every
    // diagnosed suspect is one of the stolen tags, so the follow-up
    // physical check reveals the theft.
    let trials = 100u64;
    let mut accepted = 0u64;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let mut server = MonitorServer::with_config(
            TagPopulation::with_sequential_ids(N).ids(),
            M,
            0.95,
            ServerConfig {
                desync_window: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let ch = server.issue_utrp_challenge(&mut rng).unwrap();
        let mut a1 = TagPopulation::with_sequential_ids(N);
        let mut a2 = a1.split_random((M + 1) as usize, &mut rng).unwrap();
        let stolen = a2.ids();
        let outcome = collude_utrp(
            &mut a1,
            &mut a2,
            &ch,
            &ColluderConfig {
                sync_budget: 20,
                tcomm: SimDuration::from_micros(1),
            },
            &server.config().timing.clone(),
        )
        .unwrap();
        let report = server.verify_utrp(ch, &outcome.response).unwrap();
        match report.verdict {
            Verdict::Intact => accepted += 1,
            Verdict::NotIntact => {}
            Verdict::Desynced { ref suspects } => {
                assert!(
                    suspects.iter().all(|s| stolen.contains(s)),
                    "desync diagnosis blamed an innocent tag: {suspects:?}"
                );
                // Inconclusive, not a pass: the mirror is poisoned until
                // resolved.
                assert!(!server.counters_synced());
            }
        }
    }
    // Design band, not exactly 1 - alpha: Fig. 7 measures detection
    // as low as 0.925 on small-n cells, and this seed range lands 12
    // wins with the diagnosis disabled too — the window converts zero
    // additional rounds into a pass.
    assert!(
        (accepted as f64 / trials as f64) < 0.15,
        "colluders accepted as intact {accepted}/{trials}"
    );
}
