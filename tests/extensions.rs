//! Integration tests for the extension features through the facade:
//! grouped monitoring, missing-tag identification, monitoring sessions,
//! registry persistence, SGTIN identities, and the counter ablation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use tagwatch::analytics::{MonitoringSession, Policy, SessionEvent, TickProtocol};
use tagwatch::attack::rescan::{counterless_round, prescan_attack};
use tagwatch::core::groups::GroupedMonitor;
use tagwatch::core::trp::observed_bitstring;
use tagwatch::core::utrp::expected_round;
use tagwatch::prelude::*;
use tagwatch::sim::sgtin_batch;

#[test]
fn grouped_monitor_with_sgtin_identities_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1);
    let pallets: Vec<(String, Vec<TagId>)> = (0..4)
        .map(|k| {
            let ids = sgtin_batch(0xC0FFEE, 100 + k, 0, 200 + 50 * k).unwrap();
            (format!("pallet-{k}"), ids)
        })
        .collect();

    let mut monitor = GroupedMonitor::new();
    for (name, ids) in &pallets {
        monitor
            .add_group(name, ids.iter().copied(), 3, 0.95)
            .unwrap();
    }
    assert_eq!(
        monitor.to_string(),
        format!("grouped monitor: 4 groups, {} tags", 200 + 250 + 300 + 350)
    );

    // Steal from pallet-2 beyond tolerance; others intact.
    let mut floor2 = TagPopulation::from_ids(pallets[2].1.clone()).unwrap();
    floor2.remove_random(4, &mut rng).unwrap();

    let audit = monitor.issue_audit(&mut rng).unwrap();
    let mut responses = BTreeMap::new();
    for (name, ids) in &pallets {
        let present = if name == "pallet-2" {
            floor2.ids()
        } else {
            ids.clone()
        };
        responses.insert(
            name.clone(),
            observed_bitstring(&present, audit.challenge(name).unwrap()),
        );
    }
    let report = monitor.verify_audit(audit, &responses).unwrap();
    // 4 tags stolen at m = 3: detection designed > 0.95 (this seed
    // detects); the other pallets must never false-alarm.
    for k in [0, 1, 3] {
        assert!(!report.per_group[&format!("pallet-{k}")].is_alarm());
    }
    assert!(report.per_group["pallet-2"].is_alarm());
}

#[test]
fn identification_after_detection_names_the_exact_tags() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut floor = TagPopulation::with_sequential_ids(500);
    let registry = floor.ids();
    let stolen = floor.remove_random(9, &mut rng).unwrap();
    let mut stolen_ids: Vec<TagId> = stolen.iter().map(|t| t.id()).collect();
    stolen_ids.sort_unstable();

    // Detection first (one cheap frame)…
    let params = MonitorParams::new(500, 5, 0.95).unwrap();
    let f = trp_frame_size(&params).unwrap();
    let ch = TrpChallenge::generate(f, &mut rng);
    let report = tagwatch::core::trp::verify(
        &registry,
        ch.clone(),
        &observed_bitstring(&floor.ids(), &ch),
    )
    .unwrap();
    assert!(report.is_alarm());

    // …then identification pins the culprits.
    let outcome = identify_missing(&registry, IdentifyConfig::default(), &mut rng, |c| {
        Ok(observed_bitstring(&floor.ids(), c))
    })
    .unwrap();
    assert_eq!(outcome.missing, stolen_ids);
    assert!(outcome.unresolved.is_empty());
}

#[test]
fn utrp_session_survives_a_snapshot_restore_cycle() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut floor = TagPopulation::with_sequential_ids(150);
    let server = MonitorServer::new(floor.ids(), 4, 0.95).unwrap();
    let policy = Policy {
        protocol: TickProtocol::Utrp,
        ..Policy::default()
    };
    let mut session = MonitoringSession::builder(server)
        .policy(policy.clone())
        .build();

    for _ in 0..3 {
        assert!(!session.tick(&mut floor, &mut rng).unwrap().is_alarm());
    }

    // Power cycle: persist, restore, keep monitoring with live counters.
    let text = session.server().snapshot().to_text();
    let restored = MonitorServer::from_snapshot(
        RegistrySnapshot::from_text(&text).unwrap(),
        *session.server().config(),
    )
    .unwrap();
    let mut session = MonitoringSession::builder(restored).policy(policy).build();
    for _ in 0..3 {
        assert!(
            !session.tick(&mut floor, &mut rng).unwrap().is_alarm(),
            "restored mirror must keep verifying the same physical tags"
        );
    }
}

#[test]
fn session_escalation_event_is_logged_in_order() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut floor = TagPopulation::with_sequential_ids(250);
    let server = MonitorServer::new(floor.ids(), 3, 0.95).unwrap();
    let mut session = MonitoringSession::builder(server)
        .alarms_to_escalate(1)
        .build();
    session.tick(&mut floor, &mut rng).unwrap();
    floor.remove_random(6, &mut rng).unwrap();
    session.tick(&mut floor, &mut rng).unwrap();

    let log = session.log();
    assert!(matches!(log[0], SessionEvent::Checked(_)));
    assert!(matches!(log[1], SessionEvent::Checked(_)));
    assert!(matches!(log[2], SessionEvent::Escalated { .. }));
    if let SessionEvent::Escalated { missing, .. } = &log[2] {
        assert_eq!(missing.len(), 6);
    }
}

#[test]
fn counter_ablation_story_holds_through_the_facade() {
    // Counter-less UTRP: offline forgery perfect. Real UTRP: useless.
    let mut rng = StdRng::seed_from_u64(5);
    let mut s1 = TagPopulation::with_sequential_ids(100);
    let s2 = s1.split_random(7, &mut rng).unwrap();
    let f = FrameSize::new(250).unwrap();
    let challenge = UtrpChallenge::generate(f, &TimingModel::gen2(), &mut rng);

    let all: Vec<TagId> = s1.ids().into_iter().chain(s2.ids()).collect();
    let counterless_expected =
        counterless_round(&all, challenge.frame_size(), challenge.nonces()).unwrap();
    let forged = prescan_attack(&s1.ids(), &s2.ids(), &challenge).unwrap();
    assert_eq!(forged, counterless_expected, "counterless design is broken");

    let registry: Vec<(TagId, Counter)> = all.iter().map(|&id| (id, Counter::ZERO)).collect();
    let real_expected = expected_round(&registry, &challenge).unwrap();
    assert_ne!(
        forged, real_expected.bitstring,
        "the hardware counter defeats the offline forgery"
    );
}

#[test]
fn sgtin_identities_flow_through_trp_unchanged() {
    let mut rng = StdRng::seed_from_u64(6);
    let ids = sgtin_batch(0xFEED5, 42, 10_000, 400).unwrap();
    let mut server = MonitorServer::new(ids.clone(), 5, 0.95).unwrap();
    let ch = server.issue_trp_challenge(&mut rng).unwrap();
    let bs = observed_bitstring(&ids, &ch);
    assert!(server.verify_trp(ch, &bs).unwrap().verdict.is_intact());

    // Every registered ID decodes back to its SGTIN fields.
    for id in &ids {
        let sgtin = Sgtin96::decode(*id).unwrap();
        assert_eq!(sgtin.company_prefix, 0xFEED5);
        assert_eq!(sgtin.item_reference, 42);
    }
}
