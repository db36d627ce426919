//! Device-level integration: readers, tags and channel working
//! together, with timing invariants under both timing models.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tagwatch_sim::aloha::FramePlan;
use tagwatch_sim::prelude::*;
use tagwatch_sim::tag::TagReply;

fn plan(f: u64, r: u64) -> FramePlan {
    FramePlan::new(FrameSize::new(f).unwrap(), Nonce::new(r))
}

#[test]
fn a_full_inventory_day_on_one_reader() {
    // Morning presence check, midday collection, evening presence check
    // — one reader accumulating clock and slots across heterogeneous
    // rounds.
    let mut reader = Reader::new(ReaderConfig {
        timing: TimingModel::gen2(),
        seed: 0,
    });
    let mut floor = TagPopulation::with_sequential_ids(120);
    let channel = Channel::ideal();

    let morning = reader.run_presence_frame(&plan(256, 1), &floor, &channel);
    assert!(morning.stats().occupancy() > 0.0);

    let midday = reader.run_collection_frame(&plan(512, 2), &mut floor, &channel);
    assert!(!midday.collected.is_empty());

    floor.reset_inventory();
    let evening = reader.run_presence_frame(&plan(256, 3), &floor, &channel);
    assert_eq!(evening.occupancy_bits().len(), 256);

    assert_eq!(reader.slots_used(), 256 + 512 + 256);
    // Clock equals the sum of the three executions' durations.
    let expected = morning.duration() + midday.execution.duration() + evening.duration();
    assert_eq!(reader.clock() - SimTime::ZERO, expected);
}

#[test]
fn uniform_timing_equates_slots_and_micros() {
    // The paper's cost model: duration == slot count exactly.
    let mut reader = Reader::new(ReaderConfig::default());
    let floor = TagPopulation::with_sequential_ids(50);
    let exec = reader.run_presence_frame(&plan(128, 9), &floor, &Channel::ideal());
    assert_eq!(exec.duration().as_micros(), 128);
}

#[test]
fn gen2_duration_decomposes_by_outcome_kind() {
    let timing = TimingModel::gen2();
    let mut reader = Reader::new(ReaderConfig {
        timing,
        ..ReaderConfig::default()
    });
    let floor = TagPopulation::with_sequential_ids(300);
    let exec = reader.run_presence_frame(&plan(200, 4), &floor, &Channel::ideal());
    let stats = exec.stats();
    let expected = timing.frame_announce
        + timing.slot_broadcast * 200
        + timing.empty_slot * stats.empty
        + timing.presence_reply * stats.singles
        + timing.collision_slot * stats.collisions;
    assert_eq!(exec.duration(), expected);
}

#[test]
fn multiround_collection_drains_large_population() {
    // Collection rounds with shrinking frames until everyone is read —
    // the substrate loop underlying collect-all, driven manually.
    let mut reader = Reader::new(ReaderConfig::default());
    let mut floor = TagPopulation::with_sequential_ids(1_000);
    let channel = Channel::ideal();
    let mut collected = 0usize;
    let mut rng = StdRng::seed_from_u64(5);
    let mut round = 0u64;
    while collected < 1_000 {
        use rand::Rng;
        let remaining = (1_000 - collected).max(1) as u64;
        let p = FramePlan::new(FrameSize::new(remaining).unwrap(), Nonce::new(rng.gen()));
        let out = reader.run_collection_frame(&p, &mut floor, &channel);
        collected += out.collected.len();
        round += 1;
        assert!(round < 100, "failed to converge");
    }
    assert_eq!(collected, 1_000);
}

#[test]
fn capture_heavy_channel_speeds_up_collection() {
    let run_rounds = |capture: f64| -> u32 {
        let channel = Channel::with_config(ChannelConfig {
            capture_prob: capture,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut reader = Reader::new(ReaderConfig {
            seed: 11,
            ..ReaderConfig::default()
        });
        let mut floor = TagPopulation::with_sequential_ids(400);
        let mut rng = StdRng::seed_from_u64(11);
        let mut collected = 0usize;
        let mut rounds = 0u32;
        while collected < 400 && rounds < 200 {
            use rand::Rng;
            let remaining = (400 - collected).max(1) as u64;
            let p = FramePlan::new(FrameSize::new(remaining).unwrap(), Nonce::new(rng.gen()));
            collected += reader
                .run_collection_frame(&p, &mut floor, &channel)
                .collected
                .len();
            rounds += 1;
        }
        assert_eq!(collected, 400);
        rounds
    };
    assert!(run_rounds(0.95) <= run_rounds(0.0));
}

/// FNV-1a over a byte encoding of every outcome, replies included, so a
/// change to any slot (or to which reply a capture decodes) moves it.
fn outcomes_digest(outcomes: &[SlotOutcome]) -> u64 {
    let mut bytes = Vec::new();
    for outcome in outcomes {
        match outcome {
            SlotOutcome::Empty => bytes.push(0),
            SlotOutcome::Single(TagReply::Presence { bits }) => {
                bytes.push(1);
                bytes.extend_from_slice(&bits.to_le_bytes());
            }
            SlotOutcome::Single(TagReply::Id(id)) => {
                bytes.push(2);
                bytes.extend_from_slice(&id.as_u128().to_le_bytes());
            }
            SlotOutcome::Collision { transmitters } => {
                bytes.push(3);
                bytes.extend_from_slice(&transmitters.to_le_bytes());
            }
        }
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn a_noisy_presence_then_collection_frame_is_pinned() {
    // Loss, phantoms and capture all draw from the reader's RNG, so this
    // pins the order of those draws: one slot after another, in slot
    // order, across both frames.
    let mut reader = Reader::new(ReaderConfig {
        timing: TimingModel::gen2(),
        seed: 2008,
    });
    let channel = Channel::with_config(ChannelConfig {
        reply_loss_prob: 0.2,
        phantom_reply_prob: 0.05,
        capture_prob: 0.5,
        ..ChannelConfig::default()
    })
    .unwrap();
    let mut floor = TagPopulation::with_sequential_ids(200);

    let presence = reader.run_presence_frame(&plan(256, 17), &floor, &channel);
    let stats = presence.stats();
    assert_eq!(
        (stats.empty, stats.singles, stats.collisions),
        (120, 123, 13)
    );
    assert_eq!(outcomes_digest(presence.outcomes()), 0xb73e_5ea4_b491_ef5d);

    let collection = reader.run_collection_frame(&plan(128, 18), &mut floor, &channel);
    let stats = collection.execution.stats();
    assert_eq!((stats.empty, stats.singles, stats.collisions), (32, 72, 24));
    assert_eq!(
        outcomes_digest(collection.execution.outcomes()),
        0x43c4_2c6e_0d47_7c3b
    );
    // Two of the 72 singles are phantoms, which decode no ID.
    let collected: Vec<u128> = collection.collected.iter().map(|id| id.as_u128()).collect();
    assert_eq!(
        collected,
        [
            18, 79, 53, 42, 145, 189, 113, 66, 190, 89, 107, 43, 95, 151, 97, 61, 171, 41, 150,
            179, 88, 28, 108, 83, 166, 167, 32, 132, 137, 10, 69, 161, 2, 47, 152, 127, 105, 50,
            134, 143, 130, 7, 57, 60, 80, 31, 39, 72, 27, 197, 70, 8, 76, 112, 54, 146, 120, 44,
            25, 52, 74, 102, 136, 186, 176, 110, 194, 33, 196, 192
        ]
    );
    assert_eq!(collection.collided_slots, 24);

    assert_eq!(reader.slots_used(), 256 + 128);
    assert_eq!(reader.clock().as_micros(), 336_000);
}

#[test]
fn seed_sequence_drives_reproducible_multi_reader_fleets() {
    // Two "sites" running the same experiment from the same root seed
    // must agree bit-for-bit even with noisy channels.
    let run_site = || {
        let seeds = SeedSequence::new(314);
        let channel = Channel::with_config(ChannelConfig {
            reply_loss_prob: 0.1,
            ..ChannelConfig::default()
        })
        .unwrap();
        let mut occupancies = Vec::new();
        for trial in 0..5u64 {
            let mut reader = Reader::new(ReaderConfig {
                seed: seeds.seed_for(trial),
                ..ReaderConfig::default()
            });
            let floor = TagPopulation::with_sequential_ids(64);
            let exec = reader.run_presence_frame(&plan(128, trial), &floor, &channel);
            occupancies.push(exec.occupancy_bits());
        }
        occupancies
    };
    assert_eq!(run_site(), run_site());
}

#[test]
fn detuned_then_restored_tag_reappears() {
    let mut reader = Reader::new(ReaderConfig::default());
    let mut floor = TagPopulation::with_sequential_ids(1);
    let id = floor.ids()[0];
    let channel = Channel::ideal();

    floor.get_mut(id).unwrap().set_detuned(true);
    let silent = reader.run_presence_frame(&plan(8, 1), &floor, &channel);
    assert_eq!(silent.stats().singles, 0);

    floor.get_mut(id).unwrap().set_detuned(false);
    let audible = reader.run_presence_frame(&plan(8, 1), &floor, &channel);
    assert_eq!(audible.stats().singles, 1);
}
