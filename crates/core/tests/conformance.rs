//! Paper-conformance tests: each check pins an implementation detail to
//! the specific algorithm line or theorem of Tan, Sheng & Li (ICDCS
//! 2008) it realizes. Where practical, the expected behaviour is
//! re-derived *independently* in the test (a third implementation,
//! straight from the paper text) rather than by calling the code under
//! test twice.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tagwatch_core::frame::{trp_frame_size, UtrpSizing};
use tagwatch_core::math::detection::{detection_probability, EmptySlotModel};
use tagwatch_core::nonce::NonceSequence;
use tagwatch_core::timer::ResponseTimer;
use tagwatch_core::trp::{expected_bitstring, TrpChallenge};
use tagwatch_core::{MonitorParams, RoundScratch};
use tagwatch_sim::aloha::FramePlan;
use tagwatch_sim::hash::{slot_for, slot_for_counted};
use tagwatch_sim::tag::{SlotMode, Tag, TagReply};
use tagwatch_sim::{Counter, FrameSize, Nonce, TagId, TimingModel};

// ---------------------------------------------------------------------
// §3 anti-collision model and Alg. 2 (tag side of TRP)
// ---------------------------------------------------------------------

#[test]
fn alg2_line2_slot_is_hash_of_id_xor_r_mod_f() {
    // "Determine slot number sn = h(id_i ⊕ r) mod f" — the tag's choice
    // must equal the shared hash function applied per the paper.
    let f = FrameSize::new(97).unwrap();
    for raw in [1u64, 42, 0xdead_beef] {
        let id = TagId::from(raw);
        let r = Nonce::new(7);
        let mut tag = Tag::new(id);
        assert_eq!(tag.on_frame(f, r, SlotMode::Plain), slot_for(id, r, f));
    }
}

#[test]
fn alg2_line5_reply_is_random_bits_not_the_id() {
    // "Return some random bits to R" — §4.1: "the tag does not need to
    // return the tag ID ... but a much shorter random number".
    let f = FrameSize::new(16).unwrap();
    let id = TagId::new(0x1234_5678_9abc_def0);
    let mut tag = Tag::new(id);
    let sn = tag.on_frame(f, Nonce::new(1), SlotMode::Plain);
    match tag.on_slot(sn, false).unwrap() {
        TagReply::Presence { bits } => {
            assert!(bits < 1 << 10, "presence burst must be ~10 bits");
        }
        TagReply::Id(_) => panic!("TRP must not transmit IDs"),
    }
}

// ---------------------------------------------------------------------
// §4.1 server prediction and §4.2 freshness
// ---------------------------------------------------------------------

#[test]
fn section_4_1_server_predicts_bs_from_ids_alone() {
    // The server's bitstring: 1 exactly where ≥1 registered tag hashes.
    let ids: Vec<TagId> = (1..=25u64).map(TagId::from).collect();
    let f = FrameSize::new(40).unwrap();
    let r = Nonce::new(99);
    let challenge = TrpChallenge::new(FramePlan::new(f, r));
    let bs = expected_bitstring(&ids, &challenge);
    for slot in 0..40usize {
        let any_tag_here = ids.iter().any(|&id| slot_for(id, r, f) == slot as u64);
        assert_eq!(bs.get(slot).unwrap(), any_tag_here, "slot {slot}");
    }
}

#[test]
fn section_4_2_different_nonces_give_different_bitstrings() {
    // "The reader uses a different (f, r) pair each time" — freshness
    // only helps because the bitstring actually changes with r.
    let ids: Vec<TagId> = (1..=50u64).map(TagId::from).collect();
    let f = FrameSize::new(128).unwrap();
    let bs1 = expected_bitstring(&ids, &TrpChallenge::new(FramePlan::new(f, Nonce::new(1))));
    let bs2 = expected_bitstring(&ids, &TrpChallenge::new(FramePlan::new(f, Nonce::new(2))));
    assert_ne!(bs1, bs2);
}

// ---------------------------------------------------------------------
// §4.3 analysis: Theorem 1, Lemma 1, Theorem 2, Eq. 2
// ---------------------------------------------------------------------

#[test]
fn theorem_1_formula_matches_a_literal_transcription() {
    // Re-derive g(n, x, f) in the test, straight from the paper:
    //   p = e^{-(n-x)/f}
    //   g = 1 - Σ_{i=0}^{f} C(f,i) p^i (1-p)^{f-i} (1 - i/f)^x
    // using naive arithmetic (small f keeps C(f,i) exact in f64).
    let (n, x, f) = (30u64, 4u64, 20u64);
    let p = (-((n - x) as f64) / f as f64).exp();
    let mut undetected = 0.0f64;
    let mut choose = 1.0f64; // C(f, 0)
    for i in 0..=f {
        if i > 0 {
            choose = choose * (f - i + 1) as f64 / i as f64;
        }
        undetected += choose
            * p.powi(i as i32)
            * (1.0 - p).powi((f - i) as i32)
            * (1.0 - i as f64 / f as f64).powi(x as i32);
    }
    let literal = 1.0 - undetected;
    let ours = detection_probability(n, x, f, EmptySlotModel::Poisson);
    assert!(
        (ours - literal).abs() < 1e-10,
        "ours {ours} vs literal {literal}"
    );
}

#[test]
fn theorem_2_sizing_for_m_plus_1_covers_all_worse_cases() {
    // "Missing exactly m+1 tags is the worst case": the Eq. 2 frame must
    // satisfy the constraint for every x > m, not just x = m + 1.
    let params = MonitorParams::new(400, 10, 0.95).unwrap();
    let f = trp_frame_size(&params).unwrap().get();
    for x in 11..=40u64 {
        let g = detection_probability(400, x, f, EmptySlotModel::Poisson);
        assert!(g > 0.95, "x = {x}: g = {g}");
    }
}

#[test]
fn eq_2_equals_a_naive_linear_scan() {
    // f* = min{x : g(n, m+1, x) > α} by brute force on a small case.
    let params = MonitorParams::new(60, 2, 0.9).unwrap();
    let ours = trp_frame_size(&params).unwrap().get();
    let naive = (1..10_000u64)
        .find(|&f| detection_probability(60, 3, f, EmptySlotModel::Poisson) > 0.9)
        .unwrap();
    assert_eq!(ours, naive);
}

// ---------------------------------------------------------------------
// §5.2–5.3: re-seeding, counters, nonce discipline (Algs. 5–7)
// ---------------------------------------------------------------------

#[test]
fn alg7_line1_counter_increments_before_hashing() {
    // "Receive (f, r) from R. Increment ct = ct + 1" happens before
    // line 2's hash — a fresh tag's first announcement hashes with
    // ct = 1, not 0.
    let f = FrameSize::new(50).unwrap();
    let id = TagId::new(77);
    let r = Nonce::new(5);
    let mut tag = Tag::new(id);
    let sn = tag.on_frame(f, r, SlotMode::Counted);
    assert_eq!(sn, slot_for_counted(id, r, Counter::new(1), f));
}

#[test]
fn alg6_reseed_rule_f_prime_equals_slots_remaining() {
    // Re-derive one honest round independently, following Alg. 6/7 text
    // with direct hash calls, and compare with the round engine.
    let f = FrameSize::new(12).unwrap();
    let nonces = NonceSequence::from_nonces((0..12).map(Nonce::new).collect());
    let ids: Vec<TagId> = (1..=4u64).map(TagId::from).collect();

    // Literal transcription: counters start at 0; every announcement
    // increments every tag; remaining tags re-hash over the remaining
    // slot count with the next committed nonce.
    let mut ct = 0u64;
    let mut replied = vec![false; ids.len()];
    let mut nonce_idx = 0usize;
    let mut expected_bits = vec![false; 12];
    let mut subframe_start = 0u64;
    let mut f_sub = 12u64;
    let mut slots: Vec<Option<u64>>;
    let announce = |ct: &mut u64, nonce_idx: &mut usize| -> Nonce {
        *ct += 1;
        let r = nonces.get(*nonce_idx).unwrap();
        *nonce_idx += 1;
        r
    };
    let mut r = announce(&mut ct, &mut nonce_idx);
    loop {
        slots = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                (!replied[i]).then(|| {
                    slot_for_counted(id, r, Counter::new(ct), FrameSize::new(f_sub).unwrap())
                })
            })
            .collect();
        let Some(rel) = slots.iter().flatten().copied().min() else {
            break;
        };
        let global = subframe_start + rel;
        expected_bits[global as usize] = true;
        for (i, s) in slots.iter().enumerate() {
            if *s == Some(rel) {
                replied[i] = true;
            }
        }
        let remaining = 12 - (global + 1);
        if remaining == 0 {
            break;
        }
        subframe_start = global + 1;
        f_sub = remaining; // Alg. 6 line 6: f' = f − sn
        r = announce(&mut ct, &mut nonce_idx);
    }

    // The engine returns the announcement count; every tag's counter
    // advances by it, the `ct` every tag reached above.
    let mut scratch = RoundScratch::new();
    scratch.load_pairs(ids.iter().map(|&id| (id, Counter::ZERO)));
    let announcements = scratch.run(f, &nonces).unwrap();
    assert_eq!(scratch.bitstring().to_bools(), expected_bits);
    assert_eq!(announcements, ct);
}

#[test]
fn alg5_nonce_consumption_is_in_committed_order() {
    // "The reader is supposed to use each random number only once in
    // the given order" — announcements never exceed the committed
    // sequence and the k-th announcement uses nonce index k.
    // (Order is structural — NonceCursor — so we check the count.)
    let f = FrameSize::new(64).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let nonces = NonceSequence::for_frame(f, &mut rng);
    let mut scratch = RoundScratch::new();
    scratch.load_pairs((1..=30u64).map(|i| (TagId::from(i), Counter::ZERO)));
    let announcements = scratch.run(f, &nonces).unwrap();
    assert!(announcements as usize <= nonces.len());
    // 1 initial + one per reply slot except a final-slot reply.
    let replies = scratch.bitstring().count_ones() as u64;
    assert!(announcements >= replies.max(1));
}

// ---------------------------------------------------------------------
// §5.4 timer
// ---------------------------------------------------------------------

#[test]
fn section_5_4_server_sets_t_to_stmax() {
    // "The server thus sets t = STmax."
    let timer = ResponseTimer::for_frame(&TimingModel::gen2(), FrameSize::new(200).unwrap());
    assert_eq!(timer.deadline(), timer.st_max());
}

#[test]
fn section_5_4_budget_formula() {
    // "c = (t − STmin) / tcomm".
    use tagwatch_sim::SimDuration;
    let timer = ResponseTimer::from_bounds(
        SimDuration::from_micros(2_000),
        SimDuration::from_micros(42_000),
    );
    let tcomm = SimDuration::from_micros(1_000);
    assert_eq!(timer.sync_budget(tcomm), (42_000 - 2_000) / 1_000);
}

// ---------------------------------------------------------------------
// §6 evaluation configuration
// ---------------------------------------------------------------------

#[test]
fn section_6_utrp_pad_is_5_to_10_slots_by_default() {
    // "we have added a very small number of slots (between 5 10 slots)
    // to the optimal frame size" — our default must sit in that band.
    let pad = UtrpSizing::default().safety_pad;
    assert!(
        (5..=10).contains(&pad),
        "pad {pad} outside the paper's band"
    );
    assert_eq!(UtrpSizing::default().sync_budget, 20, "paper uses c = 20");
}
