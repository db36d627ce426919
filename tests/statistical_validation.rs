//! Statistical validation: the analytic machinery (Theorems 1, 3–5)
//! against the simulated protocols — the reproduction's core soundness
//! check. If these hold, the figure binaries are measuring what the
//! paper measured.

use tagwatch::analytics::{trp_detection_trial, utrp_detection_cell, Proportion};
use tagwatch::core::math::detection::{detection_probability, EmptySlotModel};
use tagwatch::prelude::*;
use tagwatch::sim::SeedSequence;

/// Simulated TRP detection rate over `trials` at explicit `f`.
fn simulated_trp_rate(n: u64, m: u64, f: u64, trials: u64) -> f64 {
    let f = FrameSize::new(f).unwrap();
    let detected = (0..trials)
        .filter(|&s| trp_detection_trial(n, m, f, 0xABC0 + s))
        .count();
    detected as f64 / trials as f64
}

#[test]
fn theorem_1_matches_simulation_on_a_grid() {
    // g(n, m+1, f) vs measured detection, at frames below/at/above the
    // design point, where the probability is far from saturating.
    for &(n, m, f) in &[(200u64, 5u64, 200u64), (200, 5, 350), (400, 10, 300)] {
        let analytic = detection_probability(n, m + 1, f, EmptySlotModel::Poisson);
        let trials = 600;
        let measured = simulated_trp_rate(n, m, f, trials);
        // Binomial noise: sd <= 0.5/sqrt(600) ≈ 0.020; allow ~4σ plus
        // Poissonization error.
        assert!(
            (analytic - measured).abs() < 0.09,
            "n={n} m={m} f={f}: analytic {analytic:.3} vs measured {measured:.3}"
        );
    }
}

#[test]
fn eq2_frames_hit_alpha_without_excess() {
    // At the Eq. 2 frame the measured rate must exceed alpha, and at a
    // clearly smaller frame it must fall below — the frame really is
    // near-minimal in practice, not just in the model.
    let n = 300u64;
    let m = 10u64;
    let params = MonitorParams::new(n, m, 0.95).unwrap();
    let f = tagwatch::core::trp_frame_size(&params).unwrap().get();
    let at_design = simulated_trp_rate(n, m, f, 800);
    let below = simulated_trp_rate(n, m, (f as f64 * 0.7) as u64, 800);
    assert!(at_design > 0.92, "at design frame: {at_design}");
    assert!(below < 0.92, "at 0.7x frame: {below}");
    assert!(at_design > below);
}

#[test]
fn lemma_1_monotonicity_shows_up_in_simulation() {
    // More stolen tags → higher measured detection.
    let f = FrameSize::new(250).unwrap();
    let rate = |steal_minus_1: u64| {
        let detected = (0..400u64)
            .filter(|&s| trp_detection_trial(300, steal_minus_1, f, 0xD00D + s))
            .count();
        detected as f64 / 400.0
    };
    let few = rate(2); // steals 3
    let many = rate(20); // steals 21
    assert!(
        many > few + 0.1,
        "21-tag theft ({many}) should dominate 3-tag theft ({few})"
    );
}

#[test]
fn eq3_frames_hold_against_the_implemented_attack() {
    // The Fig. 7 property at two grid points: measured detection of the
    // best-strategy colluder at the Eq. 3 frame stays near alpha.
    for &(n, m) in &[(150u64, 5u64), (300, 10)] {
        let params = MonitorParams::new(n, m, 0.95).unwrap();
        let f = tagwatch::core::utrp_frame_size(&params, UtrpSizing::default()).unwrap();
        let trials = 300;
        let detected = utrp_detection_cell(n, m, f, 20, trials, SeedSequence::new(0xF167 + n + m));
        let p = Proportion::new(detected, trials);
        assert!(
            p.rate() > 0.90,
            "n={n} m={m}: measured {} at Eq.3 frame {}",
            p.rate(),
            f
        );
    }
}

#[test]
fn undersized_utrp_frames_lose_to_the_colluders() {
    // Control: at a frame well below Eq. 3 the colluders' 20-sync
    // budget covers most of the action and detection collapses.
    let n = 300u64;
    let m = 10u64;
    // Eq. 3 frame is ~400+; try a frame the sync budget can mostly cover.
    let f = FrameSize::new(60).unwrap();
    let trials = 200;
    let detected = utrp_detection_cell(n, m, f, 20, trials, SeedSequence::new(0xBAD));
    let rate = detected as f64 / trials as f64;
    assert!(
        rate < 0.90,
        "tiny frame should not reach design confidence: {rate}"
    );
}

#[test]
fn poissonization_error_is_small_at_paper_scale() {
    // The paper's p = e^{-(n-x)/f} vs the exact (1 - 1/f)^{n-x}: on the
    // evaluation grid the induced difference in g stays in the third
    // decimal — justifying reproducing figures with the Poisson form.
    for &(n, m) in &[(500u64, 10u64), (1000, 20), (2000, 30)] {
        let params = MonitorParams::new(n, m, 0.95).unwrap();
        let f = tagwatch::core::trp_frame_size(&params).unwrap().get();
        let a = detection_probability(n, m + 1, f, EmptySlotModel::Poisson);
        let b = detection_probability(n, m + 1, f, EmptySlotModel::Exact);
        assert!((a - b).abs() < 5e-3, "n={n} m={m} f={f}: {a} vs {b}");
    }
}

#[test]
fn device_path_and_fast_path_agree_trial_by_trial() {
    // The Monte-Carlo sweeps use the hashing fast path; the reference
    // path drives real Tag devices through a Reader. On an ideal
    // channel they must produce the *same verdict on every trial*, not
    // merely similar rates.
    use rand::SeedableRng;
    use tagwatch::core::trp::{run_reader, verify, TrpChallenge};

    let n = 150usize;
    let m = 5u64;
    let params = MonitorParams::new(n as u64, m, 0.95).unwrap();
    let f = tagwatch::core::trp_frame_size(&params).unwrap();

    for seed in 0..40u64 {
        // Fast path.
        let fast = trp_detection_trial(n as u64, m, f, seed);

        // Device path with the identical removal and challenge draws.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pop = TagPopulation::with_sequential_ids(n);
        let registry = pop.ids();
        pop.remove_random((m + 1) as usize, &mut rng).unwrap();
        let challenge = TrpChallenge::generate(f, &mut rng);
        let mut reader = Reader::new(ReaderConfig::default());
        let bs = run_reader(&mut reader, &challenge, &pop, &Channel::ideal());
        let device = verify(&registry, challenge, &bs).unwrap().is_alarm();

        assert_eq!(fast, device, "trial {seed} diverged between paths");
    }
}

#[test]
fn detection_estimates_are_reproducible_across_runs() {
    let f = FrameSize::new(300).unwrap();
    let run = || {
        (0..100u64)
            .filter(|&s| trp_detection_trial(200, 5, f, s))
            .count()
    };
    assert_eq!(run(), run());
}
