//! Single-trial experiment bodies.
//!
//! Each function here is one Monte-Carlo trial of one experiment from
//! the paper's evaluation (§6), written against the *fast paths* of the
//! protocol crates so that thousand-trial sweeps finish in seconds. The
//! reference (device-state-machine) paths are exercised by the test
//! suites; the fast and reference paths are tested to agree.
//!
//! All trials are pure functions of their numeric inputs plus a seed:
//! no globals, no wall clock, no thread-dependent state.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tagwatch_attack::colluder::{collude_utrp, ColluderConfig};
use tagwatch_core::trp::{observed_bitstring, verify, TrpChallenge};
use tagwatch_core::utrp::{expected_round, UtrpChallenge};
use tagwatch_core::Verdict;
use tagwatch_protocols::collect_all::{collect_all, CollectAllConfig};
use tagwatch_sim::{
    Channel, Counter, FrameSize, Reader, ReaderConfig, SimDuration, TagId, TagPopulation,
    TimingModel,
};

/// One TRP detection trial (Fig. 5 body): steal exactly `m + 1` of `n`
/// tags, run one frame of size `f`, and report whether the server
/// noticed.
///
/// # Panics
///
/// Panics on invalid geometry (`m + 1 > n`) — experiment configs are
/// validated upstream.
#[must_use]
pub fn trp_detection_trial(n: u64, m: u64, f: FrameSize, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pop = TagPopulation::with_sequential_ids(n as usize);
    let all_ids = pop.ids();
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract; geometry is validated by the sweep grid before trials spawn, and a Result cannot cross the parallel trial closure"
    )]
    pop.remove_random((m + 1) as usize, &mut rng)
        .expect("m + 1 <= n validated upstream");
    let challenge = TrpChallenge::generate(f, &mut rng);
    let observed = observed_bitstring(&pop.ids(), &challenge);
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract; geometry is validated by the sweep grid before trials spawn, and a Result cannot cross the parallel trial closure"
    )]
    let report = verify(&all_ids, challenge, &observed).expect("shapes match by construction");
    report.verdict == Verdict::NotIntact
}

/// Trials sharing one challenge in [`utrp_detection_cell`]. The
/// challenge (nonce sequence) and the server's expected round depend
/// only on the registry, so recomputing them per trial would double the
/// sweep cost for no statistical gain — trial randomness comes from
/// *which* tags are stolen.
const UTRP_CELL_CHUNK: u64 = 25;

/// A full Fig. 7 cell: `trials` UTRP detection trials at one `(n, m)`
/// point, chunked so that each group of 25 trials shares a challenge
/// and one expected-round computation. Returns the number of
/// detections.
#[must_use]
pub fn utrp_detection_cell(
    n: u64,
    m: u64,
    f: FrameSize,
    c: u64,
    trials: u64,
    seeds: tagwatch_sim::SeedSequence,
) -> u64 {
    let chunks = trials.div_ceil(UTRP_CELL_CHUNK);
    let timing = TimingModel::gen2();
    let registry: Vec<(TagId, Counter)> =
        (1..=n).map(|i| (TagId::from(i), Counter::ZERO)).collect();
    crate::parallel::parallel_map(chunks, |chunk| {
        let chunk_trials = UTRP_CELL_CHUNK.min(trials - chunk * UTRP_CELL_CHUNK);
        let chunk_seeds = seeds.child(chunk);
        let mut rng = chunk_seeds.rng_for(0);
        let challenge = UtrpChallenge::generate(f, &timing, &mut rng);
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract; geometry is validated by the sweep grid before trials spawn, and a Result cannot cross the parallel trial closure"
        )]
        let expected = expected_round(&registry, &challenge).expect("sequence covers frame");
        let mut detected = 0u64;
        for t in 0..chunk_trials {
            let mut trial_rng = chunk_seeds.rng_for(t + 1);
            let mut s1 = TagPopulation::with_sequential_ids(n as usize);
            #[expect(
                clippy::expect_used,
                reason = "documented `# Panics` contract; geometry is validated by the sweep grid before trials spawn, and a Result cannot cross the parallel trial closure"
            )]
            let mut s2 = s1
                .split_random((m + 1) as usize, &mut trial_rng)
                .expect("m + 1 < n validated upstream");
            let config = ColluderConfig {
                sync_budget: c,
                tcomm: SimDuration::from_micros(1),
            };
            #[expect(
                clippy::expect_used,
                reason = "documented `# Panics` contract; geometry is validated by the sweep grid before trials spawn, and a Result cannot cross the parallel trial closure"
            )]
            let outcome = collude_utrp(&mut s1, &mut s2, &challenge, &config, &timing)
                .expect("sequence covers frame");
            let mismatch = expected.bitstring != outcome.response.bitstring;
            let late = !challenge.timer().accepts(outcome.response.elapsed);
            if mismatch || late {
                detected += 1;
            }
        }
        detected
    })
    .into_iter()
    .sum()
}

/// One collect-all cost trial (Fig. 4 body): slots to inventory
/// `n − m` of `n` present tags under the Lee-optimal DFSA policy.
#[must_use]
pub fn collect_all_slots_trial(n: u64, m: u64, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reader = Reader::new(ReaderConfig::default());
    let mut pop = TagPopulation::with_sequential_ids(n as usize);
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract; geometry is validated by the sweep grid before trials spawn, and a Result cannot cross the parallel trial closure"
    )]
    let run = collect_all(
        &mut reader,
        &mut pop,
        &Channel::ideal(),
        &CollectAllConfig::paper(n, m),
        &mut rng,
    )
    .expect("valid configuration");
    debug_assert!(!run.truncated);
    run.total_slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagwatch_core::{trp_frame_size, utrp_frame_size, MonitorParams, UtrpSizing};
    use tagwatch_sim::SeedSequence;

    #[test]
    fn trp_trial_is_deterministic_per_seed() {
        let f = FrameSize::new(300).unwrap();
        assert_eq!(
            trp_detection_trial(200, 5, f, 9),
            trp_detection_trial(200, 5, f, 9)
        );
    }

    #[test]
    fn trp_trials_detect_at_the_designed_rate() {
        let params = MonitorParams::new(200, 5, 0.95).unwrap();
        let f = trp_frame_size(&params).unwrap();
        let detected = (0..300)
            .filter(|&s| trp_detection_trial(200, 5, f, s))
            .count();
        let rate = detected as f64 / 300.0;
        assert!(rate > 0.90, "rate {rate}");
    }

    #[test]
    fn trp_trials_miss_with_tiny_frames() {
        // A 4-slot frame over 200 tags detects almost nothing.
        let f = FrameSize::new(4).unwrap();
        let detected = (0..100)
            .filter(|&s| trp_detection_trial(200, 5, f, s))
            .count();
        assert!(detected < 30, "detected {detected} with a 4-slot frame");
    }

    #[test]
    fn utrp_trial_is_deterministic_per_seed() {
        let f = FrameSize::new(250).unwrap();
        assert_eq!(
            utrp_detection_cell(100, 5, f, 20, 30, SeedSequence::new(3)),
            utrp_detection_cell(100, 5, f, 20, 30, SeedSequence::new(3))
        );
    }

    #[test]
    fn utrp_trials_detect_at_the_designed_rate() {
        let params = MonitorParams::new(150, 5, 0.95).unwrap();
        let f = utrp_frame_size(&params, UtrpSizing::default()).unwrap();
        let detected = utrp_detection_cell(150, 5, f, 20, 200, SeedSequence::new(0));
        let rate = detected as f64 / 200.0;
        assert!(rate > 0.90, "rate {rate}");
    }

    #[test]
    fn collect_all_trial_costs_scale_with_n() {
        let small = collect_all_slots_trial(100, 0, 1);
        let large = collect_all_slots_trial(400, 0, 1);
        assert!(large > 2 * small, "{large} vs {small}");
    }
}
