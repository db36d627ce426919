//! Probabilistic cardinality estimation (in the spirit of Kodialam &
//! Nandagopal \[6\]).
//!
//! The related-work family the paper builds on: estimate *how many* tags
//! are present — without identifying any — from the statistics of a
//! presence frame. With `n` tags hashing uniformly into `f` slots, the
//! expected number of empty slots is `f·e^{−n/f}`, so observing `N₀`
//! empty slots yields the **zero estimator**
//!
//! ```text
//! n̂ = f · ln(f / N₀).
//! ```
//!
//! Averaging over `k` independently seeded frames tightens the estimate
//! by `√k`. The estimator saturates when a frame comes back with no
//! empty slots (`N₀ = 0`), which the caller sees via
//! [`EstimateOutcome::saturated`] — the fix is a bigger frame.
//!
//! This module doubles as a self-check of the simulation substrate: if
//! the estimator converges to the true `n`, the slot-occupancy process
//! matches the binomial model the monitoring analysis assumes.

use rand::Rng;

use tagwatch_sim::aloha::FramePlan;
use tagwatch_sim::{Channel, FrameSize, Nonce, Reader, SimError, TagPopulation};

/// Configuration for a cardinality estimation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EstimateConfig {
    /// Frame size per round. Rule of thumb: at least the expected `n`
    /// (an `f ≈ n` frame keeps `N₀` comfortably away from zero).
    pub frame_size: FrameSize,
    /// Number of independent rounds to average.
    pub rounds: u32,
}

impl EstimateConfig {
    /// A sensible default for an expected population around `n`:
    /// `f = max(n, 16)` and 8 rounds.
    ///
    /// # Errors
    ///
    /// Propagates frame-size validation errors for absurd `n`.
    pub fn for_expected(n: u64) -> Result<Self, SimError> {
        Ok(EstimateConfig {
            frame_size: FrameSize::new(n.max(16))?,
            rounds: 8,
        })
    }
}

/// The result of a cardinality estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateOutcome {
    /// The averaged point estimate `n̂`.
    pub estimate: f64,
    /// Per-round estimates (for dispersion diagnostics).
    pub per_round: Vec<f64>,
    /// Total slots spent across all rounds.
    pub total_slots: u64,
    /// Whether any round saturated (`N₀ = 0`); the estimate is then a
    /// lower bound and the frame should be enlarged.
    pub saturated: bool,
}

impl EstimateOutcome {
    /// Sample standard deviation of the per-round estimates (0 for a
    /// single round).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        let k = self.per_round.len();
        if k < 2 {
            return 0.0;
        }
        let mean = self.estimate;
        let var = self
            .per_round
            .iter()
            .map(|e| (e - mean) * (e - mean))
            .sum::<f64>()
            / (k - 1) as f64;
        var.sqrt()
    }
}

/// Estimates the number of present, tuned tags in `population`.
#[must_use]
pub fn estimate_cardinality<R: Rng + ?Sized>(
    reader: &mut Reader,
    population: &TagPopulation,
    channel: &Channel,
    config: &EstimateConfig,
    rng: &mut R,
) -> EstimateOutcome {
    let f = config.frame_size;
    let f_float = f.get() as f64;
    let mut per_round = Vec::with_capacity(config.rounds as usize);
    let mut saturated = false;

    for _ in 0..config.rounds.max(1) {
        let plan = FramePlan::new(f, Nonce::new(rng.gen()));
        let execution = reader.run_presence_frame(&plan, population, channel);
        let empty = execution.stats().empty;
        if empty == 0 {
            saturated = true;
            // Lower-bound surrogate: pretend half a slot was empty.
            per_round.push(f_float * (f_float / 0.5).ln());
        } else {
            per_round.push(f_float * (f_float / empty as f64).ln());
        }
    }

    let estimate = per_round.iter().sum::<f64>() / per_round.len() as f64;
    EstimateOutcome {
        estimate,
        total_slots: f.get() * u64::from(config.rounds.max(1)),
        per_round,
        saturated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::ReaderConfig;

    fn run(n: usize, f: u64, rounds: u32, seed: u64) -> EstimateOutcome {
        let mut reader = Reader::new(ReaderConfig::default());
        let pop = TagPopulation::with_sequential_ids(n);
        let mut rng = StdRng::seed_from_u64(seed);
        estimate_cardinality(
            &mut reader,
            &pop,
            &Channel::ideal(),
            &EstimateConfig {
                frame_size: FrameSize::new(f).unwrap(),
                rounds,
            },
            &mut rng,
        )
    }

    #[test]
    fn estimate_converges_to_truth() {
        let outcome = run(500, 1024, 16, 7);
        assert!(!outcome.saturated);
        let rel_err = (outcome.estimate - 500.0).abs() / 500.0;
        assert!(
            rel_err < 0.10,
            "estimate {} off by {rel_err}",
            outcome.estimate
        );
    }

    #[test]
    fn estimate_handles_small_populations() {
        let outcome = run(10, 64, 16, 8);
        assert!(
            (outcome.estimate - 10.0).abs() < 6.0,
            "{}",
            outcome.estimate
        );
    }

    #[test]
    fn more_rounds_reduce_dispersion() {
        let few = run(300, 512, 2, 9);
        let many = run(300, 512, 32, 9);
        // Not a strict guarantee per-seed, but with 16× the rounds the
        // sample std-dev of the *mean* shrinks enormously; compare the
        // mean absolute error instead, which is robust.
        let err_few = (few.estimate - 300.0).abs();
        let err_many = (many.estimate - 300.0).abs();
        assert!(
            err_many <= err_few + 15.0,
            "many-round error {err_many} much worse than few-round {err_few}"
        );
    }

    #[test]
    fn undersized_frame_saturates() {
        let outcome = run(2000, 16, 4, 10);
        assert!(outcome.saturated);
        // Saturated estimates are still finite and positive.
        assert!(outcome.estimate.is_finite() && outcome.estimate > 0.0);
    }

    #[test]
    fn zero_population_estimates_zero() {
        let mut reader = Reader::new(ReaderConfig::default());
        let pop = TagPopulation::new();
        let mut rng = StdRng::seed_from_u64(11);
        let outcome = estimate_cardinality(
            &mut reader,
            &pop,
            &Channel::ideal(),
            &EstimateConfig {
                frame_size: FrameSize::new(64).unwrap(),
                rounds: 4,
            },
            &mut rng,
        );
        assert_eq!(outcome.estimate, 0.0);
    }

    #[test]
    fn slot_budget_is_accounted() {
        let outcome = run(100, 256, 4, 12);
        assert_eq!(outcome.total_slots, 1024);
        assert_eq!(outcome.per_round.len(), 4);
    }

    #[test]
    fn std_dev_zero_for_single_round() {
        let outcome = run(100, 256, 1, 13);
        assert_eq!(outcome.std_dev(), 0.0);
    }

    #[test]
    fn for_expected_builds_reasonable_config() {
        let cfg = EstimateConfig::for_expected(500).unwrap();
        assert!(cfg.frame_size.get() >= 500);
        assert!(cfg.rounds >= 1);
        let tiny = EstimateConfig::for_expected(0).unwrap();
        assert!(tiny.frame_size.get() >= 16);
    }

    #[test]
    fn estimation_never_reveals_ids() {
        // The estimator's entire input is slot occupancy — structurally
        // incapable of leaking IDs. Assert the outcome type carries no
        // TagId anywhere (compile-time shape check via Debug output).
        let outcome = run(50, 128, 2, 14);
        let debug = format!("{outcome:?}");
        assert!(!debug.contains("epc:"));
    }
}
