//! Markov-modulated channel evolution for long-horizon soak runs.
//!
//! A single [`ChannelConfig`] models one
//! *stationary* radio environment. Real deployments drift: a loading
//! dock is quiet at night, noisy when forklifts run, and occasionally
//! terrible during a thunderstorm. [`MarkovChannel`] models that drift
//! as a discrete-time Markov chain over a small set of **named levels**,
//! each carrying its own channel configuration; one [`step`] per
//! monitoring tick samples the next level from the current row of the
//! transition matrix.
//!
//! The [`presets`](MarkovChannel::presets) chain intentionally keeps
//! `downlink_loss_prob` at zero in every level: downlink announcement
//! loss is the source of counter desynchronization, and a soak driver
//! that wants to *verify* quarantine convergence must know exactly which
//! tags were desynchronized. Scripted [`FaultPlan`](crate::fault)
//! bursts provide that; the Markov levels only modulate **uplink**
//! noise (reply loss, phantom energy, capture), whose worst case is a
//! false alarm — never a silent false "intact".
//!
//! [`step`]: MarkovChannel::step

use rand::Rng;

use crate::error::SimError;
use crate::radio::{Channel, ChannelConfig};

/// One named channel state of a [`MarkovChannel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelLevel {
    /// Human-readable level name (appears in soak event logs).
    pub name: String,
    /// The radio environment while the chain sits in this level.
    pub config: ChannelConfig,
}

impl ChannelLevel {
    /// Creates a level.
    #[must_use]
    pub fn new(name: impl Into<String>, config: ChannelConfig) -> Self {
        ChannelLevel {
            name: name.into(),
            config,
        }
    }
}

/// A discrete-time Markov chain over channel quality levels.
///
/// Construction validates the whole model once (row-stochastic
/// transition matrix, valid probabilities in every level), so stepping
/// and sampling never fail afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChannel {
    levels: Vec<ChannelLevel>,
    /// Row-major transition probabilities: `transitions[i][j]` is the
    /// probability of moving from level `i` to level `j` in one step.
    transitions: Vec<Vec<f64>>,
    state: usize,
}

impl MarkovChannel {
    /// Builds a chain from levels, a transition matrix, and an initial
    /// state index.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProbability`] if any level's channel
    /// knobs are invalid, the matrix is not square over the levels, a
    /// row does not sum to 1 (within `1e-9`), or `initial` is out of
    /// range.
    pub fn new(
        levels: Vec<ChannelLevel>,
        transitions: Vec<Vec<f64>>,
        initial: usize,
    ) -> Result<Self, SimError> {
        let n = levels.len();
        if n == 0 || initial >= n || transitions.len() != n {
            return Err(SimError::InvalidProbability {
                name: "markov_shape",
                value: n as f64,
            });
        }
        for level in &levels {
            level.config.validate()?;
        }
        for row in &transitions {
            if row.len() != n {
                return Err(SimError::InvalidProbability {
                    name: "markov_row_len",
                    value: row.len() as f64,
                });
            }
            let mut sum = 0.0;
            for &p in row {
                if !(0.0..=1.0).contains(&p) || p.is_nan() {
                    return Err(SimError::InvalidProbability {
                        name: "markov_transition",
                        value: p,
                    });
                }
                sum += p;
            }
            if (sum - 1.0).abs() > 1e-9 {
                return Err(SimError::InvalidProbability {
                    name: "markov_row_sum",
                    value: sum,
                });
            }
        }
        Ok(MarkovChannel {
            levels,
            transitions,
            state: initial,
        })
    }

    /// The calm / degraded / storm preset used by the soak driver.
    ///
    /// * **calm** — the ideal channel (all knobs zero); the chain's
    ///   stationary majority. Monitoring in calm must be silent.
    /// * **degraded** — mild uplink reply loss with occasional phantom
    ///   energy: the tolerance-`m` regime, where false alarms are rare
    ///   but possible.
    /// * **storm** — heavy uplink loss and phantom bursts: rounds alarm
    ///   frequently, exercising the escalation and audit ladders.
    ///
    /// All levels keep `downlink_loss_prob = 0` so the only counter
    /// desynchronization in a soak run is scripted (see module docs).
    #[must_use]
    pub fn presets() -> Self {
        let calm = ChannelLevel::new("calm", ChannelConfig::default());
        let degraded = ChannelLevel::new(
            "degraded",
            ChannelConfig {
                reply_loss_prob: 0.01,
                phantom_reply_prob: 0.002,
                capture_prob: 0.1,
                downlink_loss_prob: 0.0,
            },
        );
        let storm = ChannelLevel::new(
            "storm",
            ChannelConfig {
                reply_loss_prob: 0.08,
                phantom_reply_prob: 0.02,
                capture_prob: 0.25,
                downlink_loss_prob: 0.0,
            },
        );
        #[expect(
            clippy::expect_used,
            reason = "the preset matrix is a compile-time constant whose rows sum to 1; validity is pinned by unit tests"
        )]
        MarkovChannel::new(
            vec![calm, degraded, storm],
            vec![
                vec![0.90, 0.09, 0.01],
                vec![0.30, 0.60, 0.10],
                vec![0.10, 0.40, 0.50],
            ],
            0,
        )
        .expect("preset matrix is valid")
    }

    /// The current level index.
    #[must_use]
    pub fn state(&self) -> usize {
        self.state
    }

    /// The current level.
    #[must_use]
    pub fn level(&self) -> &ChannelLevel {
        &self.levels[self.state]
    }

    /// All levels, in matrix order.
    #[must_use]
    pub fn levels(&self) -> &[ChannelLevel] {
        &self.levels
    }

    /// A [`Channel`] for the current level.
    #[must_use]
    pub fn channel(&self) -> Channel {
        #[expect(
            clippy::expect_used,
            reason = "every level config was validated by MarkovChannel::new before being stored, and levels are immutable afterwards"
        )]
        Channel::with_config(self.level().config).expect("validated at construction")
    }

    /// Restores the chain to a previously observed level index, for
    /// warm restart from a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProbability`] (name `markov_state`)
    /// if `state` is not a valid level index, as read from a corrupted
    /// checkpoint.
    pub fn restore_state(&mut self, state: usize) -> Result<(), SimError> {
        if state >= self.levels.len() {
            return Err(SimError::InvalidProbability {
                name: "markov_state",
                value: state as f64,
            });
        }
        self.state = state;
        Ok(())
    }

    /// Advances the chain one step and returns the new level.
    ///
    /// Always consumes exactly one `f64` draw from `rng`, regardless of
    /// which transition fires, so seeded runs stay reproducible even
    /// when the model changes shape.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &ChannelLevel {
        let draw: f64 = rng.gen();
        let row = &self.transitions[self.state];
        let mut acc = 0.0;
        let mut next = row.len() - 1;
        for (j, &p) in row.iter().enumerate() {
            acc += p;
            if draw < acc {
                next = j;
                break;
            }
        }
        self.state = next;
        self.level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn presets_validate_and_start_calm() {
        let chain = MarkovChannel::presets();
        assert_eq!(chain.level().name, "calm");
        assert!(chain.channel().is_ideal());
        assert_eq!(chain.levels().len(), 3);
        // The design contract: no level injects downlink loss.
        for level in chain.levels() {
            assert_eq!(level.config.downlink_loss_prob, 0.0, "{}", level.name);
        }
    }

    #[test]
    fn rejects_malformed_models() {
        let level = ChannelLevel::new("only", ChannelConfig::default());
        // Row does not sum to 1.
        assert!(MarkovChannel::new(vec![level.clone()], vec![vec![0.5]], 0).is_err());
        // Non-square matrix.
        assert!(MarkovChannel::new(vec![level.clone()], vec![vec![0.5, 0.5]], 0).is_err());
        // Out-of-range initial state.
        assert!(MarkovChannel::new(vec![level.clone()], vec![vec![1.0]], 1).is_err());
        // Empty chain.
        assert!(MarkovChannel::new(vec![], vec![], 0).is_err());
        // Bad probability inside a level.
        let bad = ChannelLevel::new(
            "bad",
            ChannelConfig {
                reply_loss_prob: 1.5,
                ..ChannelConfig::default()
            },
        );
        assert!(MarkovChannel::new(vec![bad], vec![vec![1.0]], 0).is_err());
    }

    #[test]
    fn restore_state_resumes_and_rejects_out_of_range() {
        let mut chain = MarkovChannel::presets();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..37 {
            chain.step(&mut rng);
        }
        let saved = chain.state();
        let mut restored = MarkovChannel::presets();
        restored.restore_state(saved).unwrap();
        assert_eq!(restored.state(), saved);
        assert_eq!(restored.level().name, chain.level().name);
        assert!(restored.restore_state(3).is_err());
    }

    #[test]
    fn stepping_is_deterministic_per_seed() {
        let mut a = MarkovChannel::presets();
        let mut b = MarkovChannel::presets();
        let mut ra = StdRng::seed_from_u64(7);
        let mut rb = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            assert_eq!(a.step(&mut ra).name, b.step(&mut rb).name);
        }
    }

    #[test]
    fn chain_visits_every_level_and_favors_calm() {
        let mut chain = MarkovChannel::presets();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u64; 3];
        for _ in 0..5_000 {
            chain.step(&mut rng);
            counts[chain.state()] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "unvisited level: {counts:?}");
        assert!(
            counts[0] > counts[1] && counts[1] > counts[2],
            "stationary ordering violated: {counts:?}"
        );
    }

    #[test]
    fn step_consumes_exactly_one_draw() {
        use rand::Rng as _;
        let mut chain = MarkovChannel::presets();
        let mut rng = StdRng::seed_from_u64(11);
        let mut shadow = StdRng::seed_from_u64(11);
        chain.step(&mut rng);
        let _: f64 = shadow.gen();
        assert_eq!(rng.gen::<u64>(), shadow.gen::<u64>());
    }

    #[test]
    fn absorbing_state_stays_put() {
        let levels = vec![
            ChannelLevel::new("a", ChannelConfig::default()),
            ChannelLevel::new("b", ChannelConfig::default()),
        ];
        let mut chain =
            MarkovChannel::new(levels, vec![vec![0.0, 1.0], vec![0.0, 1.0]], 0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        chain.step(&mut rng);
        for _ in 0..10 {
            assert_eq!(chain.step(&mut rng).name, "b");
        }
    }
}
