//! Monitoring parameters: population size, tolerance, confidence.
//!
//! The server's policy knobs from the problem formulation (§3): a set of
//! `n` tags is *intact* while at most `m` tags are missing; the server
//! must detect a non-intact set (≥ `m + 1` missing) with probability at
//! least `α`. Both `m` and `α` are application choices — a stricter
//! warehouse sets `m = 0, α = 0.99`; a grocery store tolerates more.

use std::fmt;

use crate::error::CoreError;

/// Validated monitoring parameters `(n, m, α)`.
///
/// ```rust
/// use tagwatch_core::MonitorParams;
///
/// let p = MonitorParams::new(1000, 10, 0.95)?;
/// assert_eq!(p.population(), 1000);
/// assert_eq!(p.tolerance(), 10);
/// assert_eq!(p.worst_case_missing(), 11); // m + 1, the hardest case
/// # Ok::<(), tagwatch_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MonitorParams {
    n: u64,
    m: u64,
    alpha: f64,
}

impl MonitorParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when:
    /// * `n == 0` — nothing to monitor;
    /// * `m >= n` — the whole set could vanish and still be "intact";
    /// * `alpha` is not strictly inside `(0, 1)` (``α = 1`` would demand
    ///   certainty, which no finite frame provides; `α = 0` is vacuous).
    pub fn new(n: u64, m: u64, alpha: f64) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::InvalidParams {
                reason: "population size n must be positive".to_owned(),
            });
        }
        if m >= n {
            return Err(CoreError::InvalidParams {
                reason: format!("tolerance m = {m} must be smaller than population n = {n}"),
            });
        }
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(CoreError::InvalidParams {
                reason: format!("confidence alpha = {alpha} must lie strictly in (0, 1)"),
            });
        }
        Ok(MonitorParams { n, m, alpha })
    }

    /// The number of tags in the monitored set, `n`.
    #[must_use]
    pub const fn population(&self) -> u64 {
        self.n
    }

    /// The tolerated number of missing tags, `m`.
    #[must_use]
    pub const fn tolerance(&self) -> u64 {
        self.m
    }

    /// The required detection confidence, `α`.
    #[must_use]
    pub const fn confidence(&self) -> f64 {
        self.alpha
    }

    /// The adversary's optimal theft size `m + 1`: the smallest count
    /// that makes the set non-intact, hence the hardest to detect
    /// (paper Theorem 2 / Lemma 1).
    #[must_use]
    pub const fn worst_case_missing(&self) -> u64 {
        self.m + 1
    }
}

impl fmt::Display for MonitorParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={}, m={}, alpha={}", self.n, self.m, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_paper_configurations() {
        // The evaluation grid of §6.
        for n in (100..=2000).step_by(100) {
            for m in [5u64, 10, 20, 30] {
                assert!(MonitorParams::new(n, m, 0.95).is_ok());
            }
        }
    }

    #[test]
    fn accepts_strict_monitoring() {
        // §4.3: "a server requiring strict monitoring can assign m = 0
        // and alpha = 0.99".
        let p = MonitorParams::new(500, 0, 0.99).unwrap();
        assert_eq!(p.worst_case_missing(), 1);
    }

    #[test]
    fn rejects_zero_population() {
        assert!(MonitorParams::new(0, 0, 0.95).is_err());
    }

    #[test]
    fn rejects_tolerance_at_or_above_population() {
        assert!(MonitorParams::new(10, 10, 0.95).is_err());
        assert!(MonitorParams::new(10, 11, 0.95).is_err());
        assert!(MonitorParams::new(10, 9, 0.95).is_ok());
    }

    #[test]
    fn rejects_degenerate_confidence() {
        for alpha in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(
                MonitorParams::new(100, 5, alpha).is_err(),
                "accepted alpha = {alpha}"
            );
        }
    }

    #[test]
    fn display_mentions_all_three_knobs() {
        let text = MonitorParams::new(100, 5, 0.95).unwrap().to_string();
        assert!(text.contains("n=100"));
        assert!(text.contains("m=5"));
        assert!(text.contains("0.95"));
    }
}
