//! UTRP sizing analysis (paper §5.4, Theorems 3–5, Eq. 3).
//!
//! Against colluding readers the server must oversize the frame: the
//! colluders can perfectly synchronize the **first `c` empty slots**
//! that the primary reader `R1` encounters (each sync costs one
//! round-trip on their side channel, and the response deadline only
//! leaves room for `c` of them). Theorem 3 converts that budget into an
//! expected *global-slot* horizon
//!
//! ```text
//! c′ = c / e^{−|s1|/f} = c · e^{(n−m−1)/f}
//! ```
//!
//! before which the returned bitstring is correct. Only tags replying
//! *after* slot `c′` carry detection signal: `x ~ B(m+1, 1−c′/f)` stolen
//! tags (Thm 4) and `y ~ B(n−m−1, 1−c′/f)` present tags (Thm 5) do so,
//! over an effective frame of `f − c′` slots. Eq. 3 then requires
//!
//! ```text
//! Σᵢ Σⱼ P(x=i) P(y=j) · g(i+j, i, f−c′) > α.
//! ```
//!
//! ### Implementation note: the inner sum in closed form
//!
//! `g(i+j, i, F)`'s binomial over empty slots depends on `i` only through
//! the factor `(1 − k/F)ⁱ`, so the sum over `i` is the probability
//! generating function of `x` evaluated at `B = 1 − k/F`:
//!
//! ```text
//! Σᵢ P(x=i)·Bⁱ = ((1−q) + q·B)^{m+1},   q = 1 − c′/f.
//! ```
//!
//! This collapses the triple sum of Eq. 3 to a double sum — identical
//! values (verified in tests against the literal triple sum), hundreds
//! of times faster inside the frame-size search.

use super::binomial::{binomial_terms, LnFactorial};
use super::detection::{powi_u64, EmptySlotModel, WINDOW_SIGMAS};

/// Theorem 3: the expected number of global slots after which the
/// colluders have spent their `c` synchronizations.
///
/// Not clamped: values `≥ f` mean the colluders can synchronize the
/// whole frame and detection is impossible at this `f`.
#[must_use]
pub fn sync_horizon(n: u64, m: u64, f: u64, c: u64) -> f64 {
    debug_assert!(m < n);
    let s1 = (n - m - 1) as f64;
    c as f64 * (s1 / f as f64).exp()
}

/// The left-hand side of Eq. 3: the probability that the server detects
/// the best-strategy colluder attack with frame size `f`, tolerance `m`,
/// population `n`, and a sync budget of `c` slots.
///
/// Returns 0 when the sync horizon covers the whole frame.
///
/// # Panics
///
/// Panics if `m + 1 >= n` (the split `|s1| = n − m − 1`, `|s2| = m + 1`
/// requires at least one tag on each side) or `f == 0`.
#[must_use]
pub fn utrp_detection_probability(n: u64, m: u64, f: u64, c: u64, model: EmptySlotModel) -> f64 {
    let mut table = LnFactorial::up_to(0);
    utrp_detection_probability_with(&mut table, n, m, f, c, model)
}

/// [`utrp_detection_probability`] against a caller-provided
/// log-factorial table, grown in place to whatever this evaluation
/// needs. Frame-size searches call this hundreds of times with nearby
/// `f`; sharing one table turns per-call `O(f)` rebuilds into a single
/// amortized build (see [`LnFactorial::grow_to`]).
///
/// # Panics
///
/// As [`utrp_detection_probability`].
#[must_use]
pub fn utrp_detection_probability_with(
    table: &mut LnFactorial,
    n: u64,
    m: u64,
    f: u64,
    c: u64,
    model: EmptySlotModel,
) -> f64 {
    assert!(m + 1 < n, "need n > m + 1 for a colluder split");
    assert!(f >= 1, "frame must have at least one slot");
    let c_prime = sync_horizon(n, m, f, c);
    if c_prime >= f as f64 {
        return 0.0;
    }
    // Effective frame for post-horizon detection.
    let f_eff = (f as f64 - c_prime).floor() as u64;
    if f_eff == 0 {
        return 0.0;
    }
    let q = 1.0 - c_prime / f as f64; // P[a tag replies after the horizon]
    let s1 = n - m - 1;
    let s2 = m + 1;

    table.grow_to(f_eff.max(s1));
    let table = &*table;
    let mut detect = 0.0f64;
    // Outer sum over y = j present-tag responders after the horizon.
    for (j, py) in binomial_terms(table, s1, q, WINDOW_SIGMAS) {
        // Inner binomial over empty slots of the effective frame, with
        // the sum over x collapsed via the PGF of B(m+1, q).
        let p_empty = model.empty_slot_probability(j, f_eff);
        let undetected: f64 = binomial_terms(table, f_eff, p_empty, WINDOW_SIGMAS)
            .map(|(k, pmf)| {
                let b = 1.0 - k as f64 / f_eff as f64;
                pmf * powi_u64((1.0 - q) + q * b, s2)
            })
            .sum();
        detect += py * (1.0 - undetected);
    }
    detect.clamp(0.0, 1.0)
}

/// The literal triple-sum form of Eq. 3, kept as an executable
/// specification: slow but textually faithful to the paper. Used by
/// tests to validate the PGF-collapsed fast path.
#[must_use]
// lint:allow(u1-dead-pub): oracle: math::utrp::tests::fast_path_matches_reference_triple_sum holds the closed form to this triple sum
pub fn utrp_detection_probability_reference(
    n: u64,
    m: u64,
    f: u64,
    c: u64,
    model: EmptySlotModel,
) -> f64 {
    assert!(m + 1 < n, "need n > m + 1 for a colluder split");
    assert!(f >= 1, "frame must have at least one slot");
    let c_prime = sync_horizon(n, m, f, c);
    if c_prime >= f as f64 {
        return 0.0;
    }
    let f_eff = (f as f64 - c_prime).floor() as u64;
    if f_eff == 0 {
        return 0.0;
    }
    let q = 1.0 - c_prime / f as f64;
    let s1 = n - m - 1;
    let s2 = m + 1;
    let table = LnFactorial::up_to(f_eff.max(s1).max(s2));

    let mut detect = 0.0;
    for i in 0..=s2 {
        let px = table.binomial_pmf(s2, q, i);
        if px == 0.0 {
            continue;
        }
        for (j, py) in binomial_terms(&table, s1, q, WINDOW_SIGMAS) {
            let g = super::detection::detection_probability_with(&table, i + j, i, f_eff, model);
            detect += px * py * g;
        }
    }
    detect.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const POISSON: EmptySlotModel = EmptySlotModel::Poisson;

    #[test]
    fn sync_horizon_matches_theorem_3() {
        // c' = c · e^{(n-m-1)/f}
        let c_prime = sync_horizon(1000, 10, 1000, 20);
        let expected = 20.0 * ((1000.0 - 11.0) / 1000.0f64).exp();
        assert!((c_prime - expected).abs() < 1e-9);
    }

    #[test]
    fn sync_horizon_grows_with_budget_and_density() {
        assert!(sync_horizon(1000, 10, 800, 40) > sync_horizon(1000, 10, 800, 20));
        assert!(sync_horizon(2000, 10, 800, 20) > sync_horizon(1000, 10, 800, 20));
        // Bigger frames dilute the tag density → smaller horizon.
        assert!(sync_horizon(1000, 10, 2000, 20) < sync_horizon(1000, 10, 1000, 20));
    }

    #[test]
    fn fully_synced_frame_is_undetectable() {
        // Tiny frame: c' >= f, the colluders cover everything.
        assert_eq!(utrp_detection_probability(100, 5, 25, 20, POISSON), 0.0);
    }

    #[test]
    fn detection_monotone_in_frame_size() {
        let mut prev = 0.0;
        for f in (200..=3000).step_by(200) {
            let d = utrp_detection_probability(1000, 10, f, 20, POISSON);
            assert!(d >= prev - 1e-9, "f={f}: {d} < {prev}");
            prev = d;
        }
        assert!(prev > 0.9, "large frames should detect reliably: {prev}");
    }

    #[test]
    fn detection_decreases_with_sync_budget() {
        let lo = utrp_detection_probability(500, 5, 600, 5, POISSON);
        let hi = utrp_detection_probability(500, 5, 600, 60, POISSON);
        assert!(
            lo > hi,
            "more collusion should hurt detection: c=5 → {lo}, c=60 → {hi}"
        );
    }

    #[test]
    fn zero_budget_reduces_to_trp() {
        // With c = 0 the colluders get no synchronization: c' = 0,
        // q = 1, the effective frame is the whole frame and every tag
        // carries signal — exactly the TRP analysis with x = m + 1.
        let n = 400u64;
        let m = 5u64;
        let f = 700u64;
        let utrp = utrp_detection_probability(n, m, f, 0, POISSON);
        let trp = super::super::detection::detection_probability(n, m + 1, f, POISSON);
        assert!((utrp - trp).abs() < 1e-9, "utrp {utrp} vs trp {trp}");
    }

    #[test]
    fn fast_path_matches_reference_triple_sum() {
        for &(n, m, f, c) in &[
            (100u64, 5u64, 300u64, 10u64),
            (300, 10, 600, 20),
            (500, 20, 700, 20),
            (200, 0, 400, 15),
        ] {
            let fast = utrp_detection_probability(n, m, f, c, POISSON);
            let reference = utrp_detection_probability_reference(n, m, f, c, POISSON);
            assert!(
                (fast - reference).abs() < 1e-6,
                "n={n} m={m} f={f} c={c}: fast {fast} vs ref {reference}"
            );
        }
    }

    #[test]
    fn shared_table_reuse_is_bit_identical_to_fresh_tables() {
        // One table reused across an ascending-then-descending sweep
        // (like a gallop + bisect) must reproduce the fresh-table value
        // exactly — growth never perturbs existing entries.
        let mut table = LnFactorial::up_to(0);
        for &f in &[200u64, 1600, 400, 3000, 50, 900] {
            let shared = utrp_detection_probability_with(&mut table, 800, 10, f, 20, POISSON);
            let fresh = utrp_detection_probability(800, 10, f, 20, POISSON);
            assert!(
                shared.to_bits() == fresh.to_bits(),
                "f={f}: shared {shared} vs fresh {fresh}"
            );
        }
    }

    #[test]
    fn values_are_probabilities() {
        for f in [50u64, 200, 1000, 4000] {
            let d = utrp_detection_probability(800, 10, f, 20, POISSON);
            assert!((0.0..=1.0).contains(&d), "f={f}: {d}");
        }
    }

    #[test]
    #[should_panic(expected = "colluder split")]
    fn rejects_degenerate_split() {
        let _ = utrp_detection_probability(6, 5, 100, 20, POISSON);
    }
}
