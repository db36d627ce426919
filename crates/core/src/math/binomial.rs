//! Numerically stable binomial machinery.
//!
//! The detection analysis (Theorems 1, 3–5) is built on binomial
//! distributions with thousands of trials. Naive factorials overflow
//! instantly, so everything here works in log space from a cached
//! log-factorial table, and probability-mass iteration is truncated to
//! a ±σ window (the neglected tail mass is below 10⁻¹² at the default
//! 12σ, far under the 10⁻³-scale effects the protocols care about).

/// A precomputed table of `ln(k!)` for `k = 0..=max`.
///
/// Building the table is `O(max)`; every subsequent lookup and
/// [`ln_choose`](LnFactorial::ln_choose) is `O(1)`. Protocol code builds
/// one table per frame-size search and reuses it across thousands of
/// probability evaluations.
#[derive(Debug, Clone)]
pub struct LnFactorial {
    table: Vec<f64>,
}

impl LnFactorial {
    /// Builds the table up to `ln(max!)`.
    #[must_use]
    pub fn up_to(max: u64) -> Self {
        let mut t = LnFactorial { table: vec![0.0] }; // ln(0!) = 0
        t.grow_to(max);
        t
    }

    /// Extends the table to cover `ln(max!)`, reusing every entry
    /// already computed. A no-op when `max ≤ self.max()`.
    ///
    /// The log-factorial recurrence `ln(k!) = ln((k−1)!) + ln k`
    /// continues exactly from the last cached entry, so a grown table is
    /// bit-identical to one built with [`up_to`](LnFactorial::up_to)
    /// directly — growth is purely an amortization: a frame-size search
    /// that gallops past its initial guess pays only for the new
    /// entries.
    pub fn grow_to(&mut self, max: u64) {
        let want = max as usize + 1;
        if self.table.len() >= want {
            return;
        }
        self.table.reserve(want - self.table.len());
        #[expect(
            clippy::expect_used,
            reason = "the table is seeded with ln(0!) = 0 at construction and never shrinks, so last() always exists"
        )]
        let mut acc = *self.table.last().expect("table holds at least ln(0!)");
        for k in self.table.len() as u64..=max {
            acc += (k as f64).ln();
            self.table.push(acc);
        }
    }

    /// Largest `k` the table covers.
    #[must_use]
    pub fn max(&self) -> u64 {
        (self.table.len() - 1) as u64
    }

    /// `ln(k!)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the table size — a caller bug, since the
    /// table is always sized from the same `n`/`f` the caller iterates.
    #[must_use]
    pub fn ln_factorial(&self, k: u64) -> f64 {
        self.table[k as usize]
    }

    /// `ln C(n, k)`; returns `f64::NEG_INFINITY` when `k > n`.
    #[must_use]
    pub fn ln_choose(&self, n: u64, k: u64) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        self.ln_factorial(n) - self.ln_factorial(k) - self.ln_factorial(n - k)
    }

    /// The binomial probability `P[Binomial(n, p) = k]`, computed in log
    /// space.
    ///
    /// Handles the degenerate `p ∈ {0, 1}` cases exactly.
    #[must_use]
    pub fn binomial_pmf(&self, n: u64, p: f64, k: u64) -> f64 {
        if k > n {
            return 0.0;
        }
        if p <= 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if p >= 1.0 {
            return if k == n { 1.0 } else { 0.0 };
        }
        let ln_pmf = self.ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
        ln_pmf.exp()
    }
}

/// The `k`-window of a binomial distribution containing all but a
/// negligible tail: `mean ± sigmas·σ`, clamped to `[0, n]`.
///
/// With `sigmas = 12` the excluded mass is below `2·exp(-72) ≈ 10⁻³¹`
/// by Hoeffding, i.e. vastly below floating-point noise.
#[must_use]
pub fn binomial_window(n: u64, p: f64, sigmas: f64) -> (u64, u64) {
    if n == 0 {
        return (0, 0);
    }
    if p <= 0.0 {
        return (0, 0);
    }
    if p >= 1.0 {
        return (n, n);
    }
    let mean = n as f64 * p;
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    let lo = (mean - sigmas * sd).floor().max(0.0) as u64;
    let hi = (mean + sigmas * sd).ceil().min(n as f64) as u64;
    (lo, hi)
}

/// Iterator over `(k, pmf)` pairs of `Binomial(n, p)` restricted to the
/// `sigmas`-window.
pub fn binomial_terms<'a>(
    table: &'a LnFactorial,
    n: u64,
    p: f64,
    sigmas: f64,
) -> impl Iterator<Item = (u64, f64)> + 'a {
    let (lo, hi) = binomial_window(n, p, sigmas);
    (lo..=hi).map(move |k| (k, table.binomial_pmf(n, p, k)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_matches_direct_computation() {
        let t = LnFactorial::up_to(20);
        let mut fact = 1.0f64;
        for k in 1..=20u64 {
            fact *= k as f64;
            assert!((t.ln_factorial(k) - fact.ln()).abs() < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn ln_choose_matches_pascal() {
        let t = LnFactorial::up_to(30);
        assert!((t.ln_choose(5, 2).exp() - 10.0).abs() < 1e-9);
        assert!((t.ln_choose(30, 15).exp() - 155_117_520.0).abs() < 1.0);
        assert_eq!(t.ln_choose(3, 4), f64::NEG_INFINITY);
    }

    #[test]
    fn pmf_sums_to_one() {
        let t = LnFactorial::up_to(500);
        for &(n, p) in &[(10u64, 0.5f64), (100, 0.03), (500, 0.9)] {
            let total: f64 = (0..=n).map(|k| t.binomial_pmf(n, p, k)).sum();
            assert!((total - 1.0).abs() < 1e-10, "n={n} p={p}: {total}");
        }
    }

    #[test]
    fn pmf_degenerate_cases() {
        let t = LnFactorial::up_to(10);
        assert_eq!(t.binomial_pmf(10, 0.0, 0), 1.0);
        assert_eq!(t.binomial_pmf(10, 0.0, 3), 0.0);
        assert_eq!(t.binomial_pmf(10, 1.0, 10), 1.0);
        assert_eq!(t.binomial_pmf(10, 1.0, 9), 0.0);
        assert_eq!(t.binomial_pmf(10, 0.5, 11), 0.0);
    }

    #[test]
    fn pmf_handles_large_n_without_overflow() {
        let t = LnFactorial::up_to(100_000);
        let p = t.binomial_pmf(100_000, 0.5, 50_000);
        // Central term of a huge binomial: ~ 1/sqrt(pi*n/2) ≈ 0.0025.
        assert!(p > 0.002 && p < 0.003, "central pmf {p}");
    }

    #[test]
    fn window_contains_bulk_of_mass() {
        let t = LnFactorial::up_to(2_000);
        let n = 2_000u64;
        let p = 0.37;
        let mass: f64 = binomial_terms(&t, n, p, 12.0).map(|(_, pm)| pm).sum();
        assert!((mass - 1.0).abs() < 1e-9, "windowed mass {mass}");
    }

    #[test]
    fn window_respects_bounds() {
        assert_eq!(binomial_window(0, 0.5, 12.0), (0, 0));
        assert_eq!(binomial_window(10, 0.0, 12.0), (0, 0));
        assert_eq!(binomial_window(10, 1.0, 12.0), (10, 10));
        let (lo, hi) = binomial_window(100, 0.5, 2.0);
        assert!(lo >= 35 && hi <= 65 && lo < hi);
    }

    #[test]
    fn window_is_much_smaller_than_support_for_large_n() {
        let (lo, hi) = binomial_window(1_000_000, 0.5, 12.0);
        assert!(hi - lo < 15_000, "window too wide: {}", hi - lo);
    }

    #[test]
    fn table_max_reports_capacity() {
        assert_eq!(LnFactorial::up_to(7).max(), 7);
    }

    #[test]
    fn grown_table_is_bit_identical_to_direct_build() {
        let direct = LnFactorial::up_to(5_000);
        let mut grown = LnFactorial::up_to(3);
        grown.grow_to(40);
        grown.grow_to(17); // shrink request: no-op
        assert_eq!(grown.max(), 40);
        grown.grow_to(5_000);
        assert_eq!(grown.max(), direct.max());
        for k in 0..=5_000u64 {
            assert!(
                grown.ln_factorial(k).to_bits() == direct.ln_factorial(k).to_bits(),
                "k = {k}: grown {} != direct {}",
                grown.ln_factorial(k),
                direct.ln_factorial(k)
            );
        }
    }
}
