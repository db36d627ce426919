//! Fixed-bin histograms and exact percentiles.
//!
//! Detection rates are proportions, but slot counts, air times and
//! round counts are *distributions* worth more than a mean:
//! collect-all's cost spread, UTRP announcement counts, identification
//! round counts, resync ladder depths. [`Histogram`] gives a compact
//! fixed-bin view with an ASCII rendering; [`percentile`] gives exact
//! order statistics for tail reporting.
//!
//! The metrics registry and the experiment reports share this one
//! type, so a histogram recorded by telemetry and one built by a
//! report are interchangeable (and mergeable via [`Histogram::merge`]).

use std::fmt;

/// A histogram over `[lo, hi)` with equal-width bins plus overflow and
/// underflow counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is not
    /// finite — construction bugs, not data conditions.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "lo must be below hi");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    ///
    /// `NaN` counts as overflow: it belongs to no bin, and silently
    /// landing it in bin 0 (as a naive cast would) corrupts the
    /// distribution without any trace.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        // Non-finite observations are excluded from the sum: one NaN
        // or infinity would otherwise poison `_sum` forever while the
        // bucket counts stayed healthy.
        if value.is_finite() {
            self.sum += value;
        }
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi || value.is_nan() {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            // Guard the hi-adjacent float edge.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Records many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Adds every count of `other` into `self` — the reduction step
    /// when per-shard histograms are combined into one report.
    ///
    /// Counts saturate instead of wrapping: near-`u64::MAX` inputs
    /// would otherwise overflow-panic in debug builds and silently
    /// wrap in release builds, and a saturated (pinned-at-max) count
    /// is the only rendering of that state that cannot masquerade as
    /// a small healthy value. The sum saturates to `f64::MAX` the
    /// same way (IEEE addition already does).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bounds or bin
    /// counts: merging incompatible shapes is a construction bug, and
    /// re-binning silently would misreport the distribution.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "cannot merge histograms with different shapes: [{}, {})x{} vs [{}, {})x{}",
            self.lo,
            self.hi,
            self.bins.len(),
            other.lo,
            other.hi,
            other.bins.len(),
        );
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b = b.saturating_add(*o);
        }
        self.underflow = self.underflow.saturating_add(other.underflow);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) estimated from bin counts by the
    /// nearest-rank method: returns the upper edge of the bin holding
    /// the rank-th observation. Underflow observations resolve to `lo`,
    /// overflow observations to `hi`. Returns `None` for an empty
    /// histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.lo);
        }
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return Some(self.bin_range(i).1);
            }
        }
        // Rank lands in the overflow counter (covers the single-bucket
        // case where every observation was >= hi).
        Some(self.hi)
    }

    /// Total observations recorded (including under/overflow).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every finite observation recorded (the Prometheus
    /// `_sum` series; non-finite observations are excluded — see
    /// [`Histogram::record`]).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Observations below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The histogram's `[lo, hi)` domain.
    #[must_use]
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// The bin counts.
    #[must_use]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The `[start, end)` value range of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin index out of range");
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + width * i as f64, self.lo + width * (i + 1) as f64)
    }
}

impl fmt::Display for Histogram {
    /// Renders one line per bin with a proportional bar.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const BAR: usize = 40;
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.bins.iter().enumerate() {
            let (a, b) = self.bin_range(i);
            let len = (c as usize * BAR) / max as usize;
            writeln!(f, "[{a:>10.1}, {b:>10.1})  {:<BAR$} {c}", "#".repeat(len))?;
        }
        if self.underflow > 0 {
            writeln!(f, "underflow: {}", self.underflow)?;
        }
        if self.overflow > 0 {
            writeln!(f, "overflow: {}", self.overflow)?;
        }
        Ok(())
    }
}

/// The exact `q`-quantile (0 ≤ q ≤ 1) of a sample by the
/// nearest-rank method. Returns `None` for an empty sample.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or NaN.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend([0.0, 1.9, 2.0, 9.9]);
        assert_eq!(h.bins(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn under_and_overflow_are_tracked() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.extend([-1.0, 10.0, 11.0, 5.0]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins(), &[0, 1]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn nan_counts_as_overflow_not_bin_zero() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(f64::NAN);
        assert_eq!(h.bins(), &[0, 0]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn bin_ranges_partition_the_domain() {
        let h = Histogram::new(0.0, 100.0, 4);
        assert_eq!(h.bin_range(0), (0.0, 25.0));
        assert_eq!(h.bin_range(3), (75.0, 100.0));
    }

    #[test]
    fn merge_adds_counts_pointwise() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        a.extend([1.0, 2.5, -1.0]);
        let mut b = Histogram::new(0.0, 10.0, 5);
        b.extend([2.6, 11.0]);
        a.merge(&b);
        assert_eq!(a.bins(), &[1, 2, 0, 0, 0]);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn merge_is_equivalent_to_recording_everything_in_one() {
        let xs = [0.5, 3.0, 7.7, -2.0, 12.0];
        let ys = [1.1, 9.9, 5.5];
        let mut combined = Histogram::new(0.0, 10.0, 4);
        combined.extend(xs.iter().chain(&ys).copied());

        let mut a = Histogram::new(0.0, 10.0, 4);
        a.extend(xs);
        let mut b = Histogram::new(0.0, 10.0, 4);
        b.extend(ys);
        a.merge(&b);
        assert_eq!(a.bins(), combined.bins());
        assert_eq!(a.underflow(), combined.underflow());
        assert_eq!(a.overflow(), combined.overflow());
        assert_eq!(a.count(), combined.count());
        // Sums associate differently across the merge; equality holds
        // only up to float rounding.
        assert!((a.sum() - combined.sum()).abs() < 1e-9);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping_near_u64_max() {
        let mut a = Histogram::new(0.0, 10.0, 2);
        let mut b = Histogram::new(0.0, 10.0, 2);
        // Drive every counter near the ceiling by hand: recording
        // u64::MAX observations is not a thing a test can do.
        for h in [&mut a, &mut b] {
            h.bins = vec![u64::MAX - 1, 3];
            h.underflow = u64::MAX - 2;
            h.overflow = u64::MAX;
            h.count = u64::MAX - 1;
        }
        a.merge(&b);
        assert_eq!(a.bins(), &[u64::MAX, 6]);
        assert_eq!(a.underflow(), u64::MAX);
        assert_eq!(a.overflow(), u64::MAX);
        assert_eq!(a.count(), u64::MAX);
        // Merging again must stay pinned, not wrap back around.
        a.merge(&b);
        assert_eq!(a.bins(), &[u64::MAX, 9]);
        assert_eq!(a.count(), u64::MAX);
    }

    #[test]
    fn sum_tracks_finite_observations_only() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.extend([1.0, 4.0, 12.0, -2.0]);
        assert_eq!(h.sum(), 15.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.sum(), 15.0, "non-finite observations leave sum alone");
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn single_in_range_bucket_percentiles_hit_its_upper_edge() {
        let mut h = Histogram::new(0.0, 10.0, 1);
        h.extend([1.0, 5.0, 9.0]);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(10.0));
        }
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 4);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_percentile_is_none() {
        let h = Histogram::new(0.0, 10.0, 4);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(1.0), None);
    }

    #[test]
    fn percentile_walks_bins_in_order() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        // 4 observations in bin 0, 4 in bin 4.
        h.extend([0.1, 0.2, 0.3, 0.4, 9.0, 9.1, 9.2, 9.3]);
        assert_eq!(h.percentile(0.25), Some(2.0)); // upper edge of bin 0
        assert_eq!(h.percentile(1.0), Some(10.0)); // upper edge of bin 4
    }

    #[test]
    fn single_bucket_overflow_percentile_clamps_to_hi() {
        // Every observation lands in the overflow counter of a 1-bin
        // histogram; the percentile walk must fall through to hi
        // rather than index past the bins.
        let mut h = Histogram::new(0.0, 1.0, 1);
        h.extend([5.0, 6.0, 7.0]);
        assert_eq!(h.bins(), &[0]);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.percentile(0.5), Some(1.0));
        assert_eq!(h.percentile(1.0), Some(1.0));
    }

    #[test]
    fn underflow_percentile_resolves_to_lo() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.extend([-5.0, -4.0, 5.0]);
        assert_eq!(h.percentile(0.3), Some(0.0));
        assert_eq!(h.percentile(1.0), Some(10.0));
    }

    #[test]
    fn display_renders_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.extend([0.5, 0.6, 1.5]);
        let text = h.to_string();
        assert!(text.contains('#'));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn percentile_nearest_rank() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 0.5), Some(3.0));
        assert_eq!(percentile(&data, 0.9), Some(5.0));
        assert_eq!(percentile(&data, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.1, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn bad_quantile_panics() {
        let _ = percentile(&[1.0], 1.5);
    }

    mod quantile_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The fixed-bucket estimate returns the upper edge of the
            /// bin holding the nearest-rank observation, so it can
            /// never stray more than one bucket width above the exact
            /// sorted-sample quantile (and never below it).
            #[test]
            fn estimate_within_one_bucket_width_of_exact(
                samples in prop::collection::vec(0.0f64..100.0, 1..200),
            ) {
                const BINS: usize = 20;
                let width = 100.0 / BINS as f64;
                let mut h = Histogram::new(0.0, 100.0, BINS);
                h.extend(samples.iter().copied());
                for q in [0.5, 0.99] {
                    let est = h.percentile(q).expect("non-empty");
                    let exact = percentile(&samples, q).expect("non-empty");
                    prop_assert!(
                        est >= exact && est - exact <= width,
                        "q={q}: estimate {est} vs exact {exact} (width {width})"
                    );
                }
            }
        }
    }
}
