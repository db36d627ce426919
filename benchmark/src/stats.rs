//! Order statistics for the benchmark's reports: the median, the tail
//! percentile with at least ten samples beyond it, and the quartile
//! spread used to prove a set of runs steady.

/// Sorts a copy of `values` ascending (`total_cmp`, so NaN sorts last
/// instead of poisoning the order).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle values for an even count.
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples above
/// it: the sample with exactly ten larger ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile the rank stands for: the share of samples at or
    /// below it, in percent.
    pub percentile: f64,
    /// How many samples the tail was taken over.
    pub samples: usize,
}

/// The ten-beyond tail of `values`. With ten samples or fewer no rank
/// leaves ten beyond it, so the minimum stands in (percentile
/// `100/n`); `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = n.saturating_sub(TAIL_BEYOND + 1);
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method). `None` below two samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        // Clamp as Python does: j in [1, n-1]; delta may then leave
        // [0, 4], which extrapolates exactly like the reference.
        let j = (k / 4).clamp(1, n - 1);
        let delta = k as f64 - 4.0 * j as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Quartile spread as a share of the median: `(q3 − q1) / median`,
/// the steadiness figure every end-to-end metric must keep below its
/// bound. `None` below two samples or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A fixed-size uniform sample of a stream (Algorithm R): the memory
/// a run's tick timings take stays the same however fast it runs, so
/// `peak_rss_mb` does not move with speed.
#[derive(Debug, Clone)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    samples: Vec<f64>,
    state: u64,
}

impl Reservoir {
    /// An empty reservoir keeping at most `capacity` samples, drawing
    /// replacements from a stream seeded by `seed`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            capacity: capacity.max(1),
            seen: 0,
            samples: Vec::new(),
            state: seed,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
            return;
        }
        // splitmix64: enough to pick a uniform slot in 0..seen.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let slot = (z ^ (z >> 31)) % self.seen;
        if let Some(s) = self.samples.get_mut(slot as usize) {
            *s = value;
        }
    }

    /// The kept samples, in no particular order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        let values: Vec<f64> = (0..1000).map(|i| f64::from(999 - i)).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 989.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_of_short_runs_falls_back_to_the_minimum() {
        let t = tail(&[5.0, 2.0, 9.0]).unwrap();
        assert_eq!(t.value, 2.0);
        assert_eq!(t.samples, 3);
        assert!(tail(&[]).is_none());
        // Eleven samples: the minimum has exactly ten beyond it.
        let values: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&values).unwrap().value, 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn reservoir_keeps_all_until_full_then_a_fixed_sample() {
        let mut r = Reservoir::new(100, 7);
        (0..50).for_each(|i| r.push(f64::from(i)));
        assert_eq!((r.samples().len(), r.seen()), (50, 50));
        (50..100_000).for_each(|i| r.push(f64::from(i)));
        assert_eq!((r.samples().len(), r.seen()), (100, 100_000));
        // A uniform sample of 0..100000 has its median near 50000.
        let med = median(r.samples()).unwrap();
        assert!((30_000.0..70_000.0).contains(&med), "median {med}");
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&values).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread(&[4.0, 4.0, 4.0, 4.0]), Some(0.0));
    }
}
