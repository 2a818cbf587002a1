//! Latency summaries: exact nearest-rank percentiles, and how many
//! samples lie beyond each, so a reported tail always states its support.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`:
/// the smallest sample with at least `q` of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && q > 0.0 && q <= 1.0);
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps exact products (0.99 × 1000) from rounding up.
    (((q * n as f64) - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `q`-quantile's rank: the support of a tail
/// figure (the method wants at least ten).
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Median of an unsorted, non-empty slice (the mean of the two middle
/// values for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Median, tails, count, and the support beyond each tail of one
/// latency series.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub beyond_p95: usize,
    pub p99: f64,
    pub beyond_p99: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p95: percentile(&v, 0.95),
            beyond_p95: beyond(v.len(), 0.95),
            p99: percentile(&v, 0.99),
            beyond_p99: beyond(v.len(), 0.99),
        }
    }
}

/// Rates over equal windows tiling `[start, end)`: as many windows as
/// `window` seconds fit (at least one), each the `amount` of the samples
/// that completed in it over its length. `done` holds (completion time,
/// amount); a completion at or past `end` counts in the last window. The
/// median of these rates is the typical sustained rate, which a stall in
/// one window moves by at most one rank.
pub fn window_rates(start: f64, end: f64, window: f64, done: &[(f64, f64)]) -> Vec<f64> {
    let len = (end - start).max(f64::MIN_POSITIVE);
    let k = ((len / window).floor() as usize).max(1);
    let w = len / k as f64;
    let mut sums = vec![0.0; k];
    for &(t, amount) in done {
        let i = (((t - start) / w).floor().max(0.0) as usize).min(k - 1);
        sums[i] += amount;
    }
    sums.into_iter().map(|s| s / w).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Between ranks, the next sample up.
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.34), 2.0);
        assert_eq!(percentile(&v, 0.33), 1.0);
    }

    #[test]
    fn samples_beyond_the_rank() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(999, 0.99), 9); // rank ceil(989.01) = 990
        assert_eq!(beyond(1, 0.99), 0);
        assert_eq!(beyond(2000, 0.5), 1000);
        let s = Summary::of(&(0..1500).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.n, s.beyond_p99), (1500, 15));
        assert_eq!(s.p99, 1484.0);
        assert_eq!((s.p95, s.beyond_p95), (1424.0, 75));
        assert_eq!(s.p50, 749.0);
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn rates_over_tiling_windows() {
        // 1.1 s holds four whole 0.25 s windows, so each is 0.275 s long.
        let done = [
            (10.0, 1.0),
            (10.2, 1.0),
            (10.3, 2.0),
            (10.9, 4.0),
            (11.5, 8.0),
        ];
        let r = window_rates(10.0, 11.1, 0.25, &done);
        assert_eq!(r.len(), 4);
        let w = 1.1 / 4.0;
        let expect = [2.0 / w, 2.0 / w, 0.0, 12.0 / w];
        for (got, want) in r.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // Shorter than one window: a single window over the whole span.
        assert_eq!(
            window_rates(0.0, 0.1, 0.25, &[(0.05, 1.0)]),
            vec![1.0 / 0.1]
        );
        // An empty phase still has one window, at rate 0.
        assert_eq!(window_rates(3.0, 3.0, 0.25, &[]).len(), 1);
    }
}
