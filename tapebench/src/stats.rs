//! Order statistics used to summarise repeated measurements.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this benchmark reports are the ones a reader computes
/// from its raw values. A single value is its own quartiles; an empty
/// slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (s[0], s[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp raised `j` (two samples).
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range: `q3 - q1` of [`quartiles`].
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample at or below which at least a fraction `p` of them fall. This is
/// the rank rule the simulator's `MetricsReport` uses for its delay
/// percentiles. `None` for no samples.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Durations in nanoseconds, counted in power-of-two buckets: bucket `b`
/// holds `[2^b, 2^(b+1))`, bucket 0 also holds 0. Constant memory, so a
/// traced run can time millions of scheduler calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    counts: [u64; 64],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist { counts: [0; 64] }
    }
}

impl Log2Hist {
    /// Counts one duration.
    pub fn record(&mut self, ns: u64) {
        let b = 63 - (ns | 1).leading_zeros() as usize;
        self.counts[b] += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank percentile, placed inside its bucket by linear
    /// interpolation on the rank (the k-th of c samples in a bucket sits
    /// at `lo + (hi - lo) * (k - 0.5) / c`). The estimate is within a
    /// factor of two of the true sample, and moves with the rank instead
    /// of snapping to a bucket edge. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut before = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && before + c >= rank {
                let lo = if b == 0 { 0.0 } else { (1u64 << b) as f64 };
                let hi = (1u128 << (b + 1)) as f64;
                let k = (rank - before) as f64;
                return lo + (hi - lo) * (k - 0.5) / c as f64;
            }
            before += c;
        }
        unreachable!("rank {rank} is at most the sample count {n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[10.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(iqr(&v), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(iqr(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50));
        assert_eq!(nearest_rank(&s, 0.99), Some(99));
        assert_eq!(nearest_rank(&s, 1.0), Some(100));
        assert_eq!(nearest_rank(&s, 0.0), Some(1));
        // 70 samples: ceil(0.99 * 70) = 70, the largest.
        let s: Vec<u64> = (1..=70).collect();
        assert_eq!(nearest_rank(&s, 0.99), Some(70));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn log2_histogram_percentiles_stay_inside_their_bucket() {
        let mut h = Log2Hist::default();
        assert_eq!(h.percentile(0.5), 0.0);
        for ns in [0, 1, 5, 6, 7, 1000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 6);
        // Rank 3 of 6 is the first of the three samples in [4, 8).
        let p50 = h.percentile(0.5);
        assert!((4.0..8.0).contains(&p50), "{p50}");
        assert!((p50 - (4.0 + 4.0 * 0.5 / 3.0)).abs() < 1e-12);
        // Rank 6 is the lone sample in [512, 1024).
        assert_eq!(h.percentile(0.99), 768.0);
        // Monotone in p.
        let ps: Vec<f64> = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
            .iter()
            .map(|&p| h.percentile(p))
            .collect();
        assert!(ps.windows(2).all(|w| w[0] <= w[1]), "{ps:?}");
        // The largest representable duration lands in the last bucket.
        let mut big = Log2Hist::default();
        big.record(u64::MAX);
        assert!(big.percentile(0.5) >= (1u64 << 63) as f64);
    }
}
