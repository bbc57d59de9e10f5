//! Summary statistics for experiment results.
#![expect(
    clippy::cast_possible_truncation,
    reason = "quantile ranks round within sample bounds"
)]
#![expect(
    clippy::cast_precision_loss,
    reason = "sample counts stay far below 2^53"
)]

/// Mean of a sample. Returns 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance. Returns 0 for samples of size < 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Half-width of an approximate 95% confidence interval on the mean
/// (normal approximation, 1.96 standard errors).
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    1.96 * stddev(xs) / (xs.len() as f64).sqrt()
}

/// The `p`-quantile (0..=1) of a sample, by nearest-rank on a sorted copy.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!((0.0..=1.0).contains(&p), "quantile out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Relative change from `base` to `new` (e.g. +0.18 = 18% improvement).
pub fn relative_change(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (new - base) / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((stddev(&xs) - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(ci95_half_width(&[1.0]), 0.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
    }

    #[test]
    fn relative_change_signs() {
        assert!((relative_change(100.0, 118.0) - 0.18).abs() < 1e-12);
        assert!((relative_change(100.0, 87.0) + 0.13).abs() < 1e-12);
        assert_eq!(relative_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small = [1.0, 2.0, 3.0, 4.0];
        let big: Vec<f64> = (0..64).map(|i| 1.0 + (i % 4) as f64).collect();
        assert!(ci95_half_width(&big) < ci95_half_width(&small));
    }
}
