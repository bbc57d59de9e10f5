//! Zipf-distributed block popularity — a finer-grained skew model than
//! the paper's two-class hot/cold partition.
//!
//! The paper characterizes skew by `(PH, RH)`: PH% of blocks receive RH%
//! of requests, uniformly within each class. Real access distributions
//! are usually closer to a Zipf law, where the `i`-th most popular block
//! is requested with probability proportional to `1 / i^theta`. This
//! module provides such a sampler (block id 0 = most popular, matching
//! the catalog convention that hot blocks are a prefix) so the paper's
//! conclusions can be checked under a smoother skew (`ext_zipf`).
#![expect(
    clippy::cast_possible_truncation,
    reason = "block populations are u32-bounded catalog sizes"
)]
#![expect(
    clippy::cast_precision_loss,
    reason = "populations stay far below 2^53"
)]

use rand::rngs::StdRng;
use rand::Rng;

use tapesim_layout::BlockId;

/// Samples block ids with Zipf(`theta`) popularity over `total` blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    /// Cumulative distribution over block ids.
    cdf: Vec<f64>,
    theta: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `total` blocks with exponent `theta >= 0`
    /// (0 = uniform; 1 = classic Zipf).
    ///
    /// # Panics
    /// Panics if `total == 0` or `theta` is negative/non-finite.
    pub fn new(total: u32, theta: f64) -> Self {
        assert!(total > 0, "cannot sample from an empty catalog");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "theta must be a non-negative finite number"
        );
        let mut cdf = Vec::with_capacity(total as usize);
        let mut acc = 0.0;
        for i in 1..=total as u64 {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let norm = acc;
        for c in &mut cdf {
            *c /= norm;
        }
        ZipfSampler { cdf, theta }
    }

    /// The exponent.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The number of blocks.
    #[inline]
    pub fn total(&self) -> u32 {
        self.cdf.len() as u32
    }

    /// Draws one block id (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> BlockId {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        BlockId(idx.min(self.cdf.len() - 1) as u32)
    }

    /// Fraction of all requests that hit the `top` most popular blocks —
    /// the Zipf analogue of the paper's RH for PH = `top / total`.
    pub fn mass_of_top(&self, top: u32) -> f64 {
        if top == 0 {
            return 0.0;
        }
        self.cdf[(top.min(self.total()) - 1) as usize]
    }

    /// Finds the exponent whose top-`ph_percent` blocks receive
    /// approximately `rh_percent` of the requests — the Zipf distribution
    /// "equivalent" to a paper `(PH, RH)` skew. Bisection over theta.
    pub fn matching_exponent(total: u32, ph_percent: f64, rh_percent: f64) -> f64 {
        assert!(total > 0);
        assert!((0.0..100.0).contains(&ph_percent) && ph_percent > 0.0);
        assert!((0.0..100.0).contains(&rh_percent) && rh_percent > 0.0);
        let top = ((total as f64 * ph_percent / 100.0).round() as u32).clamp(1, total);
        let target = rh_percent / 100.0;
        let (mut lo, mut hi) = (0.0_f64, 8.0_f64);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            let mass = ZipfSampler::new(total, mid).mass_of_top(top);
            if mass < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_zero() {
        let z = ZipfSampler::new(100, 0.0);
        assert!((z.mass_of_top(10) - 0.10).abs() < 1e-12);
        assert!((z.mass_of_top(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skew_grows_with_theta() {
        let m: Vec<f64> = [0.0, 0.5, 1.0, 1.5]
            .iter()
            .map(|&t| ZipfSampler::new(1000, t).mass_of_top(100))
            .collect();
        for w in m.windows(2) {
            assert!(w[1] > w[0], "{w:?}");
        }
        // Classic Zipf over 1000 items: top 10% draw well over half.
        assert!(m[2] > 0.6, "theta=1 mass {}", m[2]);
    }

    #[test]
    fn empirical_frequencies_match_cdf() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let hits = (0..n).filter(|_| z.sample(&mut rng).0 < 5).count();
        let expect = z.mass_of_top(5);
        let got = hits as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "got {got}, expect {expect}");
    }

    #[test]
    fn most_popular_block_is_id_zero() {
        let z = ZipfSampler::new(20, 1.2);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 20];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng).index()] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max);
        // Monotone-ish decay.
        assert!(counts[0] > counts[5]);
        assert!(counts[5] > counts[19]);
    }

    #[test]
    fn matching_exponent_hits_the_target_mass() {
        // PH-10 / RH-40 over 4480 blocks (the paper's default jukebox).
        let theta = ZipfSampler::matching_exponent(4480, 10.0, 40.0);
        let z = ZipfSampler::new(4480, theta);
        let mass = z.mass_of_top(448);
        assert!((mass - 0.40).abs() < 0.005, "mass {mass} at theta {theta}");
    }

    #[test]
    #[should_panic(expected = "empty catalog")]
    fn zero_total_rejected() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_theta_rejected() {
        ZipfSampler::new(10, -1.0);
    }
}
