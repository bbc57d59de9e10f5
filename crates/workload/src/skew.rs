//! The hot/cold skew model (Section 4).
//!
//! Skew is characterized by two parameters: the percent of tape-resident
//! data that are hot (`PH`, a property of the catalog) and the percent of
//! tape requests directed to hot data (`RH`). A hot request selects one of
//! the hot blocks uniformly at random; a cold request selects one of the
//! cold blocks uniformly at random. Requested block numbers are
//! independent of one another.

use rand::rngs::StdRng;
use rand::Rng;

use tapesim_layout::{BlockId, Catalog};

/// Uniform-within-class hot/cold block sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSampler {
    hot_count: u32,
    total: u32,
    /// Probability that a request is directed at hot data.
    rh_fraction: f64,
}

impl BlockSampler {
    /// Creates a sampler over `total` blocks whose first `hot_count` are
    /// hot, with `rh_percent` percent of requests directed to hot data.
    ///
    /// If either class is empty, all requests go to the other class
    /// regardless of `rh_percent`.
    ///
    /// # Panics
    /// Panics if `total == 0`, `hot_count > total`, or `rh_percent` is
    /// outside `[0, 100]`.
    pub fn new(total: u32, hot_count: u32, rh_percent: f64) -> Self {
        assert!(total > 0, "cannot sample from an empty catalog");
        assert!(hot_count <= total, "hot count exceeds total");
        assert!(
            (0.0..=100.0).contains(&rh_percent),
            "rh_percent out of range"
        );
        let rh_fraction = if hot_count == 0 {
            0.0
        } else if hot_count == total {
            1.0
        } else {
            rh_percent / 100.0
        };
        BlockSampler {
            hot_count,
            total,
            rh_fraction,
        }
    }

    /// Creates a sampler matching a catalog's hot/cold partition. For an
    /// erasure-striped catalog this samples *logical* blocks (the
    /// request-visible unit), not shard cells; for a plain catalog the
    /// logical accessors are the physical ones, so nothing changes.
    pub fn from_catalog(catalog: &Catalog, rh_percent: f64) -> Self {
        BlockSampler::new(
            catalog.logical_num_blocks(),
            catalog.logical_hot_count(),
            rh_percent,
        )
    }

    /// Draws one block id.
    pub fn sample(&self, rng: &mut StdRng) -> BlockId {
        let hot = self.rh_fraction > 0.0 && rng.gen::<f64>() < self.rh_fraction;
        if hot {
            BlockId(rng.gen_range(0..self.hot_count))
        } else {
            BlockId(rng.gen_range(self.hot_count..self.total))
        }
    }

    /// The number of hot blocks.
    #[inline]
    pub fn hot_count(&self) -> u32 {
        self.hot_count
    }

    /// The total number of blocks.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// The effective probability of a hot request.
    #[inline]
    pub fn rh_fraction(&self) -> f64 {
        self.rh_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hot_fraction_is_respected() {
        let s = BlockSampler::new(1000, 100, 40.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        #[expect(
            clippy::cast_precision_loss,
            reason = "sample counts stay far below 2^53"
        )]
        let hot = (0..n).filter(|_| s.sample(&mut rng).0 < 100).count() as f64;
        let frac = hot / n as f64;
        assert!((frac - 0.4).abs() < 0.01, "hot fraction {frac}");
    }

    #[test]
    fn within_class_is_uniform() {
        let s = BlockSampler::new(100, 10, 50.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[s.sample(&mut rng).index()] += 1;
        }
        // Each hot block ~ 5000, each cold block ~ 555.
        for &c in &counts[..10] {
            assert!((4500..5500).contains(&c), "hot count {c}");
        }
        for &c in &counts[10..] {
            assert!((400..750).contains(&c), "cold count {c}");
        }
    }

    #[test]
    fn zero_hot_blocks_always_cold() {
        let s = BlockSampler::new(50, 0, 90.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(s.sample(&mut rng).0 < 50);
        }
        assert_eq!(s.rh_fraction(), 0.0);
    }

    #[test]
    fn all_hot_blocks_always_hot() {
        let s = BlockSampler::new(50, 50, 10.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(s.sample(&mut rng).0 < 50);
        }
        assert_eq!(s.rh_fraction(), 1.0);
    }

    #[test]
    fn rh_zero_never_samples_hot() {
        let s = BlockSampler::new(100, 10, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(s.sample(&mut rng).0 >= 10);
        }
    }

    #[test]
    fn rh_hundred_always_samples_hot() {
        let s = BlockSampler::new(100, 10, 100.0);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert!(s.sample(&mut rng).0 < 10);
        }
    }

    #[test]
    #[should_panic(expected = "empty catalog")]
    fn empty_catalog_rejected() {
        BlockSampler::new(0, 0, 50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rh_rejected() {
        BlockSampler::new(10, 1, 150.0);
    }
}
