//! Clustered (Markov-run) request streams — an extension beyond the
//! paper's workload assumptions.
//!
//! The paper explicitly assumes independent block requests and notes that
//! it does "not exploit performance gains from clustered or Markov-type
//! data dependencies" (Section 4). This module provides the workload the
//! paper excluded: with probability `run_p` a request continues a
//! sequential run (the block after the previous request, within the same
//! heat class), otherwise it starts a fresh independent draw from the
//! hot/cold sampler. Sequential runs reward schedulers that sweep in
//! position order, so this is a natural ablation of the paper's
//! independence assumption.

use rand::rngs::StdRng;
use rand::Rng;

use tapesim_layout::BlockId;

use crate::skew::BlockSampler;

/// A sampler that produces sequential runs over the hot/cold skew model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredSampler {
    base: BlockSampler,
    /// Probability of continuing the current run.
    run_p: f64,
    last: Option<BlockId>,
}

impl ClusteredSampler {
    /// Wraps a hot/cold sampler with run probability `run_p` in `[0, 1)`.
    /// `run_p = 0` reproduces the paper's independent stream exactly.
    ///
    /// # Panics
    /// Panics if `run_p` is not in `[0, 1)`.
    pub fn new(base: BlockSampler, run_p: f64) -> Self {
        assert!((0.0..1.0).contains(&run_p), "run_p must be in [0, 1)");
        ClusteredSampler {
            base,
            run_p,
            last: None,
        }
    }

    /// The run-continuation probability.
    #[inline]
    pub fn run_p(&self) -> f64 {
        self.run_p
    }

    /// Expected run length `1 / (1 - run_p)`.
    #[inline]
    pub fn mean_run_length(&self) -> f64 {
        1.0 / (1.0 - self.run_p)
    }

    /// Draws the next block id: continues the current run within the same
    /// heat class, or starts a new independent draw.
    pub fn sample(&mut self, rng: &mut StdRng) -> BlockId {
        let next = match self.last {
            Some(prev) if self.run_p > 0.0 && rng.gen::<f64>() < self.run_p => {
                // Successor within the same class, wrapping at the class
                // boundary so runs never leak between hot and cold.
                let hot = self.base.hot_count();
                let total = self.base.total();
                let succ = prev.0 + 1;
                if prev.0 < hot {
                    BlockId(if succ < hot { succ } else { 0 })
                } else {
                    BlockId(if succ < total { succ } else { hot })
                }
            }
            _ => self.base.sample(rng),
        };
        self.last = Some(next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn base() -> BlockSampler {
        BlockSampler::new(100, 10, 40.0)
    }

    #[test]
    fn zero_run_p_is_independent() {
        let mut c = ClusteredSampler::new(base(), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        // Count immediate successors; with p = 0 they are rare (~1%).
        let mut succ = 0;
        let mut prev = c.sample(&mut rng);
        for _ in 0..5_000 {
            let x = c.sample(&mut rng);
            if x.0 == prev.0 + 1 {
                succ += 1;
            }
            prev = x;
        }
        assert!(succ < 150, "{succ} successors out of 5000");
    }

    #[test]
    fn high_run_p_produces_long_runs() {
        let mut c = ClusteredSampler::new(base(), 0.9);
        assert!((c.mean_run_length() - 10.0).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(2);
        let mut succ = 0;
        let mut prev = c.sample(&mut rng);
        let n = 5_000;
        for _ in 0..n {
            let x = c.sample(&mut rng);
            if x.0 == prev.0 + 1 || (prev.0 == 9 && x.0 == 0) || (prev.0 == 99 && x.0 == 10) {
                succ += 1;
            }
            prev = x;
        }
        let frac = succ as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.03, "run fraction {frac}");
    }

    #[test]
    fn runs_never_cross_the_heat_boundary() {
        let mut c = ClusteredSampler::new(base(), 0.95);
        let mut rng = StdRng::seed_from_u64(3);
        let mut prev = c.sample(&mut rng);
        for _ in 0..20_000 {
            let x = c.sample(&mut rng);
            if x.0 == prev.0 + 1 {
                // A run step stays within one class.
                assert_eq!(prev.0 < 10, x.0 < 10, "run crossed boundary");
            }
            assert!(x.0 < 100);
            prev = x;
        }
    }

    #[test]
    #[should_panic(expected = "run_p")]
    fn run_p_one_rejected() {
        ClusteredSampler::new(base(), 1.0);
    }
}
