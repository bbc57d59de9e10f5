//! Request generation scenarios (Section 4).
//!
//! Two scenarios are studied:
//!
//! * **closed queuing** — a fixed number of I/O-bound processes: a new
//!   request is generated immediately after each completion, keeping the
//!   request queue length constant. Workload intensity is set by the
//!   queue length.
//! * **open queuing** — a large pool of clients making sporadic requests,
//!   modeled as a Poisson arrival process. Workload intensity is set by
//!   the mean interarrival time, and the arrival rate is independent of
//!   the service rate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tapesim_model::{Micros, SimTime};

use tapesim_layout::BlockId;

use crate::clustered::ClusteredSampler;
use crate::request::{Request, RequestId};
use crate::skew::BlockSampler;
use crate::zipf::ZipfSampler;

/// The two arrival scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Constant number of outstanding requests.
    Closed {
        /// The fixed queue length (the paper sweeps 20..=140).
        queue_length: u32,
    },
    /// Poisson arrivals.
    ///
    /// Gaps are quantized to the 1 µs clock and clamped to ≥ 1 µs (see
    /// [`RequestFactory::next_interarrival`]), which biases the realized
    /// rate when `mean_interarrival` approaches the clock tick. Keep the
    /// mean ≥ ~100 µs for a faithful Poisson process; the paper's
    /// figures use means in seconds-to-minutes, where the bias is
    /// unmeasurable.
    OpenPoisson {
        /// Mean interarrival time between requests.
        mean_interarrival: Micros,
    },
}

impl ArrivalProcess {
    /// The number of requests outstanding at simulation start.
    pub fn initial_requests(&self) -> u32 {
        match *self {
            ArrivalProcess::Closed { queue_length } => queue_length,
            ArrivalProcess::OpenPoisson { .. } => 0,
        }
    }
}

/// Where a factory's block ids come from.
#[derive(Debug, Clone)]
enum Stream {
    /// The paper's hot/cold skew (optionally clustered into runs).
    Clustered(ClusteredSampler),
    /// Zipf popularity (extension).
    Zipf(ZipfSampler),
    /// Replay of a recorded trace, cycling if exhausted (extension; used
    /// for common-random-numbers comparisons).
    Trace { blocks: Vec<BlockId>, pos: usize },
}

/// Mints requests: owns the block stream, the RNG, and the id counter.
#[derive(Debug, Clone)]
pub struct RequestFactory {
    stream: Stream,
    process: ArrivalProcess,
    rng: StdRng,
    next_id: u64,
}

impl RequestFactory {
    /// Creates a factory with a deterministic seed and the paper's
    /// independent request stream.
    pub fn new(sampler: BlockSampler, process: ArrivalProcess, seed: u64) -> Self {
        Self::new_clustered(sampler, process, 0.0, seed)
    }

    /// Creates a factory whose stream continues sequential runs with
    /// probability `run_p` (the clustered-workload extension;
    /// `run_p = 0` is exactly the paper's independent stream).
    pub fn new_clustered(
        sampler: BlockSampler,
        process: ArrivalProcess,
        run_p: f64,
        seed: u64,
    ) -> Self {
        RequestFactory {
            stream: Stream::Clustered(ClusteredSampler::new(sampler, run_p)),
            process,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// Creates a factory drawing blocks from a Zipf popularity
    /// distribution (the finer-grained skew extension).
    pub fn new_zipf(sampler: ZipfSampler, process: ArrivalProcess, seed: u64) -> Self {
        RequestFactory {
            stream: Stream::Zipf(sampler),
            process,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// Creates a factory replaying a recorded block trace (cycling when
    /// the trace is exhausted). The seed still drives the arrival-time
    /// randomness of open-queuing workloads.
    ///
    /// # Panics
    /// Panics on an empty trace.
    pub fn from_trace(blocks: Vec<BlockId>, process: ArrivalProcess, seed: u64) -> Self {
        assert!(!blocks.is_empty(), "cannot replay an empty trace");
        RequestFactory {
            stream: Stream::Trace { blocks, pos: 0 },
            process,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// The arrival process this factory models.
    #[inline]
    pub fn process(&self) -> ArrivalProcess {
        self.process
    }

    /// Mints a request arriving at `arrival`.
    pub fn make(&mut self, arrival: SimTime) -> Request {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let block = match &mut self.stream {
            Stream::Clustered(s) => s.sample(&mut self.rng),
            Stream::Zipf(s) => s.sample(&mut self.rng),
            Stream::Trace { blocks, pos } => {
                let b = blocks[*pos % blocks.len()];
                *pos += 1;
                b
            }
        };
        Request { id, block, arrival }
    }

    /// Number of requests minted so far.
    #[inline]
    pub fn minted(&self) -> u64 {
        self.next_id
    }

    /// For an open process, draws the exponential gap until the next
    /// arrival. Returns `None` for closed processes (arrivals are driven
    /// by completions instead).
    ///
    /// The gap is clamped to at least 1 µs: `Micros::from_secs_f64`
    /// rounds sub-0.5 µs draws to zero, and a zero gap would stamp two
    /// requests with the same arrival time, leaving their completion
    /// order to queue-insertion incidentals.
    ///
    /// The clamp (and the 1 µs quantization generally) trades a small
    /// rate bias for strictly increasing arrival times, and the trade is
    /// only visible when the mean is within a couple of orders of
    /// magnitude of the clock tick: an Exp(1/m) draw falls below the
    /// 0.5 µs rounding threshold with probability `1 − exp(−0.5µs/m)` —
    /// ≈ 39% at m = 1 µs, ≈ 2.5% at m = 20 µs, ≈ 0.5% at m = 100 µs —
    /// and each affected draw is stretched by less than 1 µs, so the
    /// realized mean exceeds the configured one by well under 1% once
    /// m ≥ ~100 µs (`poisson_rate_bias_is_negligible_at_documented_means`
    /// pins this down). Every figure configuration uses means in the
    /// seconds-to-minutes range, where the bias is unmeasurable; for
    /// sub-100 µs means the process is deliberately *not* a faithful
    /// Poisson source — determinism wins over rate fidelity there.
    pub fn next_interarrival(&mut self) -> Option<Micros> {
        match self.process {
            ArrivalProcess::Closed { .. } => None,
            ArrivalProcess::OpenPoisson { mean_interarrival } => {
                // Inverse-CDF sampling of Exp(1/mean).
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                let gap = -u.ln() * mean_interarrival.as_secs_f64();
                Some(Micros::from_secs_f64(gap).max(Micros::from_micros(1)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> BlockSampler {
        BlockSampler::new(1000, 100, 40.0)
    }

    #[test]
    fn ids_are_sequential() {
        let mut f = RequestFactory::new(sampler(), ArrivalProcess::Closed { queue_length: 10 }, 7);
        let a = f.make(SimTime::ZERO);
        let b = f.make(SimTime::from_secs(1));
        assert_eq!(a.id, RequestId(0));
        assert_eq!(b.id, RequestId(1));
        assert_eq!(f.minted(), 2);
    }

    #[test]
    fn factory_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut f =
                RequestFactory::new(sampler(), ArrivalProcess::Closed { queue_length: 10 }, seed);
            (0..100)
                .map(|_| f.make(SimTime::ZERO).block)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
        // The open-mode interleave the engines use: one leading gap, then
        // strict mint/draw alternation.
        let open = |seed| {
            let proc = ArrivalProcess::OpenPoisson {
                mean_interarrival: Micros::from_secs(120),
            };
            let mut f = RequestFactory::new(sampler(), proc, seed);
            let lead = f.next_interarrival();
            let rest: Vec<_> = (0..100)
                .map(|_| (f.make(SimTime::ZERO), f.next_interarrival()))
                .collect();
            (lead, rest)
        };
        assert_eq!(open(7), open(7));
        assert_ne!(open(7), open(8));
    }

    #[test]
    fn closed_process_has_no_interarrival() {
        let mut f = RequestFactory::new(sampler(), ArrivalProcess::Closed { queue_length: 10 }, 7);
        assert_eq!(f.next_interarrival(), None);
        assert_eq!(f.process().initial_requests(), 10);
    }

    #[test]
    fn poisson_interarrival_mean_is_right() {
        let mean = Micros::from_secs(120);
        let mut f = RequestFactory::new(
            sampler(),
            ArrivalProcess::OpenPoisson {
                mean_interarrival: mean,
            },
            99,
        );
        assert_eq!(f.process().initial_requests(), 0);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| f.next_interarrival().unwrap().as_secs_f64())
            .sum();
        let observed_mean = total / n as f64;
        assert!(
            (observed_mean - 120.0).abs() < 2.5,
            "mean interarrival {observed_mean}"
        );
    }

    #[test]
    fn tiny_interarrival_gaps_never_round_to_zero() {
        // Regression: `Micros::from_secs_f64` rounds sub-0.5 µs draws to
        // zero. With a 1 µs mean, ~40% of exponential draws land below
        // 0.5 µs, so a few thousand draws hit the old bug with
        // overwhelming probability.
        for seed in 0..4 {
            let mut f = RequestFactory::new(
                sampler(),
                ArrivalProcess::OpenPoisson {
                    mean_interarrival: Micros::from_micros(1),
                },
                seed,
            );
            for _ in 0..10_000 {
                let gap = f.next_interarrival().unwrap();
                assert!(gap >= Micros::from_micros(1), "gap rounded to {gap:?}");
            }
        }
    }

    #[test]
    fn tiny_mean_arrival_times_stay_strictly_increasing() {
        // The clamp is what guarantees two requests never share a
        // timestamp, whatever the intensity.
        for mean_us in [1u64, 2, 7] {
            let mut f = RequestFactory::new(
                sampler(),
                ArrivalProcess::OpenPoisson {
                    mean_interarrival: Micros::from_micros(mean_us),
                },
                99,
            );
            let mut at = SimTime::ZERO;
            for _ in 0..5_000 {
                let next = at + f.next_interarrival().unwrap();
                assert!(next > at, "arrival time did not advance");
                at = next;
            }
        }
    }

    #[test]
    fn poisson_rate_bias_is_negligible_at_documented_means() {
        // The 1 µs clamp/quantization biases the realized rate only when
        // the mean approaches the clock tick (see `next_interarrival`).
        // At the documented ≥ ~100 µs boundary the realized mean matches
        // the configured one to well under 1%; at a 1 µs mean the
        // distortion is gross — the documented "not a faithful Poisson
        // source" regime.
        let realized_mean_us = |mean_us: u64, n: u32| {
            let mut f = RequestFactory::new(
                sampler(),
                ArrivalProcess::OpenPoisson {
                    mean_interarrival: Micros::from_micros(mean_us),
                },
                77,
            );
            let total_s: f64 = (0..n)
                .map(|_| f.next_interarrival().unwrap().as_secs_f64())
                .sum();
            total_s * 1e6 / f64::from(n)
        };
        let at_100us = realized_mean_us(100, 200_000);
        assert!(
            (at_100us - 100.0).abs() / 100.0 < 0.01,
            "realized mean {at_100us} µs drifted more than 1% from the configured 100 µs"
        );
        let at_1us = realized_mean_us(1, 50_000);
        assert!(
            at_1us > 1.2,
            "expected gross clamp bias at a 1 µs mean, got {at_1us} µs"
        );
    }

    #[test]
    #[expect(
        clippy::cast_precision_loss,
        reason = "sample counts stay far below 2^53"
    )]
    fn poisson_gaps_are_memoryless_ish() {
        // Coefficient of variation of an exponential is 1.
        let mean = Micros::from_secs(60);
        let mut f = RequestFactory::new(
            sampler(),
            ArrivalProcess::OpenPoisson {
                mean_interarrival: mean,
            },
            5,
        );
        let xs: Vec<f64> = (0..20_000)
            .map(|_| f.next_interarrival().unwrap().as_secs_f64())
            .collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        let cv = var.sqrt() / m;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }
}
