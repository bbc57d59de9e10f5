//! Synthetic drive measurements.
//!
//! The paper calibrates its timing model against 2130 random locates and
//! reads measured on a physical Exabyte EXB-8505XL. We do not have the
//! drive, so this module plays its role: it generates noisy "measurements"
//! by evaluating the fitted model and perturbing it with zero-mean noise
//! whose magnitude matches the residuals the paper reports (locate
//! predictions within ~0.5 % on aggregates; read times with "significant
//! variance"). Downstream code — the Figure 1 scatter/fit and the
//! Section 2.1 random-walk validation — exercises the same code paths it
//! would with real hardware data.
#![expect(
    clippy::cast_possible_truncation,
    reason = "slot offsets are clamped to the tape before narrowing"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{DriveModel, LocateDirection, ReadContext};
use crate::units::{BlockSize, SlotIndex};

/// Zero-mean Gaussian measurement noise, as a fraction of the true value
/// plus an absolute floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation as a fraction of the modeled time.
    pub rel_sigma: f64,
    /// Absolute standard deviation in seconds, independent of the value.
    pub abs_sigma_s: f64,
}

impl NoiseModel {
    /// Noise level for locate operations (tight: the paper's locate model
    /// predicts aggregate times within 0.5-0.6 %).
    pub fn locate_default() -> Self {
        NoiseModel {
            rel_sigma: 0.05,
            abs_sigma_s: 0.05,
        }
    }

    /// Noise level for read operations (loose: the paper notes the read
    /// measurements "exhibit a significant variance" and validates within
    /// 2.6-4.6 % on aggregates).
    pub fn read_default() -> Self {
        NoiseModel {
            rel_sigma: 0.25,
            abs_sigma_s: 0.1,
        }
    }

    /// No noise at all; measurements equal the model exactly.
    pub fn none() -> Self {
        NoiseModel {
            rel_sigma: 0.0,
            abs_sigma_s: 0.0,
        }
    }

    /// Perturbs a modeled time of `secs` seconds. The result is clamped to
    /// be non-negative (a measured duration cannot be negative).
    pub fn perturb(&self, secs: f64, rng: &mut StdRng) -> f64 {
        let n = standard_normal(rng);
        let sigma = self.rel_sigma * secs + self.abs_sigma_s;
        (secs + n * sigma).max(0.0)
    }
}

/// Draws a standard normal variate via the Box-Muller transform.
///
/// `rand` alone (without `rand_distr`) provides only uniform variates, so
/// we derive the Gaussian ourselves to keep the dependency list minimal.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One synthetic locate measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocateSample {
    /// Head position before the locate.
    pub from: SlotIndex,
    /// Target position.
    pub to: SlotIndex,
    /// Distance traversed, in megabytes.
    pub distance_mb: u64,
    /// Direction of motion.
    pub direction: LocateDirection,
    /// Whether the target was the physical beginning of tape.
    pub to_bot: bool,
    /// The model's prediction in seconds.
    pub predicted_s: f64,
    /// The noisy "measured" time in seconds.
    pub measured_s: f64,
}

/// Generates `n` random locate measurements over a tape of
/// `slots_per_tape` slots, mimicking the paper's 2130-locate calibration
/// run (1 MB logical blocks in the paper's Figure 1).
pub fn synthesize_locates(
    drive: &DriveModel,
    block: BlockSize,
    slots_per_tape: u32,
    n: usize,
    noise: NoiseModel,
    seed: u64,
) -> Vec<LocateSample> {
    assert!(slots_per_tape >= 2, "need at least two slots to locate");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut head = SlotIndex(rng.gen_range(0..slots_per_tape));
    while out.len() < n {
        // A calibration run must cover the short-distance regimes too, so
        // a third of the targets are drawn near the current head.
        let target = if rng.gen::<f64>() < 0.33 {
            let span = 60.min(slots_per_tape - 1);
            let delta = rng.gen_range(0..=2 * span) as i64 - span as i64;
            let raw = head.0 as i64 + delta;
            SlotIndex(raw.clamp(0, slots_per_tape as i64 - 1) as u32)
        } else {
            SlotIndex(rng.gen_range(0..slots_per_tape))
        };
        if target == head {
            continue;
        }
        let (t, dir) = drive.locate(head, target, block);
        #[expect(
            clippy::expect_used,
            reason = "target != head is checked above, so the locate has a direction"
        )]
        let dir = dir.expect("nonzero distance implies a direction");
        let predicted_s = t.as_secs_f64();
        let measured_s = noise.perturb(predicted_s, &mut rng);
        out.push(LocateSample {
            from: head,
            to: target,
            distance_mb: block.slots_to_mb(head.distance(target)),
            direction: dir,
            to_bot: target == SlotIndex::BOT,
            predicted_s,
            measured_s,
        });
        head = target;
    }
    out
}

/// One locate + read step of a random walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkStep {
    /// The locate portion.
    pub locate: LocateSample,
    /// Predicted read time in seconds.
    pub read_predicted_s: f64,
    /// Noisy measured read time in seconds.
    pub read_measured_s: f64,
}

/// A complete random walk: a sequence of locate + read operations, with
/// predicted and "measured" totals, mirroring the validation runs of
/// Section 2.1 (ten walks of 100 locates and reads each).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWalk {
    /// The individual steps.
    pub steps: Vec<WalkStep>,
}

impl RandomWalk {
    /// Total predicted locate time in seconds.
    pub fn predicted_locate_s(&self) -> f64 {
        self.steps.iter().map(|s| s.locate.predicted_s).sum()
    }

    /// Total measured locate time in seconds.
    pub fn measured_locate_s(&self) -> f64 {
        self.steps.iter().map(|s| s.locate.measured_s).sum()
    }

    /// Total predicted read time in seconds.
    pub fn predicted_read_s(&self) -> f64 {
        self.steps.iter().map(|s| s.read_predicted_s).sum()
    }

    /// Total measured read time in seconds.
    pub fn measured_read_s(&self) -> f64 {
        self.steps.iter().map(|s| s.read_measured_s).sum()
    }
}

/// Generates one random walk of `steps` locate + read operations.
pub fn synthesize_random_walk(
    drive: &DriveModel,
    block: BlockSize,
    slots_per_tape: u32,
    steps: usize,
    locate_noise: NoiseModel,
    read_noise: NoiseModel,
    seed: u64,
) -> RandomWalk {
    let locates = synthesize_locates(drive, block, slots_per_tape, steps, locate_noise, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let steps = locates
        .into_iter()
        .map(|locate| {
            let ctx = match locate.direction {
                LocateDirection::Forward => ReadContext::AfterForwardLocate,
                LocateDirection::Reverse => ReadContext::AfterReverseLocate,
            };
            let read_predicted_s = drive.read_block(block, ctx).as_secs_f64();
            let read_measured_s = read_noise.perturb(read_predicted_s, &mut rng);
            WalkStep {
                locate,
                read_predicted_s,
                read_measured_s,
            }
        })
        .collect();
    RandomWalk { steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive() -> DriveModel {
        DriveModel::exb8505xl()
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let b = BlockSize::from_mb(1);
        let a = synthesize_locates(&drive(), b, 7168, 50, NoiseModel::locate_default(), 7);
        let c = synthesize_locates(&drive(), b, 7168, 50, NoiseModel::locate_default(), 7);
        assert_eq!(a, c);
        let d = synthesize_locates(&drive(), b, 7168, 50, NoiseModel::locate_default(), 8);
        assert_ne!(a, d);
    }

    #[test]
    fn samples_form_a_walk() {
        let b = BlockSize::from_mb(1);
        let samples = synthesize_locates(&drive(), b, 100, 30, NoiseModel::none(), 3);
        assert_eq!(samples.len(), 30);
        for pair in samples.windows(2) {
            assert_eq!(pair[0].to, pair[1].from, "head position must chain");
        }
        for s in &samples {
            assert!(s.distance_mb > 0);
            assert_eq!(s.to_bot, s.to == SlotIndex::BOT);
        }
    }

    #[test]
    fn zero_noise_measurements_equal_predictions() {
        let b = BlockSize::from_mb(1);
        let samples = synthesize_locates(&drive(), b, 500, 100, NoiseModel::none(), 11);
        for s in &samples {
            assert_eq!(s.measured_s, s.predicted_s);
        }
    }

    #[test]
    fn noise_is_roughly_unbiased() {
        let b = BlockSize::from_mb(1);
        let samples =
            synthesize_locates(&drive(), b, 7168, 4000, NoiseModel::locate_default(), 999);
        let predicted: f64 = samples.iter().map(|s| s.predicted_s).sum();
        let measured: f64 = samples.iter().map(|s| s.measured_s).sum();
        let rel_err = (measured - predicted).abs() / predicted;
        assert!(rel_err < 0.01, "aggregate bias {rel_err} too large");
    }

    #[test]
    fn perturb_never_negative() {
        let mut rng = StdRng::seed_from_u64(5);
        let noise = NoiseModel {
            rel_sigma: 5.0,
            abs_sigma_s: 5.0,
        };
        for _ in 0..1000 {
            assert!(noise.perturb(0.01, &mut rng) >= 0.0);
        }
    }

    #[test]
    fn random_walk_totals_are_consistent() {
        let b = BlockSize::from_mb(1);
        let walk = synthesize_random_walk(
            &drive(),
            b,
            7168,
            100,
            NoiseModel::none(),
            NoiseModel::none(),
            42,
        );
        assert_eq!(walk.steps.len(), 100);
        assert!(walk.predicted_locate_s() > 0.0);
        assert_eq!(walk.predicted_locate_s(), walk.measured_locate_s());
        assert_eq!(walk.predicted_read_s(), walk.measured_read_s());
        // Read context must match the locate direction.
        for s in &walk.steps {
            let expect = match s.locate.direction {
                LocateDirection::Forward => 0.38 + 1.77,
                LocateDirection::Reverse => 1.77,
            };
            assert!((s.read_predicted_s - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
