//! Random-walk validation of the timing model (Section 2.1).
//!
//! The paper validates its locate and read models "by comparing predictions
//! with measurements in ten random walks on the tape, each random walk
//! consisting of 100 locates and reads", and reports the largest and mean
//! percentage error of the total predicted times. This module reproduces
//! that experiment against the synthetic measurement source of
//! [`crate::synth`].
#![expect(
    clippy::cast_precision_loss,
    reason = "sample counts stay far below 2^53"
)]

use crate::drive::DriveModel;
use crate::synth::{synthesize_random_walk, NoiseModel};
use crate::units::BlockSize;

/// Per-walk relative errors of the model's total-time predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkError {
    /// |predicted - measured| / measured for the total locate time.
    pub locate_rel_err: f64,
    /// |predicted - measured| / measured for the total read time.
    pub read_rel_err: f64,
}

/// Aggregate validation report over a set of random walks, in the shape of
/// the Section 2.1 table: largest and mean percentage error for locate and
/// read totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Per-walk errors.
    pub walks: Vec<WalkError>,
    /// Largest locate error (fraction, not percent).
    pub max_locate_rel_err: f64,
    /// Mean locate error.
    pub mean_locate_rel_err: f64,
    /// Largest read error.
    pub max_read_rel_err: f64,
    /// Mean read error.
    pub mean_read_rel_err: f64,
}

/// Configuration for a validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationConfig {
    /// Number of random walks (paper: 10).
    pub walks: usize,
    /// Locate + read operations per walk (paper: 100).
    pub steps_per_walk: usize,
    /// Logical block size (paper's Figure 1 uses 1 MB).
    pub block: BlockSize,
    /// Slots per tape for the walk (paper tape: 7 GB).
    pub slots_per_tape: u32,
    /// Measurement noise on locates.
    pub locate_noise: NoiseModel,
    /// Measurement noise on reads.
    pub read_noise: NoiseModel,
    /// Base RNG seed; each walk uses `seed + walk_index`.
    pub seed: u64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            walks: 10,
            steps_per_walk: 100,
            block: BlockSize::from_mb(1),
            slots_per_tape: 7 * 1024,
            locate_noise: NoiseModel::locate_default(),
            read_noise: NoiseModel::read_default(),
            seed: 0x1CDE_1999,
        }
    }
}

/// Runs the random-walk validation and aggregates the errors.
pub fn validate_model(drive: &DriveModel, cfg: &ValidationConfig) -> ValidationReport {
    assert!(cfg.walks > 0, "need at least one walk");
    let walks: Vec<WalkError> = (0..cfg.walks)
        .map(|i| {
            let walk = synthesize_random_walk(
                drive,
                cfg.block,
                cfg.slots_per_tape,
                cfg.steps_per_walk,
                cfg.locate_noise,
                cfg.read_noise,
                cfg.seed + i as u64,
            );
            WalkError {
                locate_rel_err: rel_err(walk.predicted_locate_s(), walk.measured_locate_s()),
                read_rel_err: rel_err(walk.predicted_read_s(), walk.measured_read_s()),
            }
        })
        .collect();
    let n = walks.len() as f64;
    ValidationReport {
        max_locate_rel_err: walks.iter().map(|w| w.locate_rel_err).fold(0.0, f64::max),
        mean_locate_rel_err: walks.iter().map(|w| w.locate_rel_err).sum::<f64>() / n,
        max_read_rel_err: walks.iter().map(|w| w.read_rel_err).fold(0.0, f64::max),
        mean_read_rel_err: walks.iter().map(|w| w.read_rel_err).sum::<f64>() / n,
        walks,
    }
}

fn rel_err(predicted: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        return if predicted == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (predicted - measured).abs() / measured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_validates_perfectly() {
        let cfg = ValidationConfig {
            locate_noise: NoiseModel::none(),
            read_noise: NoiseModel::none(),
            ..ValidationConfig::default()
        };
        let report = validate_model(&DriveModel::exb8505xl(), &cfg);
        assert_eq!(report.walks.len(), 10);
        assert_eq!(report.max_locate_rel_err, 0.0);
        assert_eq!(report.max_read_rel_err, 0.0);
    }

    #[test]
    fn default_noise_errors_match_paper_magnitudes() {
        // Paper: largest locate error 0.6 %, mean 0.5 %; largest read error
        // 4.6 %, mean 2.6 %. With our default noise the aggregate errors
        // must land in the same order of magnitude (sub-2 % locate,
        // sub-10 % read).
        let report = validate_model(&DriveModel::exb8505xl(), &ValidationConfig::default());
        assert!(
            report.max_locate_rel_err < 0.02,
            "locate err {}",
            report.max_locate_rel_err
        );
        assert!(report.mean_locate_rel_err <= report.max_locate_rel_err);
        assert!(
            report.max_read_rel_err < 0.10,
            "read err {}",
            report.max_read_rel_err
        );
        assert!(report.mean_read_rel_err <= report.max_read_rel_err);
        assert!(report.mean_read_rel_err > 0.0);
    }

    #[test]
    fn validation_is_deterministic() {
        let cfg = ValidationConfig::default();
        let a = validate_model(&DriveModel::exb8505xl(), &cfg);
        let b = validate_model(&DriveModel::exb8505xl(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn rel_err_handles_zero_denominator() {
        assert_eq!(rel_err(0.0, 0.0), 0.0);
        assert!(rel_err(1.0, 0.0).is_infinite());
        assert!((rel_err(11.0, 10.0) - 0.1).abs() < 1e-12);
    }
}
