//! Integration test crate; see `tests/` for the tests themselves. This
//! library holds the fixtures that more than one test file shares.

#![forbid(unsafe_code)]

use tapesim::model::{FaultConfig, Micros};

/// A light-but-complete fault preset: every fault class is active,
/// including transient copy losses that heal mid-run.
pub fn light_faults() -> FaultConfig {
    FaultConfig {
        media_error_per_read: 0.05,
        media_retries: 0,
        load_failure_p: 0.02,
        load_retries: 1,
        tape_mtbf: Some(Micros::from_secs(200_000)),
        tape_mttr: Some(Micros::from_secs(15_000)),
        drive_mtbf: Some(Micros::from_secs(250_000)),
        drive_mttr: Micros::from_secs(4_000),
        copy_heal_mttr: Some(Micros::from_secs(8_000)),
    }
}
