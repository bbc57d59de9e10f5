//! Integration test crate; see `tests/` for the tests themselves. This
//! library holds the fixtures that more than one test file shares, the
//! [`pinned`] report tables, the [`envelope_reference`] oracle, and
//! [`lint_check`], which runs clippy under the repository's lint
//! configuration for the lint-fixture check (`tests/fixtures.rs`).

#![forbid(unsafe_code)]

pub mod envelope_reference;
/// The JSON reader behind [`lint_check`].
mod json;
pub mod lint_check;
pub mod pinned;

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

/// A seeded SplitMix64 stream, started from `seed | 1`: the block draws
/// of the pinned external-arrival scenarios and the input builders of
/// the parser properties.
pub fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
