//! Integration test crate; see `tests/` for the tests themselves. This
//! library holds the fixtures that more than one test file shares, and
//! [`lint_check`], which runs clippy under the repository's lint
//! configuration.
//!
//! The `#[cfg(test)]` modules below pin that configuration (`clippy.toml`
//! and the root `[workspace.lints]` table) case by case: each test runs
//! clippy over a snippet and asserts the exact findings. They keep the
//! case corpus of the hand-rolled lint tool the configuration replaced,
//! grouped as it grouped them, so each module names the concern its
//! cases probe.

#![forbid(unsafe_code)]

pub mod lint_check;

/// Order totality and fork-join confinement.
#[cfg(test)]
mod contracts;
/// Hazards next to comments and literals that once fooled a token scan.
#[cfg(test)]
mod lexer;
/// One rule each: hash order, wall clock, ambient RNG, casts, panics.
#[cfg(test)]
mod lints;
/// Syntactic positions the disallow-lists and panic lints must reach.
#[cfg(test)]
mod parse;
/// Imports and aliases resolve to the disallowed item.
#[cfg(test)]
mod resolve;
/// The exception grammar, test-code scope and per-crate scope.
#[cfg(test)]
mod scan;

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
