//! # tapesim-analysis
//!
//! Dependency-free analysis utilities for the tape-jukebox experiment
//! harnesses: summary statistics, ordinary least squares (used to recover
//! the Figure 1 locate-model coefficients), CSV/aligned-table/ASCII-
//! plot renderers for experiment outputs, and a minimal JSON reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod linfit;
pub mod plot;
pub mod stats;
pub mod table;

pub use linfit::{least_squares, piecewise_fit, LineFit};
pub use plot::{ascii_plot, Series};
pub use stats::{ci95_half_width, mean, quantile, relative_change, stddev, variance};
pub use table::{fnum, Table};
