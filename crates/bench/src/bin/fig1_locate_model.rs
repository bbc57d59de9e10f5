//! Figure 1: locate time as a function of distance (1 MB logical blocks).
//!
//! Generates 2130 synthetic locate measurements (standing in for the
//! paper's hardware calibration run), refits the four piecewise-linear
//! regimes by least squares, and prints the recovered coefficients next
//! to the ground truth.

use tapesim::prelude::*;
use tapesim_bench::{write_csv, Flag, HarnessOpts};

#[expect(
    clippy::cast_precision_loss,
    reason = "locate distances stay far below 2^53 MB"
)]
fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Out]);
    let data = tapesim::fig1_locate_model(2130, 0x51);

    println!("Figure 1: locate time vs distance (Exabyte EXB-8505XL model)\n");
    let mut t = Table::new([
        "regime",
        "fit startup (s)",
        "true",
        "fit s/MB",
        "true",
        "R^2",
        "n",
    ]);
    let truth = &data.drive.locate;
    let rows = [
        ("forward short", data.forward.0, truth.fwd_short),
        ("forward long", data.forward.1, truth.fwd_long),
        ("reverse short", data.reverse.0, truth.rev_short),
        ("reverse long", data.reverse.1, truth.rev_long),
    ];
    for (name, fit, seg) in rows {
        t.push([
            name.to_string(),
            fnum(fit.intercept, 3),
            fnum(seg.startup_s, 3),
            fnum(fit.slope, 4),
            fnum(seg.per_mb_s, 4),
            fnum(fit.r_squared, 4),
            fit.n.to_string(),
        ]);
    }
    println!("{}", t.to_aligned());

    // Scatter of the samples (distance vs time), one series per direction.
    let fwd: Vec<(f64, f64)> = data
        .samples
        .iter()
        .filter(|s| s.direction == tapesim::model::LocateDirection::Forward && !s.to_bot)
        .map(|s| (s.distance_mb as f64, s.measured_s))
        .collect();
    let rev: Vec<(f64, f64)> = data
        .samples
        .iter()
        .filter(|s| s.direction == tapesim::model::LocateDirection::Reverse && !s.to_bot)
        .map(|s| (s.distance_mb as f64, s.measured_s))
        .collect();
    println!(
        "{}",
        ascii_plot(
            "locate time vs distance",
            "distance (MB)",
            "locate time (s)",
            &[Series::new("forward", fwd), Series::new("reverse", rev)],
            64,
            18,
        )
    );

    let mut csv = Table::new([
        "direction",
        "distance_mb",
        "to_bot",
        "predicted_s",
        "measured_s",
    ]);
    for s in &data.samples {
        csv.push([
            format!("{:?}", s.direction),
            s.distance_mb.to_string(),
            s.to_bot.to_string(),
            fnum(s.predicted_s, 4),
            fnum(s.measured_s, 4),
        ]);
    }
    write_csv(&opts, "fig1_locate_samples", &csv.to_csv());
}
