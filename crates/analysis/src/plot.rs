//! ASCII scatter/line plots for terminal output and EXPERIMENTS.md.
//!
//! The paper's parametric graphs plot families of curves (one per
//! algorithm / placement / skew) in the throughput-delay plane. This
//! module renders such families as fixed-size character grids, each
//! series drawn with its own glyph.
#![expect(
    clippy::cast_possible_truncation,
    reason = "axis binning rounds within terminal-width bounds"
)]
#![expect(
    clippy::cast_precision_loss,
    reason = "point counts stay far below 2^53"
)]

use std::fmt::Write as _;

/// One named series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// Glyphs assigned to series in order.
const GLYPHS: &[char] = &[
    '*', '+', 'o', 'x', '#', '@', '%', '&', '=', '~', '^', '$', '!', '?',
];

/// Renders a family of series into an ASCII plot of `width x height`
/// characters (plus axes and a legend).
pub fn ascii_plot(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 10 && height >= 5, "plot too small");
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if pts.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if xmax == xmin {
        xmax = xmin + 1.0;
    }
    if ymax == ymin {
        ymax = ymin + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy; // y grows upward
            grid[row][cx] = glyph;
        }
    }

    let _ = writeln!(out, "{y_label}");
    for (i, row) in grid.iter().enumerate() {
        let edge = if i == 0 {
            format!("{ymax:>10.2} |")
        } else if i == height - 1 {
            format!("{ymin:>10.2} |")
        } else {
            format!("{:>10} |", "")
        };
        let _ = writeln!(out, "{edge}{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>11}+{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>12}{xmin:<12.2}{:>w$.2}",
        "",
        xmax,
        w = width.saturating_sub(12)
    );
    let _ = writeln!(out, "{:>12}{x_label}", "");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} {}", GLYPHS[si % GLYPHS.len()], s.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_contains_title_axes_and_legend() {
        let s = vec![
            Series::new("fifo", vec![(1.0, 10.0), (1.0, 20.0)]),
            Series::new("dynamic", vec![(5.0, 15.0), (9.0, 30.0)]),
        ];
        let p = ascii_plot("Figure 4", "throughput", "delay", &s, 40, 10);
        assert!(p.contains("Figure 4"));
        assert!(p.contains("throughput"));
        assert!(p.contains("delay"));
        assert!(p.contains("* fifo"));
        assert!(p.contains("+ dynamic"));
        // Both glyphs appear in the grid.
        assert!(p.contains('*'));
        assert!(p.contains('+'));
    }

    #[test]
    fn extreme_points_land_on_grid_edges() {
        let s = vec![Series::new("s", vec![(0.0, 0.0), (1.0, 1.0)])];
        let p = ascii_plot("t", "x", "y", &s, 20, 6);
        let lines: Vec<&str> = p.lines().collect();
        // Top grid row holds the max-y point at the right edge.
        assert!(lines[2].ends_with('*'));
    }

    #[test]
    fn empty_series_is_handled() {
        let p = ascii_plot("t", "x", "y", &[], 20, 6);
        assert!(p.contains("(no data)"));
    }

    #[test]
    fn constant_values_do_not_divide_by_zero() {
        let s = vec![Series::new("s", vec![(2.0, 3.0), (2.0, 3.0)])];
        let p = ascii_plot("t", "x", "y", &s, 20, 6);
        assert!(p.contains('*'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_plot_rejected() {
        ascii_plot("t", "x", "y", &[], 2, 2);
    }
}
