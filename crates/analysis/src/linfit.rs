//! Least-squares line fitting, used to recover the Figure 1 locate-model
//! coefficients from (synthetic) measurements the way the paper recovered
//! them from 2130 hardware measurements.
#![expect(
    clippy::cast_precision_loss,
    reason = "sample counts stay far below 2^53"
)]

/// A fitted line `y = intercept + slope * x` with its coefficient of
/// determination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Intercept (the "startup" term of a locate segment).
    pub intercept: f64,
    /// Slope (the per-MB term).
    pub slope: f64,
    /// R-squared of the fit.
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

/// Ordinary least squares over `(x, y)` pairs.
///
/// # Panics
/// Panics with fewer than two points or zero variance in `x`.
pub fn least_squares(points: &[(f64, f64)]) -> LineFit {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    assert!(sxx > 0.0, "x values are constant; line is undetermined");
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| {
            let e = p.1 - (intercept + slope * p.0);
            e * e
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LineFit {
        intercept,
        slope,
        r_squared,
        n: points.len(),
    }
}

/// Splits points at `x = threshold` and fits each side separately — the
/// shape of the paper's short/long-distance locate regimes.
pub fn piecewise_fit(points: &[(f64, f64)], threshold: f64) -> (LineFit, LineFit) {
    let short: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|p| p.0 <= threshold)
        .collect();
    let long: Vec<(f64, f64)> = points.iter().copied().filter(|p| p.0 > threshold).collect();
    (least_squares(&short), least_squares(&long))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64, 4.834 + 0.378 * i as f64))
            .collect();
        let fit = least_squares(&pts);
        assert!((fit.intercept - 4.834).abs() < 1e-9);
        assert!((fit.slope - 0.378).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.n, 20);
    }

    #[test]
    fn noisy_line_is_recovered_approximately() {
        // Deterministic pseudo-noise.
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let x = i as f64;
                let noise = ((i * 2654435761_u64 % 1000) as f64 / 1000.0 - 0.5) * 2.0;
                (x, 14.342 + 0.028 * x + noise)
            })
            .collect();
        let fit = least_squares(&pts);
        assert!(
            (fit.intercept - 14.342).abs() < 0.2,
            "intercept {}",
            fit.intercept
        );
        assert!((fit.slope - 0.028).abs() < 0.001, "slope {}", fit.slope);
        assert!(fit.r_squared > 0.9);
    }

    #[test]
    fn piecewise_recovers_both_segments() {
        let mut pts = Vec::new();
        for i in 1..=28 {
            pts.push((i as f64, 4.834 + 0.378 * i as f64));
        }
        for i in 29..200 {
            pts.push((i as f64, 14.342 + 0.028 * i as f64));
        }
        let (short, long) = piecewise_fit(&pts, 28.0);
        assert!((short.intercept - 4.834).abs() < 1e-9);
        assert!((short.slope - 0.378).abs() < 1e-9);
        assert!((long.intercept - 14.342).abs() < 1e-9);
        assert!((long.slope - 0.028).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn too_few_points_panics() {
        least_squares(&[(1.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "constant")]
    fn degenerate_x_panics() {
        least_squares(&[(1.0, 2.0), (1.0, 3.0)]);
    }
}
