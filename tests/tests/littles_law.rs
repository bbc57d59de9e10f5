//! Little's law over every closed-queue figure row in `results/`.
//!
//! This oracle shares no code with the simulator: it reads the committed
//! CSVs with the standard library only and uses its own constants.
//!
//! **The bound.** In a closed queue of length `Q` a new request is
//! admitted the instant one completes, so exactly `Q` requests are in the
//! system throughout the measurement window `[a, b]` of length `T`, and
//! the request-time accumulated inside it is `Q·T`. The report averages
//! the delays of the `N` requests that complete inside the window, so
//! `N·W − Q·T = E_a − E_b`, where:
//!
//! - `E_a ≥ 0` is the time before `a` spent by the requests present at
//!   `a` that complete in the window: at most `Q` of them, each with a
//!   delay of at most `D_max`, so `E_a ≤ Q·D_max`;
//! - `E_b ≥ 0` is the time inside the window spent by the `Q` requests
//!   still open at `b`. `E_b ≤ Q·D_max` holds as long as no request open
//!   at `b` has waited longer than the longest delay completed in the
//!   window; a starved request breaks it, and this test then fails.
//!
//! Throughput is `X = N·B/T` for the block size `B`, so `Q·B/X = Q·T/N`
//! and `|W − Q·B/X| / (Q·B/X) = |N·W − Q·T| / (Q·T) ≤ D_max / T`.
//!
//! **Caveat: seed averaging.** Each CSV row is the mean of three seeds:
//! `W`, `X` and `D_max` are seed means. The bound holds per seed;
//! `Q·B/mean(X)` differs from `mean(Q·B/X)` only by a second-order term
//! in the seed spread of `X` (Jensen). On the committed data the tightest
//! row uses 8.7% of its bound (largest deviation 0.88%, RH-80 replicated
//! at queue 140), so that term does not decide any row.
//! `tests/tests/matrix_reports.rs` applies the same bound to single runs,
//! where it needs no such caveat.
//!
//! Figure 3 is left out: its block size varies.

use std::path::Path;

/// Default-scale measurement window: 1,000,000 s minus 100,000 s warmup.
const WINDOW_S: f64 = 900_000.0;
/// The paper's block: 16 MiB, in the CSVs' KB (1024 bytes).
const BLOCK_KB: f64 = 16.0 * 1024.0;

/// Reads `path` as a header line plus comma-separated rows.
fn read_csv(path: &Path) -> (Vec<String>, Vec<Vec<String>>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut lines = text.lines();
    let header = lines
        .next()
        .unwrap_or_else(|| panic!("{} is empty", path.display()))
        .split(',')
        .map(str::to_owned)
        .collect();
    let rows = lines
        .map(|l| l.split(',').map(str::to_owned).collect())
        .collect();
    (header, rows)
}

#[test]
fn closed_figure_rows_obey_littles_law() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    let mut files: Vec<_> = std::fs::read_dir(&results)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| {
            matches!(n.as_bytes(), [b'f', b'i', b'g', b'4'..=b'9', b'_', ..])
                && n.ends_with("_closed.csv")
        })
        .collect();
    files.sort();
    assert_eq!(files.len(), 6, "expected fig4..fig9 closed CSVs: {files:?}");

    let mut checked = 0;
    let mut failures = Vec::new();
    for name in &files {
        let (header, rows) = read_csv(&results.join(name));
        let col = |c: &str| {
            header
                .iter()
                .position(|h| h == c)
                .unwrap_or_else(|| panic!("{name}: no column {c}"))
        };
        let (series, q, x, w, d_max) = (
            col("series"),
            col("intensity"),
            col("throughput_kb_per_s"),
            col("mean_delay_s"),
            col("max_delay_s"),
        );
        for row in rows {
            assert_eq!(row.len(), header.len(), "{name}: ragged row {row:?}");
            let num = |i: usize| -> f64 {
                row[i]
                    .parse()
                    .unwrap_or_else(|e| panic!("{name}: bad number {:?}: {e}", row[i]))
            };
            let littles = num(q) * BLOCK_KB / num(x);
            let deviation = (num(w) - littles).abs() / littles;
            let bound = num(d_max) / WINDOW_S;
            if deviation > bound {
                failures.push(format!(
                    "{name} {} q{}: W {} vs Q·B/X {littles:.1} ({:.3}% > bound {:.3}%)",
                    row[series],
                    row[q],
                    row[w],
                    deviation * 100.0,
                    bound * 100.0
                ));
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 315, "closed-queue row count changed");
    assert!(
        failures.is_empty(),
        "Little's law violated:\n{}",
        failures.join("\n")
    );
}
