//! The Figure 4, 6, 8 and 9 tables in EXPERIMENTS.md quote the committed
//! `results/*_closed.csv` files. Every cell must equal its CSV value (or,
//! for Figure 9's gain column, the gain computed from two CSV values) at
//! the precision the table prints. Standard library only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// One CSV row per `(series, intensity)`, as column name -> value.
type Rows = BTreeMap<(String, u32), BTreeMap<String, f64>>;

fn read_rows(name: &str) -> Rows {
    let path = root().join("results").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header line").split(',').collect();
    let mut rows = Rows::new();
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        let values = header
            .iter()
            .zip(&cells)
            .filter_map(|(h, c)| Some(((*h).to_owned(), c.parse().ok()?)))
            .collect();
        let intensity = cells[1].parse().expect("integer intensity");
        rows.insert((cells[0].to_owned(), intensity), values);
    }
    rows
}

/// The CSV value of `column` for `series` at queue `intensity`.
fn value(rows: &Rows, series: &str, intensity: u32, column: &str) -> f64 {
    rows.get(&(series.to_owned(), intensity))
        .and_then(|r| r.get(column))
        .copied()
        .unwrap_or_else(|| panic!("no {column} for {series:?} at {intensity}"))
}

/// The body rows of the first table after the line starting with
/// `heading`, as trimmed cells.
fn table(md: &str, heading: &str) -> Vec<Vec<String>> {
    let lines = md
        .lines()
        .skip_while(|l| !l.starts_with(heading))
        .skip_while(|l| !l.starts_with('|'));
    let rows: Vec<Vec<String>> = lines
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_owned())
                .collect()
        })
        .collect();
    assert!(rows.len() > 2, "no table after {heading:?}");
    rows[2..].to_vec()
}

/// Asserts that a printed number equals `want` at the printed precision.
/// Bold markers, a percent sign, a leading `+` and the typographic minus
/// are accepted.
fn check(cell: &str, want: f64, what: &str, failures: &mut Vec<String>) {
    let text = cell
        .trim_matches('*')
        .trim_end_matches('%')
        .trim()
        .trim_start_matches('+')
        .replace('−', "-");
    let Ok(got) = text.parse::<f64>() else {
        failures.push(format!("{what}: {cell:?} is not a number"));
        return;
    };
    let decimals = text.split_once('.').map_or(0, |(_, f)| f.len());
    let (got, want) = (format!("{got:.decimals$}"), format!("{want:.decimals$}"));
    if got != want {
        failures.push(format!("{what}: table says {got}, CSV gives {want}"));
    }
}

/// Splits a `"a / b"` cell into its two halves.
fn pair(cell: &str) -> (&str, &str) {
    cell.split_once(" / ")
        .unwrap_or_else(|| panic!("{cell:?} is not an `a / b` pair"))
}

#[test]
fn figure_tables_match_the_committed_csvs() {
    let md = std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut failures = Vec::new();
    let mut cells = 0;

    // Figure 4: throughput per algorithm at queue 60 and 140.
    let fig4 = read_rows("fig4_sched_norepl_closed.csv");
    for row in table(&md, "## Figure 4 ") {
        for (cell, q) in row[1..].iter().zip([60, 140]) {
            let want = value(&fig4, &row[0], q, "throughput_kb_per_s");
            check(
                cell,
                want,
                &format!("Figure 4 {} q{q}", row[0]),
                &mut failures,
            );
            cells += 1;
        }
    }

    // Figure 6: throughput, delay and switches per replica count, queue 60.
    let fig6 = read_rows("fig6_replicas_closed.csv");
    for row in table(&md, "## Figure 6 ") {
        let series = format!("NR-{}", row[0]);
        let columns = ["throughput_kb_per_s", "mean_delay_s", "tape_switches"];
        for (cell, column) in row[1..].iter().zip(columns) {
            let want = value(&fig6, &series, 60, column);
            check(
                cell,
                want,
                &format!("Figure 6 {series} {column}"),
                &mut failures,
            );
            cells += 1;
        }
    }

    // Figure 8: throughput and delay per algorithm, queue 60.
    let fig8 = read_rows("fig8_sched_repl_closed.csv");
    for row in table(&md, "## Figure 8 ") {
        for (cell, column) in row[1..].iter().zip(["throughput_kb_per_s", "mean_delay_s"]) {
            let want = value(&fig8, &row[0], 60, column);
            check(
                cell,
                want,
                &format!("Figure 8 {} {column}", row[0]),
                &mut failures,
            );
            cells += 1;
        }
    }

    // Figure 9: "KB/s / delay" without and with replication per RH, and
    // the replication gain in percent, queue 60.
    let fig9 = read_rows("fig9_skew_closed.csv");
    for row in table(&md, "## Figure 9 ") {
        let rh = &row[0];
        let measured = |kind: &str| {
            let series = format!("RH-{rh} {kind}");
            let kb = value(&fig9, &series, 60, "throughput_kb_per_s");
            (kb, value(&fig9, &series, 60, "mean_delay_s"))
        };
        let (none, full) = (measured("no-repl"), measured("replicated"));
        let gain = (
            (full.0 / none.0 - 1.0) * 100.0,
            (full.1 / none.1 - 1.0) * 100.0,
        );
        for (cell, want) in row[1..].iter().zip([none, full, gain]) {
            let (kb, delay) = pair(cell);
            let what = format!("Figure 9 RH-{rh} {cell:?}");
            check(kb, want.0, &what, &mut failures);
            check(delay, want.1, &what, &mut failures);
            cells += 2;
        }
    }

    assert_eq!(cells, 10 + 18 + 10 + 24, "a table lost or gained cells");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
