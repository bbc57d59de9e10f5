//! Pinned report tables: whole runs kept as data under `tests/golden/`.
//!
//! Each row is one scenario: its `completed`, `physical_reads` and
//! throughput figures, an FNV-1a hash of the whole [`MetricsReport`] (its
//! `Debug` rendering, which prints every `f64` exactly), and a hash of the
//! completion sequence `(instant µs, request id)` in trace order. A table
//! regenerates with `UPDATE_GOLDEN=1` set on its test.

use std::path::{Path, PathBuf};
use std::sync::Once;

use tapesim::sim::{check_trace, MetricsReport, TraceEvent, TraceRecord};

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The table row of scenario `name`. Checks the trace invariants first,
/// and that the run completed something.
pub fn row(name: &str, report: &MetricsReport, trace: &[TraceRecord]) -> String {
    check_trace(trace).unwrap_or_else(|v| panic!("{name}: trace invalid: {}", v[0]));
    let completions: Vec<u8> = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Complete { req, .. } => Some((r.at.as_micros(), req.0)),
            _ => None,
        })
        .flat_map(|(at, req)| at.to_le_bytes().into_iter().chain(req.to_le_bytes()))
        .collect();
    assert!(!completions.is_empty(), "{name}: no completions");
    format!(
        "{name}: completed={} physical_reads={} throughput_kb_s={:.6} report={:016x} completions={:016x}",
        report.completed,
        report.physical_reads,
        report.throughput_kb_per_s,
        fnv1a(format!("{report:?}").into_bytes()),
        fnv1a(completions),
    )
}

fn golden_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file)
}

/// A table of scenarios of type `S`, pinned in `tests/golden/<file>`.
pub struct Table<S> {
    /// File name under `tests/golden/`.
    pub file: &'static str,
    /// The test target that regenerates the table.
    pub test: &'static str,
    /// Every scenario, in the table's row order.
    pub all: fn() -> Vec<S>,
    /// A scenario's name, the key of its row.
    pub name: fn(&S) -> String,
    /// Runs a scenario and renders its row (see [`row`]).
    pub row: fn(&S) -> String,
}

impl<S> Table<S> {
    /// Checks `group`'s rows against the pinned table. With
    /// `UPDATE_GOLDEN` set it rewrites the whole table instead: the first
    /// test to get here writes it and the others wait for it.
    pub fn assert_pinned(&self, group: &[S]) {
        let path = golden_path(self.file);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            static REGENERATED: Once = Once::new();
            REGENERATED.call_once(|| {
                let table: String = (self.all)().iter().map(|s| (self.row)(s) + "\n").collect();
                std::fs::write(&path, table).unwrap();
                eprintln!("regenerated {}", path.display());
            });
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e}\n(regenerate with UPDATE_GOLDEN=1 \
                 cargo test -p integration-tests --test {})",
                path.display(),
                self.test
            )
        });
        let pinned: Vec<&str> = expected.lines().collect();
        assert_eq!(
            pinned.len(),
            (self.all)().len(),
            "{} must hold one row per scenario",
            self.file
        );
        let diverged: Vec<String> = group
            .iter()
            .filter_map(|s| {
                let actual = (self.row)(s);
                let key = format!("{}: ", (self.name)(s));
                match pinned.iter().find(|line| line.starts_with(&key)) {
                    Some(line) if *line == actual => None,
                    Some(line) => Some(format!("  pinned: {line}\n  actual: {actual}")),
                    None => Some(format!("  not pinned: {actual}")),
                }
            })
            .collect();
        assert!(
            diverged.is_empty(),
            "reports diverge from {}:\n{}",
            self.file,
            diverged.join("\n")
        );
    }
}
