//! The lint-fixture check. Clippy, under the repository's `clippy.toml`
//! and `[workspace.lints]` table, must report each known-bad fixture in
//! `tests/lint_fixtures/` with exactly the `<line> <lint or error code>`
//! pairs of its `<name>.expected` list, and nothing on a known-good
//! `good_*` fixture. Each fixture builds as its own crate, so a
//! compile-error fixture (a type error stops clippy's lint passes for its
//! whole crate) cannot hide another fixture's lints.
//!
//!     cargo test -p integration-tests --test fixtures

use std::fs;
use std::path::{Path, PathBuf};

use integration_tests::lint_check::clippy;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("lint_fixtures")
}

/// Every fixture, by file stem. A fixture added to the directory must be
/// added here and given a test.
const FIXTURES: [&str; 14] = [
    "bad_ambient_rng",
    "bad_float_order",
    "bad_hash_order",
    "bad_malformed_annotation",
    "bad_order_totality",
    "bad_panic",
    "bad_par_contract",
    "bad_shared_capture",
    "bad_unit_cast",
    "bad_wall_clock",
    "good_annotated",
    "good_clean",
    "good_order_totality",
    "good_par_contract",
];

/// The fixture's expected findings, in the order `clippy` returns them.
fn expected(name: &str) -> Vec<String> {
    if name.starts_with("good_") {
        return Vec::new();
    }
    let path = fixture_dir().join(format!("{name}.expected"));
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut pairs: Vec<(u64, String)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (line, code) = l
                .trim()
                .split_once(' ')
                .unwrap_or_else(|| panic!("{name}.expected: `{l}` is not `<line> <code>`"));
            let line = line
                .parse()
                .unwrap_or_else(|e| panic!("{name}.expected: `{l}`: {e}"));
            (line, code.to_owned())
        })
        .collect();
    pairs.sort();
    pairs.dedup();
    assert!(!pairs.is_empty(), "{name}.expected lists no findings");
    pairs.into_iter().map(|(l, c)| format!("{l} {c}")).collect()
}

fn check_fixture(name: &str) {
    let path = fixture_dir().join(format!("{name}.rs"));
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        clippy(&src),
        expected(name),
        "{name}: findings (left) vs {name}.expected (right)"
    );
}

#[test]
fn every_fixture_is_checked() {
    let mut stems: Vec<String> = Vec::new();
    let mut lists: Vec<String> = Vec::new();
    for entry in fs::read_dir(fixture_dir()).expect("fixture directory") {
        let path = entry.expect("directory entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_owned();
        match path.extension().and_then(|e| e.to_str()) {
            Some("rs") => stems.push(stem),
            Some("expected") => lists.push(stem),
            _ => panic!("unexpected file {}", path.display()),
        }
    }
    stems.sort();
    lists.sort();
    assert_eq!(stems, FIXTURES);
    let bad: Vec<&str> = FIXTURES
        .into_iter()
        .filter(|n| n.starts_with("bad_"))
        .collect();
    assert_eq!(lists, bad, "each bad_* fixture, and only those, has a list");
    assert!(
        FIXTURES
            .iter()
            .all(|n| n.starts_with("bad_") || n.starts_with("good_")),
        "a fixture is named bad_* or good_*"
    );
}

#[test]
fn hash_order_fires_on_hash_collections() {
    check_fixture("bad_hash_order");
}

#[test]
fn wall_clock_fires_everywhere_including_tests() {
    check_fixture("bad_wall_clock");
}

#[test]
fn ambient_rng_fires_on_thread_rng_and_random() {
    check_fixture("bad_ambient_rng");
}

#[test]
fn unit_cast_fires_on_lossy_casts_only() {
    check_fixture("bad_unit_cast");
}

#[test]
fn panic_fires_on_unwrap_expect_and_panic_macros() {
    check_fixture("bad_panic");
}

#[test]
fn malformed_exceptions_are_reported() {
    check_fixture("bad_malformed_annotation");
}

#[test]
fn annotated_fixture_is_clean() {
    check_fixture("good_annotated");
}

#[test]
fn clean_fixture_is_clean() {
    check_fixture("good_clean");
}

#[test]
fn order_totality_fires_on_partial_orders_and_unstable_ties() {
    check_fixture("bad_order_totality");
}

#[test]
fn float_order_fails_to_compile() {
    check_fixture("bad_float_order");
}

#[test]
fn order_totality_good_fixture_is_clean() {
    check_fixture("good_order_totality");
}

#[test]
fn par_contract_fires_on_machinery_outside_par_module() {
    check_fixture("bad_par_contract");
}

#[test]
fn shared_capture_fails_to_compile() {
    check_fixture("bad_shared_capture");
}

#[test]
fn par_contract_good_fixture_is_clean() {
    check_fixture("good_par_contract");
}
