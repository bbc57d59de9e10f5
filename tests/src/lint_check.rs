//! Runs clippy over Rust source under the repository's own lint
//! configuration: `clippy.toml` and the root manifest's
//! `[workspace.lints]` table. The source becomes the library of a
//! one-file crate in a fresh temporary workspace, checked with
//! `--all-targets` so that `#[cfg(test)]` code is linted as test code.
//! The crate depends on the in-tree `rand` shim under its upstream name.
//!
//! Diagnostics come back as sorted, deduplicated `"<line> <code>"`
//! strings, the format of the `tests/lint_fixtures/*.expected` lists:
//! the 1-based line of each primary span, then the lint name
//! (`clippy::disallowed_types`) or the compiler error code (`E0277`).
//!
//! Needs cargo with the clippy component.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use tapesim::analysis::json::{get, get_str, get_u64, JsonValue};

/// The workspace root: the parent of this package.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from(".."), Path::to_path_buf)
}

/// Clippy's findings on `src`, as sorted `"<line> <code>"` strings.
pub fn clippy(src: &str) -> Vec<String> {
    let root = workspace_root();
    let dir = TempDir::new();
    fs::write(dir.0.join("Cargo.toml"), manifest(&root)).expect("write manifest");
    fs::create_dir(dir.0.join("src")).expect("create src/");
    fs::write(dir.0.join("src/lib.rs"), src).expect("write src/lib.rs");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--all-targets"])
        .arg("--message-format=json")
        .current_dir(&dir.0)
        .env("CLIPPY_CONF_DIR", &root)
        .env("CARGO_TARGET_DIR", dir.0.join("target"))
        .output()
        .expect("run cargo clippy");
    // Compile errors are expected, so the exit status says nothing;
    // cargo's closing build-finished record shows that the build ran.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(r#""reason":"build-finished""#),
        "cargo clippy did not run:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut found: Vec<(u64, String)> = Vec::new();
    for line in stdout.lines() {
        let rec = JsonValue::parse(line).expect("cargo emits one JSON record a line");
        let rec = rec.as_object("record").expect("a record is an object");
        let object = |key: &str| get(rec, key).and_then(|v| v.as_object(key));
        if get_str(rec, "reason") != Ok("compiler-message")
            || object("target").and_then(|t| get_str(t, "name")) != Ok("snippet")
        {
            continue;
        }
        let msg = object("message").expect("a compiler message has a message");
        // Lints and coded errors carry a code; other diagnostics only a level.
        let code = get(msg, "code")
            .and_then(|c| c.as_object("code"))
            .and_then(|c| get_str(c, "code"))
            .or_else(|_| get_str(msg, "level"))
            .expect("a diagnostic has a level");
        let spans = get(msg, "spans").and_then(|s| s.as_array("spans"));
        for span in spans.expect("a diagnostic has spans") {
            let span = span.as_object("span").expect("a span is an object");
            if get(span, "is_primary") == Ok(&JsonValue::Bool(true)) {
                let line = get_u64(span, "line_start").expect("a span has a line");
                found.push((line, code.to_owned()));
            }
        }
    }
    found.sort();
    found.dedup();
    found.into_iter().map(|(l, c)| format!("{l} {c}")).collect()
}

/// A one-package workspace whose package defaults and lint table are the
/// root manifest's, read at run time.
fn manifest(root: &Path) -> String {
    let text = fs::read_to_string(root.join("Cargo.toml")).expect("read root Cargo.toml");
    let mut out = String::from("[workspace]\n\n");
    let mut on = false;
    for line in text.lines() {
        if line.starts_with('[') {
            on = line.starts_with("[workspace.package") || line.starts_with("[workspace.lints");
        }
        if on {
            out.push_str(line);
            out.push('\n');
        }
    }
    let rand = root.join("crates/vendor/rand");
    out.push_str(&format!(
        "\n[package]\nname = \"snippet\"\nversion.workspace = true\n\
         edition.workspace = true\nrust-version.workspace = true\npublish = false\n\n\
         [lints]\nworkspace = true\n\n[dependencies]\n\
         rand = {{ path = {:?}, package = \"tapesim-rand\" }}\n",
        rand.display().to_string()
    ));
    out
}

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let base = std::env::temp_dir();
        let mut n = 0u64;
        loop {
            let dir = base.join(format!("tapesim-lint-{}-{n}", std::process::id()));
            match fs::create_dir(&dir) {
                Ok(()) => return TempDir(dir),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => n += 1,
                Err(e) => panic!("create {}: {e}", dir.display()),
            }
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
