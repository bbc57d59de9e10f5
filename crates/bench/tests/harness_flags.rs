//! The figure binaries' flag handling, run as processes: a binary stops
//! at a flag it does not honour (`--checkpoint` or `--resume` without a
//! figure cache, `--trace` without a traced run, `--open` without an
//! open-queuing variant, `--scale` without a simulation horizon, `--out`
//! without a CSV) with a usage error (exit status 2) naming the flag,
//! before any simulation; one that keeps a cache lists both cache flags
//! in its usage.

use std::process::{Command, Output};

/// Asserts that `out` is a refusal of `flag` before anything ran.
fn assert_refused(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
    assert!(stderr.contains(flag), "{flag}: {stderr}");
    assert!(
        !stderr.contains(&format!("[{flag}")),
        "usage lists {flag}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{flag}: ran before refusing");
}

#[test]
fn uncached_binary_refuses_cache_flags_with_status_2() {
    for flag in ["--checkpoint", "--resume"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig3_transfer_size"))
            .args(["--scale", "quick", "--out", "-", flag, "figs.ckpt"])
            .output()
            .unwrap();
        assert_refused(&out, flag);
    }
}

#[test]
fn untraced_binary_refuses_trace_and_writes_no_file() {
    let trace = std::env::temp_dir().join(format!("tapesim-refused-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let out = Command::new(env!("CARGO_BIN_EXE_fig4_sched_norepl"))
        .args(["--scale", "quick", "--out", "-", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    let written = trace.exists();
    let _ = std::fs::remove_file(&trace);
    assert_refused(&out, "--trace");
    assert!(!written, "a refused --trace wrote {}", trace.display());
}

#[test]
fn binary_without_open_variant_refuses_open() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig1_locate_model"))
        .args(["--out", "-", "--open"])
        .output()
        .unwrap();
    assert_refused(&out, "--open");
}

#[test]
fn binaries_without_a_horizon_refuse_scale() {
    for exe in [
        env!("CARGO_BIN_EXE_fig1_locate_model"),
        env!("CARGO_BIN_EXE_table_model_validation"),
        env!("CARGO_BIN_EXE_ext_serpentine"),
    ] {
        let out = Command::new(exe)
            .args(["--scale", "quick", "--out", "-"])
            .output()
            .unwrap();
        assert_refused(&out, "--scale");
    }
}

#[test]
fn binary_without_a_csv_refuses_out() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation_drive"))
        .args(["--scale", "quick", "--out", "-"])
        .output()
        .unwrap();
    assert_refused(&out, "--out");
}

#[test]
fn cached_binary_usage_names_the_cache_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["--scale", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume FILE"));
}
