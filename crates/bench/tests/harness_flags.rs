//! The figure binaries' flag handling, run as processes: a binary stops
//! at a flag it does not honour (`--trace` without a traced run, `--open`
//! without an open-queuing variant, `--scale` without a simulation
//! horizon, `--out` without a CSV), at a retired or unknown flag, and at
//! `--out` without a directory, with a usage error (exit status 2)
//! naming the flag, before any simulation.

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

/// No binary keeps a figure cache: two that once did and one that never
/// did refuse both flags alike.
#[test]
fn uncached_binary_refuses_cache_flags_with_status_2() {
    for exe in [
        env!("CARGO_BIN_EXE_all_figures"),
        env!("CARGO_BIN_EXE_fleet_saturation"),
        env!("CARGO_BIN_EXE_fig3_transfer_size"),
    ] {
        for flag in ["--checkpoint", "--resume"] {
            let file = std::env::temp_dir()
                .join(format!("tapesim-retired-{}{flag}.ckpt", std::process::id()));
            let _ = std::fs::remove_file(&file);
            let out = Command::new(exe)
                .arg(flag)
                .arg(&file)
                .args(["--scale", "quick", "--out", "-"])
                .output()
                .unwrap();
            let written = file.exists();
            let _ = std::fs::remove_file(&file);
            assert_refused(&out, flag);
            assert!(!written, "{exe} {flag} wrote {}", file.display());
        }
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
fn out_without_a_directory_is_refused() {
    let cwd = std::env::temp_dir().join(format!("tapesim-bare-out-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let outs: Vec<Output> = [&["--out"][..], &["--out", ""], &["--out", "--open"]]
        .iter()
        .map(|args| {
            Command::new(env!("CARGO_BIN_EXE_ext_serpentine"))
                .args(*args)
                .current_dir(&cwd)
                .output()
                .unwrap()
        })
        .collect();
    let written: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    let _ = std::fs::remove_dir_all(&cwd);
    for out in &outs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("--out needs a directory"), "{stderr}");
        assert!(out.stdout.is_empty(), "ran before refusing: {stderr}");
    }
    assert!(
        written.is_empty(),
        "wrote into the working directory: {written:?}"
    );
}
