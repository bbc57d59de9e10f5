//! The figure binaries' flag handling, run as processes: a binary that
//! keeps no figure cache stops at `--checkpoint` or `--resume` with a
//! usage error (exit status 2) naming the flag, before any simulation;
//! one that keeps a cache lists both flags in its usage.

use std::process::Command;

#[test]
fn uncached_binary_refuses_cache_flags_with_status_2() {
    for flag in ["--checkpoint", "--resume"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig3_transfer_size"))
            .args(["--scale", "quick", "--out", "-", flag, "figs.ckpt"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: ran before refusing");
    }
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
