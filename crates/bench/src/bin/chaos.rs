//! Deterministic chaos soak: seeded fault/overload schedules over the
//! stepped core and the jukebox service, asserting conservation, trace
//! invariants, and bit-identical replay per seed.
//!
//! ```text
//! chaos [--seeds N] [--seed-base B] [--scale quick|default|paper]
//!       [--trace FILE] [--out FILE|-]
//! ```
//!
//! Exits 0 when every seed ran clean, 1 on the first invariant
//! violation, and 2 on usage errors. `--trace` writes the first seed's
//! service-run JSONL event trace (the CI artifact); `--out` writes the
//! per-seed summaries as JSON Lines (default `BENCH_CHAOS.jsonl`).

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use tapesim::prelude::Table;
use tapesim::sim::trace::jsonl;
use tapesim::Scale;
use tapesim_bench::chaos::{run_chaos, ChaosConfig};

struct Opts {
    cfg: ChaosConfig,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: chaos [--seeds N] [--seed-base B] [--scale quick|default|paper] \
         [--trace FILE] [--out FILE|-]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        cfg: ChaosConfig {
            seeds: 20,
            seed_base: 0,
            scale: Scale::Quick,
        },
        trace: None,
        out: Some(PathBuf::from("BENCH_CHAOS.jsonl")),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => match args.next().unwrap_or_default().parse() {
                Ok(n) if n > 0 => opts.cfg.seeds = n,
                _ => usage("--seeds needs a positive integer"),
            },
            "--seed-base" => match args.next().unwrap_or_default().parse() {
                Ok(b) => opts.cfg.seed_base = b,
                _ => usage("--seed-base needs an integer"),
            },
            "--scale" => {
                let v = args.next().unwrap_or_default();
                match Scale::parse(&v) {
                    Some(s) => opts.cfg.scale = s,
                    None => usage(&format!("unknown scale '{v}'")),
                }
            }
            "--trace" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    usage("--trace needs a file path");
                }
                opts.trace = Some(PathBuf::from(v));
            }
            "--out" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    usage("--out needs a file path (or '-' to skip writing)");
                }
                opts.out = if v == "-" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_opts();
    println!(
        "chaos soak: {} seed(s) from {} at scale {:?}",
        opts.cfg.seeds, opts.cfg.seed_base, opts.cfg.scale
    );
    let outcome = match run_chaos(&opts.cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("CHAOS VIOLATION: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut t = Table::new([
        "seed",
        "submitted",
        "completed",
        "rejected",
        "expired",
        "retries",
        "trace_events",
    ]);
    for s in &outcome.seeds {
        t.push([
            s.seed.to_string(),
            s.submitted.to_string(),
            s.completed.to_string(),
            s.rejected.to_string(),
            s.expired.to_string(),
            s.retries.to_string(),
            s.trace_events.to_string(),
        ]);
    }
    println!("{}", t.to_aligned());
    println!(
        "all {} seed(s) clean: conservation, trace invariants, bit-identical replay",
        outcome.seeds.len()
    );
    if let Some(path) = &opts.out {
        let mut text = String::new();
        for s in &outcome.seeds {
            text.push_str(&s.to_json_line());
            text.push('\n');
        }
        match fs::write(path, text) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &opts.trace {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = fs::create_dir_all(parent);
            }
        }
        match fs::write(path, jsonl::to_jsonl_string(&outcome.sample_trace)) {
            Ok(()) => eprintln!(
                "wrote {} trace events to {}",
                outcome.sample_trace.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
