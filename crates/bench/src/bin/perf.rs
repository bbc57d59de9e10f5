//! Wall-clock performance harness over a fixed scenario matrix.
//!
//! Times each scenario (warmup + N repetitions), prints a human-readable
//! table, writes the machine-readable report to `BENCH_PERF.json`, and —
//! when `--check BASELINE` is given — fails with exit code 1 if any
//! scenario's `completed` or `physical_reads` differs from the baseline,
//! or its median regresses beyond the tolerance.
//!
//! ```text
//! perf [--scale quick|default|paper] [--reps N] [--warmup N]
//!      [--out FILE|-] [--check BASELINE] [--tolerance F]
//! ```
//!
//! Refresh the checked-in baseline by running on the reference machine:
//!
//! ```text
//! cargo run --release -p tapesim-bench --bin perf -- --scale quick --out bench/baseline.json
//! ```

use std::fs;
use std::process::ExitCode;

use tapesim::Scale;
use tapesim_bench::perf::{compare_to_baseline, run_matrix, PerfReport, DEFAULT_TOLERANCE};

struct Opts {
    scale: Scale,
    reps: u64,
    warmup: u64,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: perf [--scale quick|default|paper] [--reps N] [--warmup N] \
         [--out FILE|-] [--check BASELINE] [--tolerance F]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        scale: Scale::Quick,
        reps: 5,
        warmup: 1,
        out: Some("BENCH_PERF.json".to_owned()),
        check: None,
        tolerance: DEFAULT_TOLERANCE,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                match Scale::parse(&v) {
                    Some(s) => opts.scale = s,
                    None => usage(&format!("unknown scale '{v}'")),
                }
            }
            "--reps" => match args.next().unwrap_or_default().parse() {
                Ok(n) if n > 0 => opts.reps = n,
                _ => usage("--reps needs a positive integer"),
            },
            "--warmup" => match args.next().unwrap_or_default().parse() {
                Ok(n) => opts.warmup = n,
                _ => usage("--warmup needs a non-negative integer"),
            },
            "--out" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    usage("--out needs a file path (or '-' to skip writing)");
                }
                opts.out = if v == "-" { None } else { Some(v) };
            }
            "--check" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    usage("--check needs a baseline file path");
                }
                opts.check = Some(v);
            }
            "--tolerance" => match args.next().unwrap_or_default().parse() {
                Ok(f) if f >= 0.0 => opts.tolerance = f,
                _ => usage("--tolerance needs a non-negative fraction (e.g. 0.30)"),
            },
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let report = match run_matrix(opts.scale, opts.warmup, opts.reps) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perf matrix at scale '{}': {} warmup + {} timed reps per scenario\n",
        report.scale, report.warmup_reps, report.reps
    );
    println!("{}", report.to_table().to_aligned());
    if let Some(path) = &opts.out {
        match fs::write(path, report.to_json()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &opts.check {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match PerfReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match compare_to_baseline(&report, &baseline, opts.tolerance) {
            Ok(regressions) if regressions.is_empty() => {
                println!(
                    "baseline check passed: work counters match and no scenario is \
                     slower than {:.0}% over {path}",
                    opts.tolerance * 100.0
                );
            }
            Ok(regressions) => {
                for r in &regressions {
                    eprintln!(
                        "REGRESSION {}: median {:.3} ms vs baseline {:.3} ms ({:.2}x, \
                         tolerance {:.2}x)",
                        r.scenario,
                        r.current_ms,
                        r.baseline_ms,
                        r.ratio,
                        1.0 + opts.tolerance
                    );
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
