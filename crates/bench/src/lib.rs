//! Shared harness code for the figure-regeneration binaries.
//!
//! Each binary names the [`Flag`]s it honours, and refuses every other
//! one with a usage error (exit status 2) naming the flag rather than
//! ignoring it:
//!
//! * `--scale quick|default|paper` — simulation horizon (default:
//!   `default`, i.e. 1M simulated seconds x 3 seeds): every binary but
//!   `fig1_locate_model`, `table_model_validation` and `ext_serpentine`,
//!   which have no horizon;
//! * `--out DIR` — also write the CSV into `DIR` (default `results/`,
//!   created on demand; pass `--out -` to skip writing): every binary but
//!   `ablation_drive`, which writes no CSV;
//! * `--open` — run the open-queuing (Poisson) variant instead of the
//!   closed-queuing one: `all_figures`, `fig3`–`fig9`, `ext_faults` and
//!   `trace_sample`;
//! * `--trace FILE` — record the event trace of the representative run
//!   as JSON Lines into `FILE` (see EXPERIMENTS.md for the schema):
//!   `trace_sample` and `ext_writeback`.
//!
//! A value of `--out` or `--trace` that starts with `--` is another flag,
//! so it is refused as a missing value.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod redundancy;

use std::fs;
use std::path::PathBuf;

use tapesim::prelude::*;
use tapesim::sim::trace::jsonl;
use tapesim::sim::TraceRecord;
use tapesim::{Scale, SweepSeries};

/// Parsed command-line options common to all figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Simulation scale.
    pub scale: Scale,
    /// Open-queuing variant.
    pub open: bool,
    /// Output directory for CSV files (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Destination for a JSONL event trace of the representative run
    /// (`None` = tracing disabled).
    pub trace: Option<PathBuf>,
}

/// A flag a figure binary may honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--scale quick|default|paper`: the simulation horizon.
    Scale,
    /// `--out DIR|-`: where the CSV goes.
    Out,
    /// `--open`: the open-queuing variant.
    Open,
    /// `--trace FILE`: a JSONL event trace of the representative run.
    Trace,
}

impl Flag {
    /// The flag's part of the usage line.
    fn usage(self) -> &'static str {
        match self {
            Flag::Scale => " [--scale quick|default|paper]",
            Flag::Out => " [--out DIR|-]",
            Flag::Open => " [--open]",
            Flag::Trace => " [--trace FILE]",
        }
    }
}

/// Why [`HarnessOpts::parse`] returned no options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseStop {
    /// `--help` or `-h`: print usage and exit 0.
    Help,
    /// A usage error: print it with the usage and exit 2.
    Error(String),
}

impl HarnessOpts {
    /// Parses `std::env::args` for a binary that honours the optional
    /// flags in `accepts`. Exits with usage on `--help` (status 0) or on
    /// an error (status 2).
    pub fn from_args(accepts: &[Flag]) -> HarnessOpts {
        match Self::parse(std::env::args().skip(1), accepts) {
            Ok(opts) => opts,
            Err(stop) => {
                let (err, status) = match stop {
                    ParseStop::Help => (String::new(), 0),
                    ParseStop::Error(e) => (format!("error: {e}\n"), 2),
                };
                eprint!("{err}{}", usage(accepts));
                std::process::exit(status);
            }
        }
    }

    /// Parses the arguments after the program name. A flag missing from
    /// `accepts` is an error that names the flag.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        accepts: &[Flag],
    ) -> Result<HarnessOpts, ParseStop> {
        let mut opts = HarnessOpts {
            scale: Scale::Default,
            open: false,
            out_dir: accepts
                .contains(&Flag::Out)
                .then(|| PathBuf::from("results")),
            trace: None,
        };
        let err = |e: String| Err(ParseStop::Error(e));
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let flag = match a.as_str() {
                "--scale" => Some(Flag::Scale),
                "--out" => Some(Flag::Out),
                "--open" => Some(Flag::Open),
                "--trace" => Some(Flag::Trace),
                _ => None,
            };
            if flag.is_some_and(|f| !accepts.contains(&f)) {
                return err(format!("{a} is not supported by this binary"));
            }
            // A flag is never another flag's value.
            let mut value = |what: &str| match args.next() {
                Some(v) if !v.is_empty() && !v.starts_with("--") => Ok(v),
                _ => Err(ParseStop::Error(format!("{a} needs {what}"))),
            };
            match a.as_str() {
                "--scale" => {
                    let v = args.next().unwrap_or_default();
                    match Scale::parse(&v) {
                        Some(s) => opts.scale = s,
                        None => return err(format!("unknown scale '{v}'")),
                    }
                }
                "--open" => opts.open = true,
                "--trace" => opts.trace = Some(PathBuf::from(value("a file path")?)),
                "--out" => {
                    let v = value("a directory, or '-' to skip writing")?;
                    opts.out_dir = (v != "-").then(|| PathBuf::from(v));
                }
                "--help" | "-h" => return Err(ParseStop::Help),
                other => return err(format!("unknown flag '{other}'")),
            }
        }
        Ok(opts)
    }

    /// Suffix identifying the workload variant in filenames/titles.
    pub fn variant(&self) -> &'static str {
        if self.open {
            "open"
        } else {
            "closed"
        }
    }
}

/// The usage line, listing only the flags in `accepts`.
fn usage(accepts: &[Flag]) -> String {
    let flags: String = accepts.iter().map(|f| f.usage()).collect();
    format!("usage: <figure-binary>{flags}\n")
}

/// Writes a recorded event trace as JSON Lines to the `--trace` path.
/// No-op when tracing was not requested.
pub fn write_trace(opts: &HarnessOpts, records: &[TraceRecord]) {
    let Some(path) = &opts.trace else { return };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = fs::create_dir_all(parent);
        }
    }
    match fs::write(path, jsonl::to_jsonl_string(records)) {
        Ok(()) => eprintln!("wrote {} trace events to {}", records.len(), path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Writes `contents` as `results/<name>.csv` (or the `--out` directory).
pub fn write_csv(opts: &HarnessOpts, name: &str, contents: &str) {
    let Some(dir) = &opts.out_dir else { return };
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match fs::write(&path, contents) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Renders a family of sweep series as a long-form CSV: one row per
/// (series, point).
pub fn series_to_csv(series: &[SweepSeries], param_name: &str) -> String {
    let mut t = Table::new([
        "series",
        param_name,
        "throughput_kb_per_s",
        "requests_per_min",
        "mean_delay_s",
        "median_delay_s",
        "p95_delay_s",
        "p99_delay_s",
        "max_delay_s",
        "tape_switches",
        "physical_reads",
        "locate_frac",
        "read_frac",
        "switch_frac",
        "idle_frac",
        "saturated",
    ]);
    for s in series {
        for p in &s.points {
            t.push([
                s.label.clone(),
                format!("{}", p.param),
                fnum(p.report.throughput_kb_per_s, 3),
                fnum(p.report.requests_per_min, 4),
                fnum(p.report.mean_delay_s, 1),
                fnum(p.report.median_delay_s, 1),
                fnum(p.report.p95_delay_s, 1),
                fnum(p.report.p99_delay_s, 1),
                fnum(p.report.max_delay_s, 1),
                p.report.tape_switches.to_string(),
                p.report.physical_reads.to_string(),
                fnum(p.report.locate_frac, 4),
                fnum(p.report.read_frac, 4),
                fnum(p.report.switch_frac, 4),
                fnum(p.report.idle_frac, 4),
                p.report.saturated.to_string(),
            ]);
        }
    }
    t.to_csv()
}

/// Renders a compact aligned table: one row per (series, point) with the
/// two paper axes (throughput, mean delay).
pub fn series_to_table(series: &[SweepSeries], param_name: &str) -> String {
    let mut t = Table::new(["series", param_name, "KB/s", "delay(s)", "switches"]);
    for s in series {
        for p in &s.points {
            t.push([
                s.label.clone(),
                format!("{}", p.param),
                fnum(p.report.throughput_kb_per_s, 1),
                fnum(p.report.mean_delay_s, 0),
                p.report.tape_switches.to_string(),
            ]);
        }
    }
    t.to_aligned()
}

/// Renders the paper's parametric throughput/delay plot for a family.
pub fn parametric_plot(title: &str, series: &[SweepSeries]) -> String {
    let plot_series: Vec<Series> = series
        .iter()
        .map(|s| {
            Series::new(
                s.label.clone(),
                s.points
                    .iter()
                    .map(|p| (p.report.throughput_kb_per_s, p.report.mean_delay_s))
                    .collect(),
            )
        })
        .collect();
    ascii_plot(
        title,
        "mean throughput (KB/s)",
        "mean delay (s)",
        &plot_series,
        64,
        20,
    )
}

/// Prints the standard three renderings of a figure and writes its CSV.
pub fn emit_figure(
    opts: &HarnessOpts,
    name: &str,
    title: &str,
    param_name: &str,
    series: &[SweepSeries],
) {
    println!("{}", parametric_plot(title, series));
    println!("{}", series_to_table(series, param_name));
    let csv = series_to_csv(series, param_name);
    write_csv(opts, &format!("{name}_{}", opts.variant()), &csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Flag; 4] = [Flag::Scale, Flag::Out, Flag::Open, Flag::Trace];

    fn parse(args: &[&str], accepts: &[Flag]) -> Result<HarnessOpts, ParseStop> {
        HarnessOpts::parse(args.iter().map(|a| (*a).to_string()), accepts)
    }

    #[test]
    fn cache_flags_are_errors_where_no_cache_is_kept() {
        for flag in ["--checkpoint", "--resume"] {
            match parse(&["--scale", "quick", flag, "f.ckpt"], &ALL) {
                Err(ParseStop::Error(e)) => assert!(e.contains(flag), "{e}"),
                other => panic!("{flag} accepted: {other:?}"),
            }
            assert!(!usage(&ALL).contains(flag));
        }
    }

    #[test]
    fn open_and_trace_are_errors_where_not_honoured() {
        for (args, flag) in [
            (&["--open"][..], Flag::Open),
            (&["--trace", "t.jsonl"], Flag::Trace),
        ] {
            let others: Vec<Flag> = ALL.into_iter().filter(|f| *f != flag).collect();
            match parse(args, &others) {
                Err(ParseStop::Error(e)) => assert!(e.contains(args[0]), "{e}"),
                other => panic!("{} accepted: {other:?}", args[0]),
            }
            assert!(!usage(&others).contains(args[0]));
            assert!(usage(&[flag]).contains(args[0]));
            assert!(parse(args, &[flag]).is_ok());
        }
        assert_eq!(
            usage(&[Flag::Scale, Flag::Out]),
            "usage: <figure-binary> [--scale quick|default|paper] [--out DIR|-]\n"
        );
    }

    #[test]
    fn scale_and_out_are_errors_where_not_honoured() {
        for (args, flag) in [
            (&["--scale", "quick"][..], Flag::Scale),
            (&["--out", "-"], Flag::Out),
        ] {
            let others: Vec<Flag> = ALL.into_iter().filter(|f| *f != flag).collect();
            match parse(args, &others) {
                Err(ParseStop::Error(e)) => assert!(e.contains(args[0]), "{e}"),
                other => panic!("{} accepted: {other:?}", args[0]),
            }
            assert!(!usage(&others).contains(args[0]));
            assert!(parse(args, &[flag]).is_ok());
        }
        // A binary that writes no CSV has nowhere to write one.
        assert_eq!(parse(&[], &[Flag::Scale]).unwrap().out_dir, None);
        assert_eq!(
            parse(&[], &[Flag::Out]).unwrap().out_dir,
            Some(PathBuf::from("results"))
        );
    }

    #[test]
    fn other_flags_parse_or_stop() {
        let opts = parse(
            &["--scale", "paper", "--open", "--out", "-"],
            &[Flag::Scale, Flag::Out, Flag::Open],
        )
        .unwrap();
        assert_eq!(opts.scale, Scale::Paper);
        assert!(opts.open && opts.out_dir.is_none());
        assert_eq!(
            parse(&["--trace", "t.jsonl"], &[Flag::Trace])
                .unwrap()
                .trace,
            Some(PathBuf::from("t.jsonl"))
        );
        assert_eq!(parse(&["-h"], &ALL).unwrap_err(), ParseStop::Help);
        for bad in [
            &["--scale", "bogus"][..],
            &["--trace"],
            &["--out"],
            &["--out", ""],
            &["--out", "--open"],
            &["--trace", "--open", "--out", "-"],
            &["--x"],
        ] {
            assert!(
                matches!(parse(bad, &ALL), Err(ParseStop::Error(_))),
                "{bad:?}"
            );
        }
    }
}
