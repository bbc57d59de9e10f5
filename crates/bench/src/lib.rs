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
//!   `trace_sample` and `ext_writeback`;
//! * `--checkpoint FILE` — record each completed figure/table into
//!   `FILE` as it finishes, so a killed run can be resumed;
//! * `--resume FILE` — restore completed figures/tables from `FILE`
//!   instead of recomputing them (and keep checkpointing into the same
//!   file unless `--checkpoint` names another one). Because every run
//!   is deterministic, a resumed invocation writes exactly the CSVs the
//!   uninterrupted one would have. These two keep a [`FigureCache`]:
//!   `all_figures`, the `ext_*` binaries, `fleet_saturation` and
//!   `redundancy_study`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod fleet;
pub mod redundancy;

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

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
    /// Figure-cache file written as figures complete (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Figure-cache file restored before computing (`--resume`).
    pub resume: Option<PathBuf>,
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
    /// `--checkpoint FILE` and `--resume FILE`: the [`FigureCache`].
    Cache,
}

impl Flag {
    /// The flag's part of the usage line.
    fn usage(self) -> &'static str {
        match self {
            Flag::Scale => " [--scale quick|default|paper]",
            Flag::Out => " [--out DIR|-]",
            Flag::Open => " [--open]",
            Flag::Trace => " [--trace FILE]",
            Flag::Cache => " [--checkpoint FILE] [--resume FILE]",
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
            checkpoint: None,
            resume: None,
        };
        let err = |e: String| Err(ParseStop::Error(e));
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let flag = match a.as_str() {
                "--scale" => Some(Flag::Scale),
                "--out" => Some(Flag::Out),
                "--open" => Some(Flag::Open),
                "--trace" => Some(Flag::Trace),
                "--checkpoint" | "--resume" => Some(Flag::Cache),
                _ => None,
            };
            if flag.is_some_and(|f| !accepts.contains(&f)) {
                return err(format!("{a} is not supported by this binary"));
            }
            let mut path = |flag: &str| match args.next() {
                Some(v) if !v.is_empty() => Ok(PathBuf::from(v)),
                _ => Err(ParseStop::Error(format!("{flag} needs a file path"))),
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
                "--trace" => opts.trace = Some(path("--trace")?),
                "--out" => {
                    let v = args.next().unwrap_or_default();
                    opts.out_dir = if v == "-" {
                        None
                    } else {
                        Some(PathBuf::from(v))
                    };
                }
                "--checkpoint" => opts.checkpoint = Some(path("--checkpoint")?),
                "--resume" => opts.resume = Some(path("--resume")?),
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

/// Figure-level checkpoint cache behind `--checkpoint` / `--resume`.
///
/// Figure binaries are deterministic, so a figure's CSV is a complete
/// record of its computation: the cache stores finished CSVs keyed by
/// figure name, flushed to disk after every figure. Resuming replays
/// the cached figures byte-for-byte and recomputes only the rest. The
/// file format is plain text — a `=meta` line pinning the scale and
/// variant (a checkpoint from a different scale is refused), then one
/// `=figure <name>` … `=endfigure <checksum>` section per finished
/// figure. The checksum is a 64-bit FNV-1a of the section's name and
/// rows, so a cache with a row deleted, duplicated or edited inside a
/// section is refused like any other malformed cache.
#[derive(Debug)]
pub struct FigureCache {
    write_path: Option<PathBuf>,
    meta: String,
    done: BTreeMap<String, String>,
}

impl FigureCache {
    /// Builds the cache from the harness options: loads `--resume` if
    /// given, and arranges to write to `--checkpoint` (or back to the
    /// `--resume` file when only that was given). A `--resume` file that
    /// exists but is refused — unreadable, malformed, or taken at another
    /// scale or variant — is ignored with a warning and never written:
    /// the run recomputes everything and records into `--checkpoint` only.
    /// A `--resume` file that does not exist yet is created.
    pub fn from_opts(opts: &HarnessOpts) -> FigureCache {
        let meta = format!("scale={:?} open={}", opts.scale, opts.open);
        let mut done = BTreeMap::new();
        let mut refused = None;
        if let Some(path) = &opts.resume {
            match fs::read_to_string(path) {
                Ok(text) => match parse_figure_cache(&text, &meta) {
                    Ok(map) => {
                        eprintln!(
                            "resumed {} finished figure(s) from {}",
                            map.len(),
                            path.display()
                        );
                        done = map;
                    }
                    Err(e) => refused = Some((path, e)),
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => eprintln!(
                    "note: no checkpoint at {} yet (computing everything)",
                    path.display()
                ),
                Err(e) => refused = Some((path, e.to_string())),
            }
        }
        let mut write_path = opts.checkpoint.clone().or_else(|| opts.resume.clone());
        if let Some((path, e)) = refused {
            eprintln!(
                "warning: ignoring checkpoint {}: {e} (recomputing everything; \
                 the file is left as it is)",
                path.display()
            );
            if write_path.as_ref() == Some(path) {
                write_path = None;
            }
        }
        FigureCache {
            write_path,
            meta,
            done,
        }
    }

    /// The cached CSV for `name`, if that figure already finished.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.done.get(name).map(String::as_str)
    }

    /// Records a finished figure and rewrites the cache file atomically
    /// and durably, so the file on disk always holds a complete cache.
    /// A failed write is a warning: the run itself goes on.
    pub fn record(&mut self, name: &str, csv: &str) {
        self.done.insert(name.to_string(), csv.to_string());
        let Some(path) = &self.write_path else { return };
        if let Err(e) = write_durably(path, &self.to_text()) {
            eprintln!("warning: cannot write checkpoint {}: {e}", path.display());
        }
    }

    /// The cache file's text: the `=meta` line, then one section per
    /// finished figure.
    fn to_text(&self) -> String {
        let mut out = format!("=meta {}\n", self.meta);
        for (k, v) in &self.done {
            out.push_str(&format!("=figure {k}\n{v}{}\n", end_line(k, v)));
        }
        out
    }
}

/// The line closing the section of figure `name` with rows `csv`: the
/// `=endfigure` marker and the section's checksum, a 64-bit FNV-1a of
/// the name line and the rows.
fn end_line(name: &str, csv: &str) -> String {
    let sum = format!("{name}\n{csv}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
    format!("=endfigure {sum:016x}")
}

/// Writes `text` to `path` atomically and durably: the text goes to a
/// temp file first, is fsynced, and is renamed into place; then the
/// parent directory is fsynced (on Unix) so the rename itself survives a
/// power loss. `path` therefore always holds a complete file even if the
/// process dies mid-write; a torn temp file is overwritten next time.
fn write_durably(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    let mut file = fs::File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    // A rename is atomic in the namespace but says nothing about the
    // data blocks: without this barrier a crash could leave `path`
    // naming a complete-looking file with torn contents.
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

fn parse_figure_cache(text: &str, expect_meta: &str) -> Result<BTreeMap<String, String>, String> {
    let mut lines = text.lines();
    let meta = lines
        .next()
        .and_then(|l| l.strip_prefix("=meta "))
        .ok_or("missing =meta line")?;
    if meta != expect_meta {
        return Err(format!(
            "checkpoint was taken with '{meta}' but this run is '{expect_meta}'"
        ));
    }
    let mut done = BTreeMap::new();
    let mut cur: Option<(String, String)> = None;
    for line in lines {
        if let Some(name) = line.strip_prefix("=figure ") {
            if cur.is_some() {
                return Err("nested =figure section".into());
            }
            cur = Some((name.to_string(), String::new()));
        } else if line == "=endfigure" || line.starts_with("=endfigure ") {
            let (name, csv) = cur.take().ok_or("=endfigure without =figure")?;
            if line != end_line(&name, &csv) {
                return Err(format!("figure {name} fails its checksum"));
            }
            done.insert(name, csv);
        } else if let Some((_, csv)) = &mut cur {
            csv.push_str(line);
            csv.push('\n');
        } else if !line.trim().is_empty() {
            return Err(format!("unexpected line outside a section: '{line}'"));
        }
    }
    if cur.is_some() {
        return Err("unterminated =figure section (file truncated)".into());
    }
    Ok(done)
}

/// Runs `compute` unless the cache already holds `name`'s CSV, emits the
/// figure either way, and records it. Cached figures skip the expensive
/// sweep entirely; the CSV written is byte-identical because the
/// underlying simulations are deterministic.
pub fn emit_figure_cached(
    opts: &HarnessOpts,
    cache: &mut FigureCache,
    name: &str,
    title: &str,
    param_name: &str,
    compute: impl FnOnce() -> Vec<SweepSeries>,
) {
    let full = format!("{name}_{}", opts.variant());
    if let Some(csv) = cache.get(&full).map(str::to_string) {
        println!("{title}: restored from checkpoint (skipping recompute)\n");
        write_csv(opts, &full, &csv);
        cache.record(&full, &csv);
        return;
    }
    let series = compute();
    println!("{}", parametric_plot(title, &series));
    println!("{}", series_to_table(&series, param_name));
    let csv = series_to_csv(&series, param_name);
    write_csv(opts, &full, &csv);
    cache.record(&full, &csv);
}

/// The table-binary counterpart of [`emit_figure_cached`]: returns the
/// cached CSV for `name` or runs `compute` (which prints its own output)
/// and records its result. The boolean is true when the value came from
/// the checkpoint.
pub fn cached_csv(
    cache: &mut FigureCache,
    name: &str,
    compute: impl FnOnce() -> String,
) -> (String, bool) {
    if let Some(csv) = cache.get(name).map(str::to_string) {
        println!("{name}: restored from checkpoint (skipping recompute)");
        cache.record(name, &csv);
        return (csv, true);
    }
    let csv = compute();
    cache.record(name, &csv);
    (csv, false)
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

    const META: &str = "scale=Quick open=false";
    const CSV_A: &str = "series,queue_length\nfifo,20\n";
    const CSV_B: &str = "series,queue_length\nenvelope,60\nenvelope,140\n";

    fn opts(scale: Scale, open: bool) -> HarnessOpts {
        HarnessOpts {
            scale,
            open,
            out_dir: None,
            trace: None,
            checkpoint: None,
            resume: None,
        }
    }

    /// A cache path in the system temp dir, unique per test and process.
    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tapesim-figure-cache-{}-{tag}.txt",
            std::process::id()
        ))
    }

    /// Writes a quick closed-variant cache holding two figures.
    fn write_cache(path: &Path) {
        let mut writer = FigureCache::from_opts(&HarnessOpts {
            checkpoint: Some(path.to_path_buf()),
            ..opts(Scale::Quick, false)
        });
        writer.record("fig4_closed", CSV_A);
        writer.record("fig6_closed", CSV_B);
    }

    fn resume(path: &Path, scale: Scale, open: bool) -> FigureCache {
        FigureCache::from_opts(&HarnessOpts {
            resume: Some(path.to_path_buf()),
            ..opts(scale, open)
        })
    }

    #[test]
    fn recorded_cache_resumes_the_same_csvs() {
        let path = temp_path("roundtrip");
        write_cache(&path);
        let resumed = resume(&path, Scale::Quick, false);
        let tmp_left = path.with_extension("ckpt.tmp").exists();
        let _ = fs::remove_file(&path);
        assert_eq!(resumed.get("fig4_closed"), Some(CSV_A));
        assert_eq!(resumed.get("fig6_closed"), Some(CSV_B));
        assert_eq!(resumed.get("fig8_closed"), None);
        assert!(!tmp_left, "the temp file is renamed into place");
    }

    #[test]
    fn cache_from_another_scale_or_variant_is_refused() {
        let path = temp_path("meta");
        write_cache(&path);
        let same = resume(&path, Scale::Quick, false);
        let other_scale = resume(&path, Scale::Default, false);
        let other_variant = resume(&path, Scale::Quick, true);
        let _ = fs::remove_file(&path);
        assert_eq!(same.get("fig4_closed"), Some(CSV_A));
        assert_eq!(other_scale.get("fig4_closed"), None);
        assert_eq!(other_variant.get("fig4_closed"), None);
        let text = format!("=meta {META}\n=figure f\n{CSV_A}{}\n", end_line("f", CSV_A));
        assert!(parse_figure_cache(&text, META).is_ok());
        assert!(parse_figure_cache(&text, "scale=Default open=false").is_err());
        assert!(parse_figure_cache(&text, "scale=Quick open=true").is_err());
    }

    #[test]
    fn refused_cache_is_never_written() {
        let path = temp_path("refused");
        let mut writer = FigureCache::from_opts(&HarnessOpts {
            checkpoint: Some(path.clone()),
            ..opts(Scale::Default, false)
        });
        writer.record("fig4_closed", CSV_A);
        let before = fs::read_to_string(&path).unwrap();
        let mut quick = resume(&path, Scale::Quick, false);
        quick.record("fig4_closed", CSV_B);
        quick.record("fig6_closed", CSV_B);
        let after = fs::read_to_string(&path).unwrap();
        let _ = fs::remove_file(&path);
        assert_eq!(after, before, "the default-scale cache is untouched");
        assert_eq!(quick.get("fig6_closed"), Some(CSV_B), "the run goes on");
    }

    #[test]
    fn missing_resume_file_is_created() {
        let path = temp_path("missing");
        let _ = fs::remove_file(&path);
        resume(&path, Scale::Quick, false).record("fig4_closed", CSV_A);
        let resumed = resume(&path, Scale::Quick, false);
        let _ = fs::remove_file(&path);
        assert_eq!(resumed.get("fig4_closed"), Some(CSV_A));
    }

    const ALL: [Flag; 5] = [Flag::Scale, Flag::Out, Flag::Open, Flag::Trace, Flag::Cache];

    fn parse(args: &[&str], accepts: &[Flag]) -> Result<HarnessOpts, ParseStop> {
        HarnessOpts::parse(args.iter().map(|a| (*a).to_string()), accepts)
    }

    #[test]
    fn cache_flags_are_errors_where_no_cache_is_kept() {
        for flag in ["--checkpoint", "--resume"] {
            match parse(
                &["--scale", "quick", flag, "f.ckpt"],
                &[Flag::Scale, Flag::Open, Flag::Trace],
            ) {
                Err(ParseStop::Error(e)) => assert!(e.contains(flag), "{e}"),
                other => panic!("{flag} accepted without a cache: {other:?}"),
            }
        }
        let opts = parse(&["--checkpoint", "a", "--resume", "b"], &[Flag::Cache]).unwrap();
        assert_eq!(opts.checkpoint, Some(PathBuf::from("a")));
        assert_eq!(opts.resume, Some(PathBuf::from("b")));
        assert!(!usage(&[Flag::Open, Flag::Trace]).contains("--resume"));
        assert!(usage(&[Flag::Cache]).contains("--resume"));
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
            &["--resume"],
            &["--x"],
        ] {
            assert!(
                matches!(parse(bad, &ALL), Err(ParseStop::Error(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn malformed_sections_are_errors() {
        let end = end_line("f", "a,b\n");
        for (body, what) in [
            ("=figure f\na,b\n".to_owned(), "missing =endfigure"),
            (
                format!("=figure f\n=figure g\na,b\n{end}\n"),
                "nested =figure",
            ),
            (
                format!("stray\n=figure f\na,b\n{end}\n"),
                "stray line before",
            ),
            (
                format!("=figure f\na,b\n{end}\nstray\n"),
                "stray line after",
            ),
            (format!("{end}\n"), "=endfigure without =figure"),
            ("=figure f\na,b\n=endfigure\n".to_owned(), "no checksum"),
            (format!("=figure f\na,c\n{end}\n"), "row edited"),
            (format!("=figure g\na,b\n{end}\n"), "section renamed"),
        ] {
            let text = format!("=meta {META}\n{body}");
            assert!(parse_figure_cache(&text, META).is_err(), "{what}");
        }
        let text = format!("=meta {META}\n=figure f\na,b\n{end}\n");
        assert!(
            parse_figure_cache(&text, META).is_ok(),
            "the unedited section"
        );
        assert!(parse_figure_cache("", META).is_err(), "missing =meta");
    }

    /// Every figure `parsed` restores is a whole `=figure … =endfigure`
    /// section of `text`, as the parser reads its lines.
    fn restores_only_whole_sections(text: &str, parsed: &BTreeMap<String, String>) -> bool {
        let lines: String = text.lines().map(|l| format!("\n{l}")).collect::<String>() + "\n";
        parsed.iter().all(|(name, csv)| {
            lines.contains(&format!("\n=figure {name}\n{csv}{}\n", end_line(name, csv)))
        })
    }

    /// A run of cache lines: a whole section, a blank, or one line that
    /// may break the file.
    fn cache_chunk(kind: u64) -> String {
        match kind % 4 {
            0 | 1 => {
                let rows: String = (0..kind / 4 % 3)
                    .map(|r| cache_line(7 + r % 2) + "\n")
                    .collect();
                let name = format!("fig{}_closed", kind / 12 % 3);
                format!("=figure {name}\n{rows}{}", end_line(&name, &rows))
            }
            2 => String::new(),
            _ => cache_line(kind / 4),
        }
    }

    /// One line of a cache: a marker, a CSV row, a blank or junk.
    fn cache_line(kind: u64) -> String {
        match kind % 12 {
            0 => format!("=meta {META}"),
            1 => "=meta scale=Default open=false".to_owned(),
            2..=4 => format!("=figure fig{}_closed", kind % 3),
            5 | 6 => "=endfigure".to_owned(),
            7 => "series,queue_length".to_owned(),
            8 => format!("envelope,{}", kind % 140),
            9 => String::new(),
            10 => "=figure".to_owned(),
            _ => "=endfigure trailing".to_owned(),
        }
    }

    proptest::proptest! {
        /// Input not derived from a cache file never panics the parser,
        /// and whatever parses restores only whole sections: random
        /// bytes behind a valid `=meta` line, and random mixes of whole
        /// sections, markers, rows, blanks and junk, with and without a
        /// valid `=meta` line.
        #[test]
        fn random_caches_restore_only_whole_sections(
            bytes in proptest::collection::vec(0u16..256, 0..200),
            chunks in proptest::collection::vec(0u64..1_000, 0..8),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| u8::try_from(b).unwrap()).collect();
            let random = format!("=meta {META}\n{}", String::from_utf8_lossy(&bytes));
            let mixed: String = chunks.iter().map(|&k| cache_chunk(k) + "\n").collect();
            for text in [&random, &mixed, &format!("=meta {META}\n{mixed}")] {
                if let Ok(map) = parse_figure_cache(text, META) {
                    proptest::prop_assert!(restores_only_whole_sections(text, &map), "{text}");
                }
            }
        }

        /// A real cache with lines inserted, deleted or duplicated at
        /// random never panics the parser, and every figure it restores
        /// is the CSV recorded under that name.
        #[test]
        fn mutated_caches_restore_only_whole_sections(
            edits in proptest::collection::vec((0u64..3, 0usize..64, 0u64..1_000), 1..6),
        ) {
            let mut cache = FigureCache {
                write_path: None,
                meta: META.to_string(),
                done: BTreeMap::new(),
            };
            cache.record("fig4_closed", CSV_A);
            cache.record("fig6_closed", CSV_B);
            cache.record("fig8_closed", CSV_B);
            let mut lines: Vec<String> = cache.to_text().lines().map(str::to_owned).collect();
            for (op, at, kind) in edits {
                let at = at % (lines.len() + 1);
                match op {
                    0 => lines.insert(at, cache_line(kind)),
                    _ if lines.is_empty() => {}
                    1 => {
                        lines.remove(at % lines.len());
                    }
                    _ => {
                        let line = lines[at % lines.len()].clone();
                        lines.insert(at % lines.len(), line);
                    }
                }
            }
            let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
            if let Ok(map) = parse_figure_cache(&text, META) {
                for (name, csv) in &map {
                    proptest::prop_assert_eq!(cache.done.get(name), Some(csv), "{}", text);
                }
            }
        }
    }

    #[test]
    fn every_truncation_parses_or_errors_without_panicking() {
        let mut cache = FigureCache {
            write_path: None,
            meta: META.to_string(),
            done: BTreeMap::new(),
        };
        cache.record("fig4_closed", CSV_A);
        cache.record("fig6_closed", CSV_B);
        let text = cache.to_text();
        assert_eq!(parse_figure_cache(&text, META).as_ref(), Ok(&cache.done));
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            // A truncated cache may only ever restore figures it really
            // finished: whatever parses is a subset of the full cache.
            if let Ok(map) = parse_figure_cache(&text[..end], META) {
                for (name, csv) in &map {
                    assert_eq!(cache.done.get(name), Some(csv), "cut at {end}");
                }
            }
        }
    }
}
