//! Shared harness code for the figure-regeneration binaries.
//!
//! Every binary accepts:
//!
//! * `--scale quick|default|paper` — simulation horizon (default:
//!   `default`, i.e. 1M simulated seconds x 3 seeds);
//! * `--open` — run the open-queuing (Poisson) variant instead of the
//!   closed-queuing one;
//! * `--out DIR` — also write the CSV into `DIR` (default `results/`,
//!   created on demand; pass `--out -` to skip writing);
//! * `--trace FILE` — for trace-aware binaries (`trace_sample`,
//!   `ext_writeback`), record the event trace of the representative run
//!   as JSON Lines into `FILE` (see EXPERIMENTS.md for the schema);
//! * `--checkpoint FILE` — record each completed figure/table into
//!   `FILE` as it finishes, so a killed run can be resumed;
//! * `--resume FILE` — restore completed figures/tables from `FILE`
//!   instead of recomputing them (and keep checkpointing into the same
//!   file unless `--checkpoint` names another one). Because every run
//!   is deterministic, a resumed invocation writes exactly the CSVs the
//!   uninterrupted one would have.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod fleet;
pub mod perf;
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
    /// (`None` = tracing disabled; only trace-aware binaries honor it).
    pub trace: Option<PathBuf>,
    /// Figure-cache file written as figures complete (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Figure-cache file restored before computing (`--resume`).
    pub resume: Option<PathBuf>,
}

impl HarnessOpts {
    /// Parses `std::env::args`; exits with usage on error.
    pub fn from_args() -> HarnessOpts {
        let mut opts = HarnessOpts {
            scale: Scale::Default,
            open: false,
            out_dir: Some(PathBuf::from("results")),
            trace: None,
            checkpoint: None,
            resume: None,
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
                "--open" => opts.open = true,
                "--trace" => {
                    let v = args.next().unwrap_or_default();
                    if v.is_empty() {
                        usage("--trace needs a file path");
                    }
                    opts.trace = Some(PathBuf::from(v));
                }
                "--out" => {
                    let v = args.next().unwrap_or_default();
                    opts.out_dir = if v == "-" {
                        None
                    } else {
                        Some(PathBuf::from(v))
                    };
                }
                "--checkpoint" => {
                    let v = args.next().unwrap_or_default();
                    if v.is_empty() {
                        usage("--checkpoint needs a file path");
                    }
                    opts.checkpoint = Some(PathBuf::from(v));
                }
                "--resume" => {
                    let v = args.next().unwrap_or_default();
                    if v.is_empty() {
                        usage("--resume needs a file path");
                    }
                    opts.resume = Some(PathBuf::from(v));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        opts
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

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <figure-binary> [--scale quick|default|paper] [--open] [--out DIR|-] \
         [--trace FILE] [--checkpoint FILE] [--resume FILE]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Figure-level checkpoint cache behind `--checkpoint` / `--resume`.
///
/// Figure binaries are deterministic, so a figure's CSV is a complete
/// record of its computation: the cache stores finished CSVs keyed by
/// figure name, flushed to disk after every figure. Resuming replays
/// the cached figures byte-for-byte and recomputes only the rest. The
/// file format is plain text — a `=meta` line pinning the scale and
/// variant (a checkpoint from a different scale is refused), then one
/// `=figure <name>` … `=endfigure` section per finished figure.
#[derive(Debug)]
pub struct FigureCache {
    write_path: Option<PathBuf>,
    meta: String,
    done: BTreeMap<String, String>,
}

impl FigureCache {
    /// Builds the cache from the harness options: loads `--resume` if
    /// given (ignoring it with a warning when unreadable or taken at a
    /// different scale/variant), and arranges to write to `--checkpoint`
    /// (or back to the `--resume` file when only that was given).
    pub fn from_opts(opts: &HarnessOpts) -> FigureCache {
        let meta = format!("scale={:?} open={}", opts.scale, opts.open);
        let mut done = BTreeMap::new();
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
                    Err(e) => eprintln!(
                        "warning: ignoring checkpoint {}: {e} (recomputing everything)",
                        path.display()
                    ),
                },
                Err(e) => eprintln!(
                    "warning: cannot read checkpoint {}: {e} (recomputing everything)",
                    path.display()
                ),
            }
        }
        FigureCache {
            write_path: opts.checkpoint.clone().or_else(|| opts.resume.clone()),
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
            out.push_str(&format!("=figure {k}\n{v}=endfigure\n"));
        }
        out
    }
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
        } else if line == "=endfigure" {
            let (name, csv) = cur.take().ok_or("=endfigure without =figure")?;
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
        let text = format!("=meta {META}\n=figure f\n{CSV_A}=endfigure\n");
        assert!(parse_figure_cache(&text, META).is_ok());
        assert!(parse_figure_cache(&text, "scale=Default open=false").is_err());
        assert!(parse_figure_cache(&text, "scale=Quick open=true").is_err());
    }

    #[test]
    fn malformed_sections_are_errors() {
        for (body, what) in [
            ("=figure f\na,b\n", "missing =endfigure"),
            ("=figure f\n=figure g\na,b\n=endfigure\n", "nested =figure"),
            ("stray\n=figure f\na,b\n=endfigure\n", "stray line before"),
            ("=figure f\na,b\n=endfigure\nstray\n", "stray line after"),
            ("=endfigure\n", "=endfigure without =figure"),
        ] {
            let text = format!("=meta {META}\n{body}");
            assert!(parse_figure_cache(&text, META).is_err(), "{what}");
        }
        assert!(parse_figure_cache("", META).is_err(), "missing =meta");
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
