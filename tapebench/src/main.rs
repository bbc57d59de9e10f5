//! `tapebench`: the end-to-end and per-layer benchmark of the tape-jukebox
//! simulator. See README.md for the workloads, metrics and how to read
//! them.
//!
//! ```text
//! tapebench --workload W --seed N --seconds S --trace 0|1   one run
//! tapebench [--seed N] [--reps R] [--seconds S] [--out F]   the full set
//! tapebench --compare PARENT.json CHANGE.json               two sets
//! tapebench --smoke                                         quick gate check
//! ```

mod compare;
mod heap;
mod json;
mod metrics;
mod probe;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use tapesim::sim::{check_trace, MemorySink, NullSink};

use crate::json::{obj, Value};
use crate::metrics::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use crate::probe::{now, CountingSink, Probe, Span, SpanStats};
use crate::stats::median;
use crate::workloads::{run, Inputs, Rep, SimOutcome, Workload};

/// Fewest untraced repetitions a run makes, however short `--seconds`
/// is, so that a median exists.
const MIN_REPS: usize = 3;

/// Share of a traced run's time spent on untraced repetitions, which the
/// tracing overhead is measured against.
const TRACE_BASELINE_SHARE: f64 = 0.4;

const USAGE: &str = "\
usage: tapebench --workload W --seed N --seconds S --trace 0|1
       tapebench [--seed N] [--reps R] [--seconds S] [--out FILE]
       tapebench --compare PARENT.json CHANGE.json
       tapebench --smoke
workloads: paper-envelope fleet-recall service-faults writeback-mixed";

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tapebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cli(args: Vec<String>) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut reps = 5usize;
    let mut out = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--reps" => reps = val()?.parse().map_err(|_| "--reps takes a whole number")?,
            "--out" => out = Some(val()?),
            "--compare" => {
                let (p, c) = (val()?, val()?);
                let read = |f: &str| {
                    std::fs::read_to_string(f)
                        .map_err(|e| format!("{f}: {e}"))
                        .and_then(|t| compare::Set::parse(&t).map_err(|e| format!("{f}: {e}")))
                };
                return compare::compare(&read(&p)?, &read(&c)?);
            }
            "--smoke" => return Ok(smoke(seed)),
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = workload {
        let r = measure(w, seed, seconds.unwrap_or(10.0), trace)?;
        println!("{}", r.to_value().to_json());
        return Ok(r.correct);
    }
    let set = compare::run_set(seed, reps.max(1), seconds.unwrap_or(5.0))?;
    let path = out.unwrap_or_else(|| format!("{}/set-{seed}.json", out_dir()));
    write_file(&path, &set.to_json())?;
    eprintln!("wrote {path}");
    Ok(true)
}

/// Where runs write their files: `out/` beside this package's manifest.
fn out_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/out").to_owned()
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Gate bookkeeping of one run.
#[derive(Default)]
struct Gates {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The first repetition's outcome; every later one must equal it.
    first: Option<SimOutcome>,
}

impl Gates {
    /// Counts one repetition and applies the gates to its outcome.
    fn rep(&mut self, label: &str, r: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        let rep = match r {
            Ok(rep) => rep,
            Err(e) => {
                self.fail(format!("{label}: {e}"));
                return None;
            }
        };
        let mut bad = rep.outcome.check();
        match &self.first {
            None => self.first = Some(rep.outcome.clone()),
            Some(f) if *f != rep.outcome => bad.push(format!(
                "{label}: simulated outcome differs from the first repetition"
            )),
            Some(_) => {}
        }
        if bad.is_empty() {
            Some(rep)
        } else {
            self.failed += 1;
            self.failures.extend(bad);
            None
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Runs the workload over the first 1% of its horizon into a memory sink
/// and checks the trace invariants.
fn check_trace_gate(w: Workload, seed: u64) -> Result<(), String> {
    let inputs = Inputs::new(w, seed, 100)?;
    let mut sink = MemorySink::new();
    let rep = run(&inputs, true, &mut sink, &Probe::off())?;
    if let Some(b) = rep.outcome.check().first() {
        return Err(format!("1% run: {b}"));
    }
    trace_violations(&sink)
}

fn trace_violations(sink: &MemorySink) -> Result<(), String> {
    match check_trace(sink.events()) {
        Ok(_) => Ok(()),
        Err(v) => Err(format!("{} trace violations, first: {}", v.len(), v[0])),
    }
}

/// One measured run of one workload: `--seconds` of repetitions, each a
/// complete simulation of the same inputs, and the metrics of either the
/// untraced repetitions or (with `trace`) the traced ones.
fn measure(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let inputs = Inputs::new(w, seed, 1)?;
    let mut g = Gates::default();
    g.attempted += 1;
    if let Err(e) = check_trace_gate(w, seed) {
        g.fail(e);
    }
    let start = now();
    let budget = if trace {
        seconds * TRACE_BASELINE_SHARE
    } else {
        seconds
    };
    let (mut setups, mut runs, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    while runs.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget {
        let label = format!("repetition {}", runs.len() + 1);
        let Some(rep) = g.rep(&label, run(&inputs, false, &mut NullSink, &Probe::off())) else {
            break;
        };
        setups.push(rep.setup.as_secs_f64());
        runs.push(rep.run.as_secs_f64());
        rates.push(rep.outcome.report.served as f64 / rep.run.as_secs_f64());
    }
    let metrics = if trace {
        let until = start + std::time::Duration::from_secs_f64(seconds);
        traced_metrics(&inputs, &mut g, median(&runs), until)
    } else {
        let values = g.first.as_ref().map(|o| {
            let r = &o.report;
            [
                median(&setups),
                median(&rates),
                heap::peak_mib(),
                r.throughput_kb_per_s,
                r.mean_delay_s,
                r.median_delay_s,
                r.p99_delay_s,
                o.served() as f64 / o.offered() as f64,
            ]
        });
        named(&END_TO_END, &values.unwrap_or([0.0; END_TO_END.len()]))
    };
    for f in &g.failures {
        eprintln!("tapebench: {}: gate failed: {f}", w.name());
    }
    eprintln!(
        "tapebench: {}: {} repetitions, median {:.3} s",
        w.name(),
        runs.len(),
        median(&runs)
    );
    Ok(RunResult {
        correct: g.failures.is_empty() && g.first.is_some(),
        attempted: g.attempted,
        failed: g.failed,
        metrics,
    })
}

fn named(defs: &[MetricDef], values: &[f64]) -> Vec<(String, f64, String)> {
    defs.iter()
        .zip(values)
        .map(|(d, &v)| (d.name.to_owned(), v, d.unit.to_owned()))
        .collect()
}

/// Traced repetitions until `until` (at least one), then the per-layer
/// metrics, per repetition. Writes every span aggregate to
/// `out/trace-<workload>.json`.
fn traced_metrics(
    inputs: &Inputs,
    g: &mut Gates,
    untraced_median_s: f64,
    until: Instant,
) -> Vec<(String, f64, String)> {
    let probe = Probe::on();
    let mut sink = CountingSink::default();
    let mut runs = Vec::new();
    while runs.is_empty() || now() < until {
        let mut rep_sink = CountingSink::default();
        let label = format!("traced repetition {}", runs.len() + 1);
        let r = run(inputs, true, &mut rep_sink, &probe);
        let Some(rep) = g.rep(&label, r) else {
            break;
        };
        if rep_sink.completions != rep.outcome.report.served {
            g.fail(format!(
                "{label}: {} traced completions but {} served",
                rep_sink.completions, rep.outcome.report.served
            ));
        }
        sink.records += rep_sink.records;
        sink.robot_exchanges += rep_sink.robot_exchanges;
        sink.robot_busy_us += rep_sink.robot_busy_us;
        runs.push(rep.run.as_secs_f64());
    }
    let n = runs.len().max(1) as f64;
    let total_ns: f64 = runs.iter().sum::<f64>() * 1e9;
    let st = |s: Span| probe.stats(s);
    let share = |s: &SpanStats| s.self_ns() as f64 / total_ns;
    let per_rep_ms = |ns: u64| ns as f64 / n / 1e6;
    let counts = probe.sched_counts();
    let (major, arrival) = (st(Span::Major), st(Span::Arrival));
    let (advance, submit, finish) = (st(Span::Advance), st(Span::Submit), st(Span::Finish));
    let Some(o) = g.first.clone() else {
        return named(&PER_LAYER, &[0.0; PER_LAYER.len()]);
    };
    let r = &o.report;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let svc = o.service.unwrap_or_default();
    let wb = o.writeback;
    let values: [f64; PER_LAYER.len()] = [
        per_rep_ms(st(Span::Layout).total_ns),
        inputs.expansion,
        major.calls as f64 / n,
        per_rep_ms(major.total_ns),
        major.hist.percentile(0.5) / 1e3,
        major.hist.percentile(0.99) / 1e3,
        share(&major),
        ratio(
            counts.planned_requests as f64,
            (major.calls - counts.empty_plans) as f64,
        ),
        ratio(counts.empty_plans as f64, major.calls as f64),
        arrival.calls as f64 / n,
        share(&arrival),
        ratio(counts.inserted as f64, arrival.calls as f64),
        advance.calls as f64 / n,
        per_rep_ms(advance.total_ns),
        share(&advance),
        submit.calls as f64 / n,
        share(&submit),
        per_rep_ms(finish.total_ns),
        share(&finish),
        per_rep_ms(advance.self_ns() + submit.self_ns() + finish.self_ns()),
        svc.retries as f64,
        svc.rejected as f64,
        svc.expired as f64,
        wb.map_or(0.0, |w| w.deltas_flushed as f64),
        wb.map_or(0.0, |w| {
            ratio(
                w.piggyback_flushes as f64,
                (w.piggyback_flushes + w.idle_flushes) as f64,
            )
        }),
        wb.map_or(0.0, |w| w.peak_buffer as f64),
        wb.map_or(0.0, |w| w.mean_delta_age_s),
        1e3 * ratio(r.tape_switches as f64, r.completed as f64),
        ratio(r.physical_reads as f64, r.completed as f64),
        r.locate_frac,
        r.read_frac,
        r.switch_frac,
        r.idle_frac,
        sink.robot_exchanges as f64 / n,
        ratio(
            sink.robot_busy_us as f64 / n,
            inputs.workload.robot_arms() as f64 * inputs.cfg.duration.as_micros() as f64,
        ),
        r.media_errors as f64,
        r.replica_failovers as f64,
        sink.records as f64 / n,
        ratio(sink.records as f64 / n, o.offered() as f64),
        ratio(median(&runs), untraced_median_s) - 1.0,
    ];
    let metrics = named(&PER_LAYER, &values);
    let spans = Span::ALL.map(|s| {
        let a = st(s);
        obj([
            ("span", Value::Str(s.name().to_owned())),
            ("calls", Value::Num(a.calls as f64 / n)),
            ("total_ms", Value::Num(per_rep_ms(a.total_ns))),
            ("self_ms", Value::Num(per_rep_ms(a.self_ns()))),
            ("us_p50", Value::Num(a.hist.percentile(0.5) / 1e3)),
            ("us_p99", Value::Num(a.hist.percentile(0.99) / 1e3)),
        ])
    });
    let file = obj([
        ("workload", Value::Str(inputs.workload.name().to_owned())),
        ("seed", Value::Num(inputs.seed as f64)),
        ("traced_repetitions", Value::Num(runs.len() as f64)),
        ("traced_run_s", Value::Num(median(&runs))),
        ("untraced_run_s", Value::Num(untraced_median_s)),
        ("spans", Value::Array(spans.to_vec())),
        ("metrics", metrics::to_value(&metrics)),
    ]);
    let path = format!("{}/trace-{}.json", out_dir(), inputs.workload.name());
    if let Err(e) = write_file(&path, &(file.to_json() + "\n")) {
        g.fail(e);
    }
    metrics
}

/// Every workload at 1/1000 of its horizon through every gate: timed and
/// traced repetitions agree, outcomes conserve requests, and the trace
/// passes the invariant checker.
fn smoke(seed: u64) -> bool {
    let start = now();
    let mut ok = true;
    for w in Workload::ALL {
        let r = smoke_one(w, seed);
        if let Err(e) = &r {
            eprintln!("smoke: {}: {e}", w.name());
        }
        ok &= r.is_ok();
    }
    eprintln!(
        "smoke: {} in {:.2} s",
        if ok { "passed" } else { "FAILED" },
        start.elapsed().as_secs_f64()
    );
    ok
}

fn smoke_one(w: Workload, seed: u64) -> Result<(), String> {
    let inputs = Inputs::new(w, seed, 1000)?;
    let mut g = Gates::default();
    let _ = g.rep("timed", run(&inputs, false, &mut NullSink, &Probe::off()));
    let _ = g.rep(
        "timed again",
        run(&inputs, false, &mut NullSink, &Probe::off()),
    );
    let mut sink = MemorySink::new();
    let _ = g.rep("traced", run(&inputs, true, &mut sink, &Probe::on()));
    if let Err(e) = trace_violations(&sink) {
        g.fail(e);
    }
    match g.failures.first() {
        None => Ok(()),
        Some(f) => Err(f.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_gate() {
        assert!(smoke(3));
    }

    #[test]
    fn metric_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = Value::parse(&text).unwrap();
        let check = |key: &str, defs: &[MetricDef], bounds: bool| {
            let listed = v.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l.get("name").unwrap().as_str().unwrap(), d.name);
                assert_eq!(l.get("unit").unwrap().as_str().unwrap(), d.unit);
                assert_eq!(l.get("better").unwrap().as_str().unwrap(), d.better.name());
                if bounds {
                    assert_eq!(
                        l.get("bound").unwrap().as_f64().unwrap(),
                        d.bound,
                        "{}",
                        d.name
                    );
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let names: Vec<&str> = v
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }
}
