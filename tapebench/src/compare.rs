//! Sets of runs: the full set one command makes (every workload, several
//! runs each in its own process, plus a traced run), its file format, and
//! the comparison of two sets.

use std::process::Command;

use crate::json::{obj, Value};
use crate::metrics::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use crate::stats::{iqr, median};
use crate::workloads::Workload;

/// The runs of one workload within a set.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRuns {
    pub name: String,
    /// Untraced runs, one process each.
    pub runs: Vec<RunResult>,
    pub traced: RunResult,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Set {
    pub seed: u64,
    pub seconds: f64,
    pub host_parallelism: u64,
    pub rustc: String,
    pub workloads: Vec<WorkloadRuns>,
}

impl Set {
    /// One workload per line, so that diffs of a committed set stay
    /// readable.
    pub fn to_json(&self) -> String {
        let header = obj([
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("host_parallelism", Value::Num(self.host_parallelism as f64)),
            ("rustc", Value::Str(self.rustc.clone())),
        ])
        .to_json();
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                obj([
                    ("name", Value::Str(w.name.clone())),
                    (
                        "runs",
                        Value::Array(w.runs.iter().map(RunResult::to_value).collect()),
                    ),
                    ("traced", w.traced.to_value()),
                ])
                .to_json()
            })
            .collect();
        format!(
            "{}, \"workloads\": [\n  {}\n]}}\n",
            header.trim_end_matches('}'),
            workloads.join(",\n  ")
        )
    }

    pub fn parse(text: &str) -> Result<Set, String> {
        let v = Value::parse(text)?;
        let workloads = v
            .get("workloads")?
            .as_array()?
            .iter()
            .map(|w| {
                Ok(WorkloadRuns {
                    name: w.get("name")?.as_str()?.to_owned(),
                    runs: w
                        .get("runs")?
                        .as_array()?
                        .iter()
                        .map(RunResult::from_value)
                        .collect::<Result<_, String>>()?,
                    traced: RunResult::from_value(w.get("traced")?)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Set {
            seed: v.get("seed")?.as_u64()?,
            seconds: v.get("seconds")?.as_f64()?,
            host_parallelism: v.get("host_parallelism")?.as_u64()?,
            rustc: v.get("rustc")?.as_str()?.to_owned(),
            workloads,
        })
    }
}

/// Runs this executable once per run, one process at a time, and parses
/// the result line each prints last.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let r = RunResult::from_value(&Value::parse(line)?)?;
    if !out.status.success() || !r.correct {
        return Err(format!(
            "{} failed its gates ({})",
            workload.name(),
            out.status
        ));
    }
    Ok(r)
}

/// Runs the full set, prints every metric, and checks that the simulated
/// metrics repeat exactly across processes.
pub fn run_set(seed: u64, reps: usize, seconds: f64) -> Result<Set, String> {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let runs = (0..reps)
            .map(|_| child(w, seed, seconds, false))
            .collect::<Result<Vec<_>, String>>()?;
        for d in END_TO_END.iter().filter(|d| d.modelled()) {
            let vals: Vec<f64> = runs.iter().filter_map(|r| r.value(d.name)).collect();
            if vals.windows(2).any(|p| p[0] != p[1]) {
                return Err(format!(
                    "{}: {} differs between processes: {vals:?}",
                    w.name(),
                    d.name
                ));
            }
        }
        let traced = child(w, seed, seconds, true)?;
        workloads.push(WorkloadRuns {
            name: w.name().to_owned(),
            runs,
            traced,
        });
    }
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let set = Set {
        seed,
        seconds,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        rustc,
        workloads,
    };
    print_set(&set);
    Ok(set)
}

fn values(runs: &[RunResult], name: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.value(name)).collect()
}

fn print_set(set: &Set) {
    println!(
        "{:<16} {:<28} {:>10} {:>14} {:>12} {:>3}",
        "workload", "metric", "unit", "median", "iqr", "n"
    );
    for w in &set.workloads {
        for d in &END_TO_END {
            let v = values(&w.runs, d.name);
            println!(
                "{:<16} {:<28} {:>10} {:>14.6} {:>12.6} {:>3}",
                w.name,
                d.name,
                d.unit,
                median(&v),
                iqr(&v),
                v.len()
            );
        }
        for d in &PER_LAYER {
            let v = w.traced.value(d.name).unwrap_or(f64::NAN);
            println!(
                "{:<16} {:<28} {:>10} {:>14.6} {:>12} {:>3}",
                w.name, d.name, d.unit, v, "traced", 1
            );
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest runs on each side before a gain may be claimed.
const MIN_RUNS_FOR_GAIN: usize = 10;

/// Judges a change against its parent on one end-to-end metric:
/// - *improved*, given at least ten runs a side, when every change run
///   reads better than every parent run, or when the change wins at least
///   nine tenths of the runs paired in order and the medians differ by
///   more than the parent's interquartile range;
/// - otherwise *unresolved* when the parent's own spread (IQR over
///   median) is wider than the bound;
/// - otherwise *worse* when the change's median is worse than the
///   parent's by more than the bound, else *within bound*.
pub fn verdict(d: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let better = |a: f64, b: f64| d.better.worse_by(b, a) < 0.0;
    let pairs = parent.len().min(change.len());
    let enough = pairs >= MIN_RUNS_FOR_GAIN;
    if enough && change.iter().all(|&c| parent.iter().all(|&p| better(c, p))) {
        return Verdict::Improved;
    }
    let (pm, cm) = (median(parent), median(change));
    let spread = iqr(parent);
    if spread > d.bound * pm.abs() {
        return Verdict::Unresolved;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if enough && wins * 10 >= pairs * 9 && (cm - pm).abs() > spread && better(cm, pm) {
        return Verdict::Improved;
    }
    if d.better.worse_by(pm, cm) > d.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// Prints one row per (workload, metric) and returns whether nothing got
/// worse.
pub fn compare(parent: &Set, change: &Set) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<16} {:<28} {:>14} {:>12} {:>14} {:>12} {:>8}  verdict",
        "workload", "metric", "parent", "iqr", "change", "iqr", "delta"
    );
    for p in &parent.workloads {
        let c = change
            .workloads
            .iter()
            .find(|c| c.name == p.name)
            .ok_or_else(|| format!("{} is missing from the change", p.name))?;
        for d in &END_TO_END {
            let (pv, cv) = (values(&p.runs, d.name), values(&c.runs, d.name));
            let v = verdict(d, &pv, &cv);
            ok &= v != Verdict::Worse;
            let (pm, cm) = (median(&pv), median(&cv));
            println!(
                "{:<16} {:<28} {:>14.6} {:>12.6} {:>14.6} {:>12.6} {:>+7.2}%  {}",
                p.name,
                d.name,
                pm,
                iqr(&pv),
                cm,
                iqr(&cv),
                100.0 * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE),
                v.name()
            );
        }
        for d in &PER_LAYER {
            let (pv, cv) = (p.traced.value(d.name), c.traced.value(d.name));
            if let (Some(pv), Some(cv)) = (pv, cv) {
                println!(
                    "{:<16} {:<28} {:>14.6} {:>12} {:>14.6} {:>12} {:>8}  layer",
                    p.name, d.name, pv, "-", cv, "-", "-"
                );
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{find, Better};

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_rules() {
        let d = lower(0.1);
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        // Identical runs: within bound.
        assert_eq!(verdict(&d, &parent, &parent), Verdict::WithinBound);
        // 5% slower, inside the 10% bound.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&d, &parent, &slower), Verdict::WithinBound);
        // 20% slower: worse.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&d, &parent, &slower), Verdict::Worse);
        // Every change run beats every parent run: improved.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&d, &parent, &faster), Verdict::Improved);
        // Higher-is-better flips the direction.
        let hi = MetricDef {
            better: Better::Higher,
            ..d
        };
        assert_eq!(verdict(&hi, &parent, &slower), Verdict::Improved);
        let lower: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&hi, &parent, &lower), Verdict::Worse);
    }

    #[test]
    fn a_noisy_parent_leaves_the_verdict_unresolved() {
        let d = lower(0.1);
        let parent = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.2, 0.9, 1.1, 1.0];
        let change = [1.1, 1.4, 0.8, 1.2, 0.9, 1.0, 1.3, 0.9, 1.0, 1.1];
        assert_eq!(verdict(&d, &parent, &change), Verdict::Unresolved);
        // Unless the change is better on every run.
        let change = [0.5, 0.6, 0.4, 0.6, 0.5, 0.55, 0.6, 0.45, 0.5, 0.6];
        assert_eq!(verdict(&d, &parent, &change), Verdict::Improved);
        // Five runs a side never suffice for a gain.
        assert_eq!(verdict(&d, &parent[..5], &change[..5]), Verdict::Unresolved);
        let steady = [1.0; 5];
        assert_eq!(verdict(&d, &steady, &[0.5; 5]), Verdict::WithinBound);
    }

    #[test]
    fn nine_tenths_of_pairs_and_a_clear_median_gap_is_an_improvement() {
        let d = lower(0.1);
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        // Nine of ten paired runs faster, one outlier slower than every
        // parent run, medians far apart.
        let mut change: Vec<f64> = parent.iter().map(|v| v - 0.05).collect();
        change[9] = 2.0;
        assert_eq!(verdict(&d, &parent, &change), Verdict::Improved);
        // Eight of ten is not enough.
        change[8] = 2.0;
        assert_ne!(verdict(&d, &parent, &change), Verdict::Improved);
    }

    #[test]
    fn set_files_round_trip() {
        let run = |v: f64| RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s".to_owned(), v, "s".to_owned())],
        };
        let set = Set {
            seed: 7,
            seconds: 2.5,
            host_parallelism: 2,
            rustc: "rustc 1.0".to_owned(),
            workloads: vec![WorkloadRuns {
                name: "paper-envelope".to_owned(),
                runs: vec![run(0.1), run(0.2)],
                traced: run(0.3),
            }],
        };
        assert_eq!(Set::parse(&set.to_json()).unwrap(), set);
        assert!(find("setup_s").is_some());
    }
}
