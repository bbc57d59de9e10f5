//! Metric definitions and the result line a run prints.
//!
//! `BENCHMARK.json` at the repository root declares the same metrics; a
//! test keeps the two in step.

use crate::json::{obj, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `value` is than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worse_by(self, base: f64, value: f64) -> f64 {
        let d = (value - base) / base.abs().max(f64::MIN_POSITIVE);
        match self {
            Better::Lower => d,
            Better::Higher => -d,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

impl MetricDef {
    /// True for metrics of the modelled jukebox, which depend only on the
    /// seed.
    pub fn modelled(&self) -> bool {
        self.name.starts_with("sim_") || self.name == "served_frac"
    }
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with tracing off. Host
/// quantities (`setup_s`, `req_per_host_s`, `peak_heap_mb`) are in host
/// units. The `sim_*` metrics and `served_frac` describe the modelled
/// jukebox, with durations in simulated seconds (`sim-s`); they depend
/// only on the seed, so on one seed they repeat exactly.
pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s", Lower, 0.25),
    m("req_per_host_s", "req/s", Higher, 0.2),
    m("peak_heap_mb", "MiB", Lower, 0.05),
    m("sim_throughput_kb_s", "KB/sim-s", Higher, 0.08),
    m("sim_delay_mean_s", "sim-s", Lower, 0.08),
    m("sim_delay_p50_s", "sim-s", Lower, 0.1),
    m("sim_delay_p99_s", "sim-s", Lower, 0.1),
    m("served_frac", "ratio", Higher, 0.02),
];

/// Single layers, from the traced run. Counts and times are per
/// repetition; `*.share` is the part of the traced run's host time (first
/// advancing call to the report) spent in the span itself, children
/// excluded.
pub const PER_LAYER: [MetricDef; 40] = [
    m("layout.build_ms", "ms", Lower, 0.0),
    m("layout.expansion", "ratio", Lower, 0.0),
    m("sched.major.calls", "count", Lower, 0.0),
    m("sched.major.ms", "ms", Lower, 0.0),
    m("sched.major.us_p50", "us", Lower, 0.0),
    m("sched.major.us_p99", "us", Lower, 0.0),
    m("sched.major.share", "ratio", Lower, 0.0),
    m("sched.major.reqs_per_plan", "req", Higher, 0.0),
    m("sched.major.empty_frac", "ratio", Lower, 0.0),
    m("sched.arrival.calls", "count", Lower, 0.0),
    m("sched.arrival.share", "ratio", Lower, 0.0),
    m("sched.arrival.inserted_frac", "ratio", Higher, 0.0),
    m("core.advance.calls", "count", Lower, 0.0),
    m("core.advance.ms", "ms", Lower, 0.0),
    m("core.advance.share", "ratio", Lower, 0.0),
    m("core.submit.calls", "count", Lower, 0.0),
    m("core.submit.share", "ratio", Lower, 0.0),
    m("core.finish.ms", "ms", Lower, 0.0),
    m("core.finish.share", "ratio", Lower, 0.0),
    m("core.self_ms", "ms", Lower, 0.0),
    m("service.retries", "count", Lower, 0.0),
    m("service.rejected", "count", Lower, 0.0),
    m("service.expired", "count", Lower, 0.0),
    m("wb.deltas_flushed", "count", Higher, 0.0),
    m("wb.piggyback_frac", "ratio", Higher, 0.0),
    m("wb.peak_buffer", "count", Lower, 0.0),
    m("wb.write_age_mean_s", "sim-s", Lower, 0.0),
    m("model.switches_per_kreq", "1/kreq", Lower, 0.0),
    m("model.reads_per_req", "ratio", Lower, 0.0),
    m("model.locate_frac", "ratio", Lower, 0.0),
    m("model.read_frac", "ratio", Higher, 0.0),
    m("model.switch_frac", "ratio", Lower, 0.0),
    m("model.idle_frac", "ratio", Lower, 0.0),
    m("model.robot.exchanges", "count", Lower, 0.0),
    m("model.robot.busy_frac", "ratio", Lower, 0.0),
    m("model.faults.media_errors", "count", Lower, 0.0),
    m("model.faults.failovers", "count", Higher, 0.0),
    m("trace.records", "count", Lower, 0.0),
    m("trace.records_per_req", "ratio", Lower, 0.0),
    m("trace.overhead_frac", "ratio", Lower, 0.0),
];

#[cfg(test)]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn to_value(metrics: &[(String, f64, String)]) -> Value {
    obj(metrics.iter().map(|(name, v, unit)| {
        (
            name.clone(),
            obj([
                ("value", Value::Num(*v)),
                ("unit", Value::Str(unit.clone())),
            ]),
        )
    }))
}

/// The last line of a run's output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    /// Simulation repetitions run.
    pub attempted: u64,
    /// Repetitions that errored or failed a correctness gate.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn to_value(&self) -> Value {
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", to_value(&self.metrics)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<RunResult, String> {
        let metrics = v
            .get("metrics")?
            .as_object()?
            .iter()
            .map(|(name, m)| {
                Ok((
                    name.clone(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_owned(),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            metrics,
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 17,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let v = (i as f64 + 0.1) / 3.0 * 1e-3f64.powi(i as i32 % 3);
                    (d.name.to_owned(), v, d.unit.to_owned())
                })
                .collect(),
        }
    }

    #[test]
    fn result_line_round_trips_exactly() {
        let r = sample();
        let line = r.to_value().to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::from_value(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 17, \"failed\": 0, "));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((Lower.worse_by(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worse_by(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(Higher.worse_by(100.0, 120.0) < 0.0);
    }
}
