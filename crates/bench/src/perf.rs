//! The `perf` harness: a dependency-free wall-clock benchmark over a
//! fixed scenario matrix, with a machine-readable report and a baseline
//! regression check (see the `perf` binary).
//!
//! ## Scenario matrix
//!
//! Seven scenarios cover the exposed hot paths:
//!
//! | name                | exercises                                          |
//! |---------------------|----------------------------------------------------|
//! | `engine-fifo`       | the read core on one drive, trivial scheduling     |
//! | `envelope-heavy`    | envelope extension under full replication, NR-9    |
//! | `multi-drive`       | the 4-drive engine, dynamic max-bandwidth          |
//! | `faulted`           | fault injection + replica failover, NR-2           |
//! | `traced-null-sink`  | the traced entry point with a disabled sink        |
//! | `stepped-service`   | the service layer over the stepped core: external  |
//! |                     | submissions, deadlines, retries, transient faults  |
//! | `fleet-scale-serial`| 200 tapes x 8 drives, external burst storm through |
//! |                     | the arrival queue                                  |
//!
//! Each scenario runs `warmup_reps` untimed repetitions followed by
//! `reps` timed ones, all with the same seed; the report carries the
//! median and minimum wall time. Because every run is deterministic, the
//! harness also asserts that the simulated-work counters (`completed`,
//! `physical_reads`) are identical across repetitions and fails loudly
//! if they are not — a free determinism tripwire on every benchmark run.
//!
//! ## `BENCH_PERF.json` schema (version 3)
//!
//! `host_parallelism` is the measuring host's hardware-thread count. Keys
//! are emitted in a fixed, documented order so diffs are stable:
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "scale": "quick",
//!   "warmup_reps": 1,
//!   "reps": 5,
//!   "host_parallelism": 8,
//!   "scenarios": [
//!     {
//!       "name": "engine-fifo",
//!       "median_ms": 1.5,
//!       "min_ms": 1.4,
//!       "sim_seconds": 100000,
//!       "sim_secs_per_wall_sec": 66666666.7,
//!       "completed": 329,
//!       "physical_reads": 329
//!     }
//!   ]
//! }
//! ```
//!
//! Floats are printed with Rust's shortest-round-trip formatting, so
//! parsing the emitted JSON reproduces the exact values. The regression
//! check compares `median_ms` per scenario against a checked-in baseline
//! and fails when any scenario is slower than `baseline * (1 +
//! tolerance)`; wall-clock baselines are machine-specific, so the
//! baseline must be refreshed when the reference machine changes.

use std::time::Instant;

use tapesim::analysis::json::{get, get_f64, get_str, get_u64, JsonValue};
use tapesim::layout::BlockId;
use tapesim::model::FaultConfig;
use tapesim::model::{JukeboxGeometry, Micros, SimTime};
use tapesim::sim::{
    run_multi_drive_traced, AdmissionPolicy, JukeboxService, NullSink, RunSpec, ServiceConfig,
    SimConfig, SimError, SteppedMultiDrive,
};
use tapesim::workload::{ArrivalProcess, BlockSampler, RequestFactory};
use tapesim::{
    layout::LayoutKind, sched::make_scheduler, sched::AlgorithmId, sched::TapeSelectPolicy,
    ExperimentConfig, Scale,
};

/// Version of the emitted JSON schema. Version 3 dropped the
/// per-scenario `workers` key.
pub const SCHEMA_VERSION: u64 = 3;

/// Default regression tolerance: a scenario fails the check when its
/// median is more than 30% slower than the baseline. Wide enough to
/// absorb run-to-run noise on a shared runner, tight enough to catch a
/// hot-path regression of any consequence.
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// Which entry point a scenario is timed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioRoute {
    /// The plain runner ([`tapesim::sim::run_one`]).
    Runner,
    /// [`run_multi_drive_traced`] with a [`NullSink`] (times the traced
    /// entry point; a disabled sink must cost nothing).
    TracedNullSink,
    /// The [`JukeboxService`] layer over the stepped multi-drive core:
    /// a deterministic external submission schedule with deadlines and
    /// capped-backoff retries.
    SteppedService,
    /// The external-mode stepped multi-drive core under a fleet-scale
    /// burst storm (hundreds of tapes, 8 drives).
    FleetScale,
}

/// One benchmark scenario: a named experiment configuration plus the
/// entry point it is timed through.
pub struct ScenarioSpec {
    /// Stable scenario name (a `BENCH_PERF.json` key).
    pub name: &'static str,
    /// The experiment point to run.
    pub cfg: ExperimentConfig,
    /// The entry point this scenario times.
    pub route: ScenarioRoute,
}

/// The fixed scenario matrix at the given scale.
pub fn scenario_matrix(scale: Scale) -> Vec<ScenarioSpec> {
    let baseline = ExperimentConfig {
        scale,
        ..ExperimentConfig::paper_baseline()
    };
    vec![
        ScenarioSpec {
            name: "engine-fifo",
            cfg: ExperimentConfig {
                algorithm: AlgorithmId::Fifo,
                process: ArrivalProcess::Closed { queue_length: 60 },
                ..baseline.clone()
            },
            route: ScenarioRoute::Runner,
        },
        ScenarioSpec {
            name: "envelope-heavy",
            cfg: ExperimentConfig {
                process: ArrivalProcess::Closed { queue_length: 140 },
                scale,
                ..ExperimentConfig::paper_full_replication()
            },
            route: ScenarioRoute::Runner,
        },
        ScenarioSpec {
            name: "multi-drive",
            cfg: ExperimentConfig {
                drives: 4,
                algorithm: AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
                process: ArrivalProcess::Closed { queue_length: 140 },
                ..baseline.clone()
            },
            route: ScenarioRoute::Runner,
        },
        ScenarioSpec {
            name: "faulted",
            cfg: ExperimentConfig {
                layout: LayoutKind::Vertical,
                replicas: 2,
                sp: 1.0,
                algorithm: AlgorithmId::paper_recommended(),
                process: ArrivalProcess::Closed { queue_length: 60 },
                faults: FaultConfig {
                    media_error_per_read: 0.01,
                    media_retries: 1,
                    tape_mtbf: Some(Micros::from_secs(200_000)),
                    tape_mttr: Some(Micros::from_secs(20_000)),
                    ..FaultConfig::NONE
                },
                ..baseline.clone()
            },
            route: ScenarioRoute::Runner,
        },
        ScenarioSpec {
            name: "traced-null-sink",
            cfg: ExperimentConfig {
                algorithm: AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
                process: ArrivalProcess::Closed { queue_length: 140 },
                ..baseline.clone()
            },
            route: ScenarioRoute::TracedNullSink,
        },
        ScenarioSpec {
            name: "stepped-service",
            cfg: ExperimentConfig {
                drives: 2,
                replicas: 1,
                sp: 1.0,
                algorithm: AlgorithmId::paper_recommended(),
                // Transient copy losses make retries worth their while:
                // a failed read heals, so a backed-off resubmission can
                // succeed where the first attempt failed.
                faults: FaultConfig {
                    media_error_per_read: 0.02,
                    copy_heal_mttr: Some(Micros::from_secs(2_000)),
                    ..FaultConfig::NONE
                },
                ..baseline.clone()
            },
            route: ScenarioRoute::SteppedService,
        },
        ScenarioSpec {
            name: "fleet-scale-serial",
            cfg: fleet_scale_config(&baseline),
            route: ScenarioRoute::FleetScale,
        },
    ]
}

/// The fleet-scale experiment point: 200 tapes, 8 drives, no
/// replication. The workload is an external burst storm (see
/// [`run_fleet_scenario`]), so the arrival process here only seeds the
/// factory.
fn fleet_scale_config(baseline: &ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        geometry: JukeboxGeometry::new(200, 3_500),
        drives: 8,
        replicas: 1,
        sp: 1.0,
        // A sweeping scheduler: FIFO serves one request per tape visit,
        // which can never drain a fleet-scale burst before the engine's
        // saturation cutoff ends the run.
        algorithm: AlgorithmId::Static(TapeSelectPolicy::MaxRequests),
        process: ArrivalProcess::Closed { queue_length: 1 },
        ..baseline.clone()
    }
}

/// Drives one repetition of the `fleet-scale-serial` scenario: bursts of
/// external submissions at distinct microsecond ticks (feeding the
/// arrival queue), drained by 8 drives between bursts.
fn run_fleet_scenario(
    cfg: &ExperimentConfig,
    placed: &tapesim::layout::PlacedCatalog,
    sim: &SimConfig,
    seed: u64,
) -> Result<(u64, u64), SimError> {
    let sampler = BlockSampler::from_catalog(&placed.catalog, cfg.rh_percent);
    let mut factory = RequestFactory::new_clustered(sampler, cfg.process, cfg.cluster_run_p, seed);
    let mut scheduler = make_scheduler(cfg.algorithm);
    let mut sink = NullSink;
    let mut engine = SteppedMultiDrive::new_external(
        &placed.catalog,
        &cfg.timing,
        scheduler.as_mut(),
        &mut factory,
        sim,
        cfg.drives,
        &cfg.faults,
        seed,
        &mut sink,
    )?;
    // Seeded SplitMix64 draws concentrated on a small hot tape cluster;
    // every submission lands on its own microsecond tick. Cold blocks are
    // striped round-robin across tapes (ids one tape-count apart share a
    // tape at adjacent slots), so drawing `base + stride * q + r` with a
    // few residues `r` builds long sweeps on a handful of tapes.
    let blocks = u64::from(placed.catalog.num_blocks().max(1));
    let stride = u64::from(placed.catalog.geometry().tapes).max(1);
    // Skip the replicated hot set (~ph% of blocks) so each draw has
    // exactly one copy and sweeps stay single-tape.
    let base = blocks / 10;
    let span = ((blocks - base) / stride).max(1);
    let mut state = seed | 1;
    let mut next_u64 = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let horizon_s = sim.duration.as_micros() / 1_000_000;
    // One 1800-request burst per ~16.7 ks of sim time: 8 drives at
    // roughly one stop per 72 s drain ~1850 requests per gap, so each
    // burst is gone just before the next lands and the pending set never
    // reaches the engine's saturation cutoff.
    let burst_gap_s = 16_666u64.clamp(1, horizon_s.max(1));
    let mut at_s = 0u64;
    while at_s < horizon_s * 9 / 10 {
        let t0 = SimTime::ZERO + Micros::from_secs(at_s);
        for i in 0..1_800u64 {
            let x = next_u64();
            let q = (x >> 8) % span;
            let r = x % 8;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "block ids stay far below 2^32, so the cast is lossless"
            )]
            let block = BlockId(((base + stride * q + r) % blocks) as u32);
            match engine.submit_at(block, t0 + Micros::from_micros(i + 1)) {
                Ok(_) | Err(SimError::Overloaded) => {}
                Err(e) => return Err(e),
            }
        }
        engine.step_until(t0 + Micros::from_secs(burst_gap_s))?;
        let _ = engine.drain_events();
        at_s += burst_gap_s;
    }
    engine.step_until(engine.horizon())?;
    let _ = engine.drain_events();
    let report = engine.finish();
    Ok((report.completed, report.physical_reads))
}

/// Drives one repetition of the `stepped-service` scenario: a seeded
/// bursty submission schedule pushed through [`JukeboxService`] over the
/// external-arrival stepped multi-drive core.
fn run_service_scenario(
    cfg: &ExperimentConfig,
    placed: &tapesim::layout::PlacedCatalog,
    sim: &SimConfig,
    seed: u64,
) -> Result<(u64, u64), SimError> {
    let sampler = BlockSampler::from_catalog(&placed.catalog, cfg.rh_percent);
    let mut factory = RequestFactory::new_clustered(sampler, cfg.process, cfg.cluster_run_p, seed);
    let mut scheduler = make_scheduler(cfg.algorithm);
    let mut sink = NullSink;
    let engine = SteppedMultiDrive::new_external(
        &placed.catalog,
        &cfg.timing,
        scheduler.as_mut(),
        &mut factory,
        sim,
        cfg.drives,
        &cfg.faults,
        seed,
        &mut sink,
    )?;
    let mut svc = JukeboxService::new(
        engine,
        ServiceConfig {
            queue_capacity: 64,
            admission: AdmissionPolicy::ShedOldest,
            deadline: Some(Micros::from_secs(40_000)),
            max_retries: 2,
            backoff_base: Micros::from_secs(60),
            backoff_cap: Micros::from_secs(960),
        },
    )?;
    // Deterministic bursty schedule: 8 submissions every 2000 simulated
    // seconds over the first 90% of the horizon, blocks drawn from a
    // seeded SplitMix64 stream (same generator as the write-back write
    // stream; no ambient randomness).
    let blocks = placed.catalog.num_blocks().max(1);
    let mut state = seed | 1;
    let mut next_u64 = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let horizon_s = sim.duration.as_micros() / 1_000_000;
    let mut at_s = 0u64;
    while at_s < horizon_s * 9 / 10 {
        for j in 0..8u64 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "counters stay far below 2^32, so the cast is lossless"
            )]
            let block = BlockId((next_u64() % u64::from(blocks)) as u32);
            let at = SimTime::ZERO + Micros::from_secs(at_s) + Micros::from_micros(j);
            match svc.submit(block, at) {
                Ok(_) | Err(SimError::Overloaded) => {}
                Err(e) => return Err(e),
            }
        }
        at_s += 2_000;
    }
    let (report, stats) = svc.drain()?;
    if !stats.check_conservation() {
        return Err(SimError::InvalidConfig(
            "service conservation violated in perf scenario",
        ));
    }
    Ok((report.completed, report.physical_reads))
}

/// Runs one scenario repetition and returns its simulated-work counters
/// `(completed, physical_reads)`.
pub fn run_scenario(
    spec: &ScenarioSpec,
    placed: &tapesim::layout::PlacedCatalog,
    sim: &SimConfig,
    seed: u64,
) -> Result<(u64, u64), SimError> {
    let cfg = &spec.cfg;
    let report = match spec.route {
        ScenarioRoute::TracedNullSink => {
            // Mirror the plain runner but through the traced entry point.
            // The scenario injects no faults, so the fault seed is unused.
            let sampler = BlockSampler::from_catalog(&placed.catalog, cfg.rh_percent);
            let mut factory =
                RequestFactory::new_clustered(sampler, cfg.process, cfg.cluster_run_p, seed);
            let mut scheduler = make_scheduler(cfg.algorithm);
            run_multi_drive_traced(
                &placed.catalog,
                &cfg.timing,
                scheduler.as_mut(),
                &mut factory,
                sim,
                cfg.drives,
                &cfg.faults,
                seed,
                &mut NullSink,
            )?
        }
        ScenarioRoute::SteppedService => {
            return run_service_scenario(cfg, placed, sim, seed);
        }
        ScenarioRoute::FleetScale => {
            return run_fleet_scenario(cfg, placed, sim, seed);
        }
        ScenarioRoute::Runner => {
            let spec = RunSpec {
                catalog: &placed.catalog,
                timing: &cfg.timing,
                algorithm: cfg.algorithm,
                process: cfg.process,
                rh_percent: cfg.rh_percent,
                cluster_run_p: cfg.cluster_run_p,
                drives: cfg.drives,
                config: *sim,
                faults: cfg.faults,
            };
            tapesim::sim::run_one(&spec, seed)?
        }
    };
    Ok((report.completed, report.physical_reads))
}

/// Timed results of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Median wall time over the timed repetitions, in milliseconds.
    pub median_ms: f64,
    /// Minimum wall time, in milliseconds.
    pub min_ms: f64,
    /// Simulated horizon of one repetition, in seconds.
    pub sim_seconds: f64,
    /// Simulated seconds advanced per wall-clock second (at the median).
    pub sim_secs_per_wall_sec: f64,
    /// Requests completed in one repetition (identical across reps).
    pub completed: u64,
    /// Physical block reads in one repetition (identical across reps).
    pub physical_reads: u64,
}

/// A full harness report; serializes to `BENCH_PERF.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Scale the matrix ran at (`"quick"`, `"default"`, or `"paper"`).
    pub scale: String,
    /// Untimed repetitions per scenario.
    pub warmup_reps: u64,
    /// Timed repetitions per scenario.
    pub reps: u64,
    /// Hardware threads available on the measuring host, recorded so
    /// wall-clock timings are compared only between like hosts.
    pub host_parallelism: u64,
    /// Per-scenario results, in matrix order.
    pub scenarios: Vec<ScenarioResult>,
}

/// The canonical name of a scale in the report.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Default => "default",
        Scale::Paper => "paper",
    }
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Runs the whole matrix: per scenario, one catalog build, `warmup_reps`
/// untimed repetitions, then `reps` timed ones. Returns an error string
/// (suitable for a CLI) on infeasible configurations, simulation
/// failures, or a determinism violation between repetitions.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness reads host time and host parallelism by design; no simulated quantity depends on them"
)]
pub fn run_matrix(scale: Scale, warmup_reps: u64, reps: u64) -> Result<PerfReport, String> {
    let sim = scale.sim_config();
    // `default_seeds(1)` returns exactly one seed.
    let seed = tapesim::sim::default_seeds(1)[0];
    let reps = reps.max(1);
    let mut scenarios = Vec::new();
    for spec in scenario_matrix(scale) {
        let placed = spec
            .cfg
            .build_catalog()
            .map_err(|e| format!("{}: infeasible placement: {e}", spec.name))?;
        for _ in 0..warmup_reps {
            run_scenario(&spec, &placed, &sim, seed).map_err(|e| format!("{}: {e}", spec.name))?;
        }
        let mut times_ms: Vec<f64> = Vec::new();
        let mut counters: Option<(u64, u64)> = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let c = run_scenario(&spec, &placed, &sim, seed)
                .map_err(|e| format!("{}: {e}", spec.name))?;
            times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match counters {
                None => counters = Some(c),
                Some(prev) if prev != c => {
                    return Err(format!(
                        "{}: nondeterministic repetition: {prev:?} vs {c:?}",
                        spec.name
                    ));
                }
                Some(_) => {}
            }
        }
        times_ms.sort_by(f64::total_cmp);
        let median_ms = median_of_sorted(&times_ms);
        let min_ms = times_ms.first().copied().unwrap_or(0.0);
        let sim_seconds = sim.duration.as_secs_f64();
        let (completed, physical_reads) = counters.unwrap_or((0, 0));
        scenarios.push(ScenarioResult {
            name: spec.name.to_owned(),
            median_ms,
            min_ms,
            sim_seconds,
            sim_secs_per_wall_sec: sim_seconds / (median_ms / 1e3).max(1e-9),
            completed,
            physical_reads,
        });
    }
    Ok(PerfReport {
        schema_version: SCHEMA_VERSION,
        scale: scale_name(scale).to_owned(),
        warmup_reps,
        reps,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        scenarios,
    })
}

// ---------------------------------------------------------------------
// JSON emit
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number. Rust's `Display` for `f64` prints
/// the shortest string that parses back to the same value, so emitted
/// reports round-trip exactly; non-finite values (which valid reports
/// never contain) degrade to 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl PerfReport {
    /// Serializes with the documented stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"scale\": \"{}\",\n", json_escape(&self.scale)));
        out.push_str(&format!("  \"warmup_reps\": {},\n", self.warmup_reps));
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(&s.name)));
            out.push_str(&format!(
                "      \"median_ms\": {},\n",
                json_num(s.median_ms)
            ));
            out.push_str(&format!("      \"min_ms\": {},\n", json_num(s.min_ms)));
            out.push_str(&format!(
                "      \"sim_seconds\": {},\n",
                json_num(s.sim_seconds)
            ));
            out.push_str(&format!(
                "      \"sim_secs_per_wall_sec\": {},\n",
                json_num(s.sim_secs_per_wall_sec)
            ));
            out.push_str(&format!("      \"completed\": {},\n", s.completed));
            out.push_str(&format!("      \"physical_reads\": {}\n", s.physical_reads));
            out.push_str(if i + 1 == self.scenarios.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report emitted by [`PerfReport::to_json`] (or any JSON
    /// with the same fields; unknown keys are ignored).
    pub fn from_json(text: &str) -> Result<PerfReport, String> {
        let v = JsonValue::parse(text)?;
        let obj = v.as_object("report")?;
        let schema_version = get_u64(obj, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
            ));
        }
        let scale = get_str(obj, "scale")?.to_owned();
        let warmup_reps = get_u64(obj, "warmup_reps")?;
        let reps = get_u64(obj, "reps")?;
        let host_parallelism = get_u64(obj, "host_parallelism")?;
        let scenarios = get(obj, "scenarios")?
            .as_array("scenarios")?
            .iter()
            .map(|s| {
                let o = s.as_object("scenario")?;
                Ok(ScenarioResult {
                    name: get_str(o, "name")?.to_owned(),
                    median_ms: get_f64(o, "median_ms")?,
                    min_ms: get_f64(o, "min_ms")?,
                    sim_seconds: get_f64(o, "sim_seconds")?,
                    sim_secs_per_wall_sec: get_f64(o, "sim_secs_per_wall_sec")?,
                    completed: get_u64(o, "completed")?,
                    physical_reads: get_u64(o, "physical_reads")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PerfReport {
            schema_version,
            scale,
            warmup_reps,
            reps,
            host_parallelism,
            scenarios,
        })
    }

    /// Renders the human-readable summary table.
    pub fn to_table(&self) -> tapesim::analysis::Table {
        let mut t = tapesim::analysis::Table::new([
            "scenario",
            "median_ms",
            "min_ms",
            "sim_s/wall_s",
            "completed",
            "reads",
        ]);
        for s in &self.scenarios {
            t.push([
                s.name.clone(),
                tapesim::analysis::fnum(s.median_ms, 3),
                tapesim::analysis::fnum(s.min_ms, 3),
                tapesim::analysis::fnum(s.sim_secs_per_wall_sec, 0),
                s.completed.to_string(),
                s.physical_reads.to_string(),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------
// Regression check
// ---------------------------------------------------------------------

/// One scenario slower than the baseline allows.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Scenario name.
    pub scenario: String,
    /// Baseline median, in milliseconds.
    pub baseline_ms: f64,
    /// Current median, in milliseconds.
    pub current_ms: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

/// Compares `current` against `baseline`: every baseline scenario must
/// be present in `current`, do exactly the baseline's simulated work
/// (`completed` and `physical_reads`), and have a median no more than
/// `(1 + tolerance)` times the baseline median. Returns the scenarios
/// that regressed (empty = pass). A missing scenario or a changed work
/// counter is an error whatever the timing: the counters are exact on
/// any host, so a mismatch means the simulation itself changed and the
/// baseline must be refreshed in the change that moved it.
pub fn compare_to_baseline(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> Result<Vec<Regression>, String> {
    let mut regressions = Vec::new();
    for b in &baseline.scenarios {
        let Some(c) = current.scenarios.iter().find(|c| c.name == b.name) else {
            return Err(format!(
                "scenario '{}' in baseline but not in current run; refresh the baseline",
                b.name
            ));
        };
        for (counter, want, got) in [
            ("completed", b.completed, c.completed),
            ("physical_reads", b.physical_reads, c.physical_reads),
        ] {
            if got != want {
                return Err(format!(
                    "scenario '{}': {counter} is {got} but the baseline has {want}; \
                     the simulated work changed, refresh the baseline",
                    b.name
                ));
            }
        }
        if b.median_ms > 0.0 && c.median_ms > b.median_ms * (1.0 + tolerance) {
            regressions.push(Regression {
                scenario: b.name.clone(),
                baseline_ms: b.median_ms,
                current_ms: c.median_ms,
                ratio: c.median_ms / b.median_ms,
            });
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        PerfReport {
            schema_version: SCHEMA_VERSION,
            scale: "quick".to_owned(),
            warmup_reps: 1,
            reps: 5,
            host_parallelism: 8,
            scenarios: vec![
                ScenarioResult {
                    name: "engine-fifo".to_owned(),
                    median_ms: 1.537,
                    min_ms: 1.101,
                    sim_seconds: 100_000.0,
                    sim_secs_per_wall_sec: 65_061_808.7,
                    completed: 329,
                    physical_reads: 329,
                },
                ScenarioResult {
                    name: "envelope-heavy".to_owned(),
                    median_ms: 2.25,
                    min_ms: 2.0,
                    sim_seconds: 100_000.0,
                    sim_secs_per_wall_sec: 44_444_444.4,
                    completed: 1700,
                    physical_reads: 1658,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample_report();
        let parsed = PerfReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_key_order_is_stable_and_documented() {
        let r = sample_report();
        let a = r.to_json();
        assert_eq!(a, r.to_json(), "emission must be deterministic");
        // Top-level keys in schema order.
        let pos = |key: &str| a.find(&format!("\"{key}\"")).expect(key);
        assert!(pos("schema_version") < pos("scale"));
        assert!(pos("scale") < pos("warmup_reps"));
        assert!(pos("warmup_reps") < pos("reps"));
        assert!(pos("reps") < pos("host_parallelism"));
        assert!(pos("host_parallelism") < pos("scenarios"));
        // Scenario keys in schema order.
        assert!(pos("name") < pos("median_ms"));
        assert!(pos("median_ms") < pos("min_ms"));
        assert!(pos("min_ms") < pos("sim_seconds"));
        assert!(pos("sim_seconds") < pos("sim_secs_per_wall_sec"));
        assert!(pos("sim_secs_per_wall_sec") < pos("completed"));
        assert!(pos("completed") < pos("physical_reads"));
    }

    #[test]
    fn from_json_rejects_other_schema_versions_and_garbage() {
        let mut r = sample_report();
        r.schema_version = SCHEMA_VERSION + 1;
        assert!(PerfReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("schema_version"));
        assert!(PerfReport::from_json("not json").is_err());
        assert!(PerfReport::from_json("{}").is_err());
        assert!(PerfReport::from_json("{\"schema_version\": 2} trailing").is_err());
    }

    #[test]
    fn same_seed_runs_report_identical_work_counters() {
        let sim = SimConfig {
            duration: Micros::from_secs(3_000),
            warmup: Micros::from_secs(500),
            max_pending: 5_000,
        };
        for spec in scenario_matrix(Scale::Quick) {
            let placed = spec.cfg.build_catalog().unwrap();
            let a = run_scenario(&spec, &placed, &sim, 7).unwrap();
            let b = run_scenario(&spec, &placed, &sim, 7).unwrap();
            assert_eq!(a, b, "{} must be deterministic", spec.name);
        }
    }

    /// The exact work-counter half of the `perf --check` gate, in
    /// tier-1: one run of every quick scenario, with the seed and horizon
    /// `run_matrix` uses, must reproduce the checked-in baseline's
    /// `completed` and `physical_reads`. A mismatch means the simulation
    /// changed; refresh `bench/baseline.json` only in a change that
    /// explains why.
    #[test]
    fn quick_matrix_counters_equal_the_baseline() {
        let baseline = PerfReport::from_json(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench/baseline.json"
        )))
        .unwrap();
        assert_eq!(baseline.scale, scale_name(Scale::Quick));
        let sim = Scale::Quick.sim_config();
        let seed = tapesim::sim::default_seeds(1)[0];
        let matrix = scenario_matrix(Scale::Quick);
        assert_eq!(matrix.len(), baseline.scenarios.len());
        for (spec, want) in matrix.iter().zip(&baseline.scenarios) {
            assert_eq!(spec.name, want.name);
            let placed = spec.cfg.build_catalog().unwrap();
            let got = run_scenario(spec, &placed, &sim, seed).unwrap();
            assert_eq!(
                got,
                (want.completed, want.physical_reads),
                "{}: (completed, physical_reads) moved off the baseline",
                spec.name
            );
        }
    }

    #[test]
    fn traced_null_sink_matches_untraced_run() {
        let sim = SimConfig {
            duration: Micros::from_secs(3_000),
            warmup: Micros::from_secs(500),
            max_pending: 5_000,
        };
        let matrix = scenario_matrix(Scale::Quick);
        let traced = matrix
            .iter()
            .find(|s| s.route == ScenarioRoute::TracedNullSink)
            .unwrap();
        let placed = traced.cfg.build_catalog().unwrap();
        let via_trace = run_scenario(traced, &placed, &sim, 11).unwrap();
        let plain = ScenarioSpec {
            name: "plain",
            cfg: traced.cfg.clone(),
            route: ScenarioRoute::Runner,
        };
        let via_runner = run_scenario(&plain, &placed, &sim, 11).unwrap();
        assert_eq!(via_trace, via_runner);
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let base = sample_report();
        let mut cur = base.clone();
        // 20% slower: inside the default 30% tolerance.
        cur.scenarios[0].median_ms = base.scenarios[0].median_ms * 1.2;
        assert!(compare_to_baseline(&cur, &base, DEFAULT_TOLERANCE)
            .unwrap()
            .is_empty());
        // 40% slower: flagged.
        cur.scenarios[0].median_ms = base.scenarios[0].median_ms * 1.4;
        let regs = compare_to_baseline(&cur, &base, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].scenario, "engine-fifo");
        assert!((regs[0].ratio - 1.4).abs() < 1e-9);
        // A faster run whose work counter is off by one is an error.
        let mut off = base.clone();
        off.scenarios[0].median_ms = base.scenarios[0].median_ms * 0.5;
        off.scenarios[0].physical_reads += 1;
        let err = compare_to_baseline(&off, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("engine-fifo") && err.contains("physical_reads"));
        // A scenario missing from the current run is an error.
        cur.scenarios.remove(1);
        assert!(compare_to_baseline(&cur, &base, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median_of_sorted(&[]), 0.0);
        assert_eq!(median_of_sorted(&[3.0]), 3.0);
        assert_eq!(median_of_sorted(&[1.0, 3.0]), 2.0);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 10.0]), 2.0);
    }
}
