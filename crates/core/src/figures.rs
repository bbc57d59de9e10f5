//! Figure-level experiment drivers: one function per figure of the
//! paper's evaluation (Section 4), each returning the structured series
//! the figure plots. The `tapesim-bench` binaries print these as CSV,
//! aligned tables, and ASCII plots.
#![expect(
    clippy::cast_precision_loss,
    reason = "sweep grid parameters are small integers"
)]
#![expect(
    clippy::expect_used,
    reason = "figure configurations are static, and the test suite runs every figure"
)]

use tapesim_analysis::{piecewise_fit, LineFit};
use tapesim_layout::{
    expansion_factor, expansion_table, scaled_queue_length, ExpansionRow, LayoutKind, PlacedCatalog,
};
use tapesim_model::synth::{synthesize_locates, LocateSample, NoiseModel};
use tapesim_model::units::mb_f64;
use tapesim_model::validate::{validate_model, ValidationConfig, ValidationReport};
use tapesim_model::{BlockSize, DriveModel, LocateDirection};
use tapesim_sched::{AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
use tapesim_sim::MetricsReport;
use tapesim_workload::ArrivalProcess;

use crate::experiment::{run_with_catalog, ExperimentConfig, Scale};
use crate::par::par_map_indexed;

/// One point of a sweep: the intensity parameter (queue length for closed
/// queuing, mean interarrival seconds for open) and the measured report.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The intensity parameter value.
    pub param: f64,
    /// Seed-averaged metrics at this point.
    pub report: MetricsReport,
}

/// A named series of sweep points (one curve of a figure).
#[derive(Debug, Clone)]
pub struct SweepSeries {
    /// Legend label.
    pub label: String,
    /// Points in parameter order.
    pub points: Vec<SweepPoint>,
}

/// The workload-intensity grid traced out by each parametric curve.
#[derive(Debug, Clone)]
pub enum IntensityGrid {
    /// Closed queuing: fixed queue lengths.
    Closed(Vec<u32>),
    /// Open queuing: mean interarrival times in seconds (descending =
    /// increasing load).
    Open(Vec<u64>),
}

impl IntensityGrid {
    /// The default grid for a scale: the paper's queue lengths (closed) or
    /// a matching range of interarrival times (open).
    pub fn default_for(scale: Scale, open: bool) -> IntensityGrid {
        if open {
            // The jukebox serves roughly one 16 MB request per 30-60 s;
            // these means run from light load to just below saturation.
            IntensityGrid::Open(match scale {
                Scale::Quick => vec![240, 120, 80, 60],
                _ => vec![300, 240, 180, 120, 90, 70, 60],
            })
        } else {
            IntensityGrid::Closed(scale.queue_lengths())
        }
    }

    fn apply(&self, cfg: &ExperimentConfig, idx: usize) -> (f64, ExperimentConfig) {
        match self {
            IntensityGrid::Closed(qs) => (qs[idx] as f64, cfg.clone().with_queue(qs[idx])),
            IntensityGrid::Open(gaps) => (gaps[idx] as f64, cfg.clone().with_open(gaps[idx])),
        }
    }

    fn len(&self) -> usize {
        match self {
            IntensityGrid::Closed(v) => v.len(),
            IntensityGrid::Open(v) => v.len(),
        }
    }
}

/// Sweeps one configuration across an intensity grid, reusing a single
/// catalog build.
pub fn sweep_intensity(
    label: impl Into<String>,
    base: &ExperimentConfig,
    grid: &IntensityGrid,
) -> SweepSeries {
    let placed = base
        .build_catalog()
        .expect("figure configurations are feasible by construction");
    // The points are independent simulations; fan them over the cores.
    let points = par_map_indexed(grid.len(), |i| {
        let (param, cfg) = grid.apply(base, i);
        let (report, _) = run_with_catalog(&cfg, &placed)
            // Static configuration, exercised by the test suite.
            .expect("figure simulation configs are valid");
        SweepPoint { param, report }
    });
    SweepSeries {
        label: label.into(),
        points,
    }
}

/// True when two configurations consume identical placement parameters,
/// i.e. [`ExperimentConfig::build_catalog`] returns the same catalog for
/// both (the build is deterministic in these fields). Lets series that
/// vary only the workload or algorithm share one catalog build.
fn same_placement(a: &ExperimentConfig, b: &ExperimentConfig) -> bool {
    a.geometry == b.geometry
        && a.block == b.block
        && a.layout == b.layout
        && a.replicas == b.replicas
        && a.ph_percent.to_bits() == b.ph_percent.to_bits()
        && a.sp.to_bits() == b.sp.to_bits()
}

/// Sweeps a family of labeled configurations across a shared intensity
/// grid, flattening every (series, point) pair into one parallel map so
/// `all_figures` saturates the cores even when a figure has more series
/// than any series has points. Catalogs are built once per *distinct*
/// placement (figures like 4 and 8 sweep eleven algorithms over one
/// placement).
fn sweep_grid(bases: Vec<(String, ExperimentConfig)>, grid: &IntensityGrid) -> Vec<SweepSeries> {
    let mut catalog_of: Vec<usize> = Vec::with_capacity(bases.len());
    let mut uniq: Vec<usize> = Vec::new();
    for (s, (_, cfg)) in bases.iter().enumerate() {
        match uniq.iter().position(|&u| same_placement(&bases[u].1, cfg)) {
            Some(k) => catalog_of.push(k),
            None => {
                catalog_of.push(uniq.len());
                uniq.push(s);
            }
        }
    }
    let placed: Vec<PlacedCatalog> = par_map_indexed(uniq.len(), |k| {
        bases[uniq[k]]
            .1
            .build_catalog()
            .expect("figure configurations are feasible by construction")
    });
    let pts = grid.len();
    let reports = par_map_indexed(bases.len() * pts, |j| {
        let (s, i) = (j / pts, j % pts);
        let (param, cfg) = grid.apply(&bases[s].1, i);
        let (report, _) = run_with_catalog(&cfg, &placed[catalog_of[s]])
            .expect("figure simulation configs are valid");
        SweepPoint { param, report }
    });
    let mut reports = reports.into_iter();
    bases
        .into_iter()
        .map(|(label, _)| SweepSeries {
            label,
            points: reports.by_ref().take(pts).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 1 and the Section 2.1 validation table
// ---------------------------------------------------------------------

/// The Figure 1 reproduction: synthetic locate measurements (standing in
/// for the paper's 2130 hardware locates) and the piecewise least-squares
/// refit per direction.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// All samples (forward and reverse, including to-BOT locates).
    pub samples: Vec<LocateSample>,
    /// Fit of the forward short/long regimes (to-BOT samples excluded).
    pub forward: (LineFit, LineFit),
    /// Fit of the reverse short/long regimes (to-BOT samples excluded).
    pub reverse: (LineFit, LineFit),
    /// The ground-truth drive model the samples came from.
    pub drive: DriveModel,
}

/// Generates the Figure 1 data: `n` random locates with 1 MB logical
/// blocks on a 7 GB tape, then refits the four locate regimes.
pub fn fig1_locate_model(n: usize, seed: u64) -> Fig1Data {
    let drive = DriveModel::exb8505xl();
    let block = BlockSize::from_mb(1);
    let samples = synthesize_locates(
        &drive,
        block,
        7 * 1024,
        n,
        NoiseModel::locate_default(),
        seed,
    );
    let split = |dir: LocateDirection| -> Vec<(f64, f64)> {
        samples
            .iter()
            .filter(|s| s.direction == dir && !s.to_bot)
            .map(|s| (mb_f64(s.distance_mb), s.measured_s))
            .collect()
    };
    let threshold = mb_f64(drive.locate.short_threshold_mb);
    Fig1Data {
        forward: piecewise_fit(&split(LocateDirection::Forward), threshold),
        reverse: piecewise_fit(&split(LocateDirection::Reverse), threshold),
        samples,
        drive,
    }
}

/// The Section 2.1 random-walk validation (ten walks of 100 locate+read
/// operations), reproducing the reported error table.
pub fn model_validation() -> ValidationReport {
    validate_model(&DriveModel::exb8505xl(), &ValidationConfig::default())
}

// ---------------------------------------------------------------------
// Figures 3-9
// ---------------------------------------------------------------------

/// Figure 3: throughput as a function of the I/O transfer size, one curve
/// per workload intensity. PH-10 RH-40 NR-0 SP-0, dynamic max-bandwidth.
pub fn fig3_transfer_size(scale: Scale, open: bool) -> Vec<SweepSeries> {
    let block_sizes: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
    let grid = IntensityGrid::default_for(scale, open);
    let bases: Vec<ExperimentConfig> = block_sizes
        .iter()
        .map(|&mb| ExperimentConfig {
            block: BlockSize::from_mb(mb),
            ..base_fig3(scale)
        })
        .collect();
    let placed: Vec<PlacedCatalog> = par_map_indexed(bases.len(), |b| {
        // Static configuration, exercised by the test suite.
        bases[b].build_catalog().expect("feasible")
    });
    let pts = grid.len();
    let reports = par_map_indexed(bases.len() * pts, |j| {
        let (b, i) = (j / pts, j % pts);
        let (_, cfg) = grid.apply(&bases[b], i);
        let (report, _) = run_with_catalog(&cfg, &placed[b])
            // Static configuration, exercised by the test suite.
            .expect("figure simulation configs are valid");
        report
    });
    // One series per intensity; the x axis is the block size, so emit
    // the sweep transposed.
    (0..pts)
        .map(|i| {
            let (param, _) = grid.apply(&base_fig3(scale), i);
            SweepSeries {
                label: if open {
                    format!("interarrival {param}s")
                } else {
                    format!("queue {param}")
                },
                points: block_sizes
                    .iter()
                    .enumerate()
                    .map(|(b, &mb)| SweepPoint {
                        param: f64::from(mb),
                        report: reports[b * pts + i].clone(),
                    })
                    .collect(),
            }
        })
        .collect()
}

fn base_fig3(scale: Scale) -> ExperimentConfig {
    ExperimentConfig {
        scale,
        ..ExperimentConfig::paper_baseline()
    }
}

/// Figure 4: throughput/delay parametric curves for the scheduling
/// algorithms with no replication (FIFO, five static, five dynamic).
pub fn fig4_sched_algorithms(scale: Scale, open: bool) -> Vec<SweepSeries> {
    let grid = IntensityGrid::default_for(scale, open);
    let mut algorithms = vec![AlgorithmId::Fifo];
    algorithms.extend(TapeSelectPolicy::ALL.into_iter().map(AlgorithmId::Static));
    algorithms.extend(TapeSelectPolicy::ALL.into_iter().map(AlgorithmId::Dynamic));
    let bases = algorithms
        .into_iter()
        .map(|alg| {
            let base = ExperimentConfig {
                algorithm: alg,
                scale,
                ..ExperimentConfig::paper_baseline()
            };
            (alg.name(), base)
        })
        .collect();
    sweep_grid(bases, &grid)
}

/// Figure 5: hot-data placement with no replication — horizontal layouts
/// at SP in {0, 0.25, 0.5, 0.75, 1} plus the vertical layout. Dynamic
/// max-bandwidth.
pub fn fig5_placement(scale: Scale, open: bool) -> Vec<SweepSeries> {
    let grid = IntensityGrid::default_for(scale, open);
    let mut bases: Vec<(String, ExperimentConfig)> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&sp| {
            let base = ExperimentConfig {
                sp,
                scale,
                ..ExperimentConfig::paper_baseline()
            };
            (format!("horizontal SP-{sp}"), base)
        })
        .collect();
    let vertical = ExperimentConfig {
        layout: LayoutKind::Vertical,
        scale,
        ..ExperimentConfig::paper_baseline()
    };
    bases.push(("vertical".into(), vertical));
    sweep_grid(bases, &grid)
}

/// Figure 6: number of replicas 0..9 (vertical layout, replicas at the
/// tape ends). Dynamic max-bandwidth.
pub fn fig6_replicas(scale: Scale, open: bool) -> Vec<SweepSeries> {
    let grid = IntensityGrid::default_for(scale, open);
    let nrs: &[u32] = match scale {
        Scale::Quick => &[0, 2, 9],
        _ => &[0, 1, 2, 4, 6, 9],
    };
    let bases = nrs
        .iter()
        .map(|&nr| {
            let base = ExperimentConfig {
                layout: LayoutKind::Vertical,
                replicas: nr,
                sp: 1.0,
                scale,
                ..ExperimentConfig::paper_baseline()
            };
            (format!("NR-{nr}"), base)
        })
        .collect();
    sweep_grid(bases, &grid)
}

/// Figure 7: placement of replicas with full replication — SP from the
/// beginning to the end of tape. Dynamic max-bandwidth.
pub fn fig7_replica_placement(scale: Scale, open: bool) -> Vec<SweepSeries> {
    let grid = IntensityGrid::default_for(scale, open);
    let bases = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&sp| {
            let base = ExperimentConfig {
                layout: LayoutKind::Vertical,
                replicas: 9,
                sp,
                scale,
                ..ExperimentConfig::paper_baseline()
            };
            (format!("SP-{sp}"), base)
        })
        .collect();
    sweep_grid(bases, &grid)
}

/// Figure 8: scheduling algorithms with full replication at the tape
/// ends, including the three envelope variants.
pub fn fig8_sched_replication(scale: Scale, open: bool) -> Vec<SweepSeries> {
    let grid = IntensityGrid::default_for(scale, open);
    let mut algorithms = vec![AlgorithmId::Static(TapeSelectPolicy::MaxBandwidth)];
    algorithms.extend(TapeSelectPolicy::ALL.into_iter().map(AlgorithmId::Dynamic));
    algorithms.extend(EnvelopePolicy::ALL.into_iter().map(AlgorithmId::Envelope));
    let bases = algorithms
        .into_iter()
        .map(|alg| {
            let base = ExperimentConfig {
                layout: LayoutKind::Vertical,
                replicas: 9,
                sp: 1.0,
                algorithm: alg,
                scale,
                ..ExperimentConfig::paper_baseline()
            };
            (alg.name(), base)
        })
        .collect();
    sweep_grid(bases, &grid)
}

/// Figure 9: the relationship between skew and performance. RH sweeps
/// 20..80 with PH-10; dotted curves are non-replicated (hot at the
/// beginning), solid curves fully replicated (hot at the end). Best
/// algorithm (max-bandwidth envelope).
pub fn fig9_skew(scale: Scale, open: bool) -> Vec<SweepSeries> {
    let grid = IntensityGrid::default_for(scale, open);
    let mut bases: Vec<(String, ExperimentConfig)> = Vec::new();
    for &rh in &[20.0, 40.0, 60.0, 80.0] {
        for replicated in [false, true] {
            let base = ExperimentConfig {
                rh_percent: rh,
                layout: if replicated {
                    LayoutKind::Vertical
                } else {
                    LayoutKind::Horizontal
                },
                replicas: if replicated { 9 } else { 0 },
                sp: if replicated { 1.0 } else { 0.0 },
                algorithm: AlgorithmId::paper_recommended(),
                scale,
                ..ExperimentConfig::paper_baseline()
            };
            let label = format!(
                "RH-{rh} {}",
                if replicated { "replicated" } else { "no-repl" }
            );
            bases.push((label, base));
        }
    }
    sweep_grid(bases, &grid)
}

// ---------------------------------------------------------------------
// Figure 10: cost-performance
// ---------------------------------------------------------------------

/// One cost-performance measurement: the throughput ratio (per jukebox)
/// of an NR-replica scheme to the non-replicated scheme, with the
/// replicated jukebox's queue scaled down by the expansion factor.
#[derive(Debug, Clone)]
pub struct CostPerfPoint {
    /// Number of replicas.
    pub nr: u32,
    /// Expansion factor `E`.
    pub expansion: f64,
    /// Queue length used for the replicated scheme (`base / E`).
    pub queue: u32,
    /// Throughput of the replicated scheme (KB/s).
    pub throughput: f64,
    /// Cost-performance ratio vs. the NR-0 scheme.
    pub ratio: f64,
}

/// A cost-performance curve for one skew.
#[derive(Debug, Clone)]
pub struct CostPerfSeries {
    /// Percent of requests to hot data.
    pub rh_percent: f64,
    /// Points by number of replicas.
    pub points: Vec<CostPerfPoint>,
}

/// Figure 10(a): the analytic expansion-factor surface.
pub fn fig10a_expansion() -> Vec<ExpansionRow> {
    expansion_table(&[5.0, 10.0, 20.0, 30.0], 9)
}

/// Figure 10(b): cost-performance ratio of replication vs. no
/// replication as NR grows, for several skews. The workload is a closed
/// queue of `base_queue` per jukebox in the non-replicated case and
/// `base_queue / E` in the replicated case (the same total workload
/// spread over `E` times more jukeboxes).
pub fn fig10b_cost_performance(scale: Scale, base_queue: u32) -> Vec<CostPerfSeries> {
    let nrs: &[u32] = match scale {
        Scale::Quick => &[0, 2, 9],
        _ => &[0, 1, 2, 4, 6, 9],
    };
    let rhs = [40.0, 60.0, 80.0, 95.0];
    // Flatten the (rh, nr) grid into one parallel map; the NR-0 baseline
    // each ratio divides by is the first point of its rh chunk, so the
    // ratios are computed after the map from the same measurements the
    // sequential loop used.
    let jobs: Vec<(f64, u32)> = rhs
        .iter()
        .flat_map(|&rh| nrs.iter().map(move |&nr| (rh, nr)))
        .collect();
    // The placement depends only on NR, so one catalog per replica count
    // serves every skew (`rh` only steers the workload).
    let cfg_for = |rh: f64, nr: u32| {
        let e = expansion_factor(nr, 10.0);
        let queue = scaled_queue_length(base_queue, e);
        ExperimentConfig {
            layout: LayoutKind::Vertical,
            replicas: nr,
            sp: 1.0,
            rh_percent: rh,
            algorithm: AlgorithmId::paper_recommended(),
            process: ArrivalProcess::Closed {
                queue_length: queue,
            },
            scale,
            ..ExperimentConfig::paper_baseline()
        }
    };
    let placed: Vec<PlacedCatalog> = par_map_indexed(nrs.len(), |k| {
        // `rhs` is a non-empty literal array.
        cfg_for(rhs[0], nrs[k])
            .build_catalog()
            // Static configuration, exercised by the test suite.
            .expect("feasible")
    });
    let measured: Vec<CostPerfPoint> = par_map_indexed(jobs.len(), |j| {
        let (rh, nr) = jobs[j];
        let e = expansion_factor(nr, 10.0);
        let queue = scaled_queue_length(base_queue, e);
        let cfg = cfg_for(rh, nr);
        let (report, _) = run_with_catalog(&cfg, &placed[j % nrs.len()])
            .expect("figure simulation configs are valid");
        CostPerfPoint {
            nr,
            expansion: e,
            queue,
            throughput: report.throughput_kb_per_s,
            ratio: 0.0,
        }
    });
    measured
        .chunks(nrs.len())
        .zip(rhs)
        .map(|(chunk, rh)| {
            // `chunks(nrs.len())` over `rhs.len() * nrs.len()` jobs yields non-empty chunks.
            debug_assert_eq!(chunk[0].nr, 0, "NR grid starts at 0");
            let base = chunk[0].throughput;
            CostPerfSeries {
                rh_percent: rh,
                points: chunk
                    .iter()
                    .map(|p| CostPerfPoint {
                        ratio: if base > 0.0 { p.throughput / base } else { 0.0 },
                        ..p.clone()
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Sanity alias used by benches: one quick mid-load baseline report.
pub fn baseline_report(scale: Scale) -> MetricsReport {
    let cfg = ExperimentConfig {
        scale,
        ..ExperimentConfig::paper_baseline()
    };
    crate::experiment::run_experiment(&cfg)
        .expect("baseline feasible")
        .report
}
