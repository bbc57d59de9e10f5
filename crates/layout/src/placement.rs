//! Placement and replication schemes (Sections 4.3-4.5).
//!
//! Two layouts are studied by the paper:
//!
//! * **horizontal** — hot data distributed over all tapes;
//! * **vertical** — hot data collected onto as few tapes as possible
//!   (exactly one tape in the paper's PH-10 configuration).
//!
//! Within a tape, the contiguous region of hot copies (originals and/or
//! replicas) is positioned by the normalized *start position* `SP`:
//! `SP = 0` places it at the beginning of tape, `SP = 1` at the end.
//! Replication stores `NR` extra copies of every hot block, distributed
//! round-robin across the other tapes, at most one copy per tape.
//! Cold data fills the remaining slots.
#![expect(
    clippy::cast_possible_truncation,
    reason = "slot and tape counts are bounded by jukebox geometry"
)]
#![expect(
    clippy::cast_precision_loss,
    reason = "capacity totals stay far below 2^53"
)]

use tapesim_model::{BlockSize, JukeboxGeometry, PhysicalAddr, SlotIndex, TapeId, Topology};

use crate::block::BlockId;
use crate::catalog::{Catalog, CatalogError, StripeInfo};
use crate::expansion::scheme_expansion_factor;

/// Which layout to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Hot data (and replicas) distributed over all tapes.
    Horizontal,
    /// Hot originals packed onto as few tapes as possible; replicas
    /// distributed round-robin across the remaining tapes.
    Vertical,
}

/// How redundant copies of hot data are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementScheme {
    /// `NR` whole-block replicas of every hot block — the paper's scheme
    /// (`E = 1 + NR * PH / 100`).
    Replication {
        /// Number of replicas of each hot block (`NR`).
        nr: u32,
    },
    /// `k + m` erasure-coded shards of every hot block, one shard per
    /// tape on `k + m` distinct tapes; any `k` surviving shards
    /// reconstruct the block (`E = 1 + (PH / 100) * m / k`). Cold blocks
    /// store their `k` data shards contiguously on a single tape (no
    /// parity), so a cold read streams exactly like a whole-block read.
    Erasure {
        /// Data shards per block; must divide the logical block size in
        /// MB.
        k: u8,
        /// Parity shards per hot block.
        m: u8,
    },
}

impl PlacementScheme {
    /// No redundancy: zero replicas.
    pub const NONE: PlacementScheme = PlacementScheme::Replication { nr: 0 };

    /// Physical copies (replication) or shard cells (erasure) stored per
    /// hot block — also the distinct tapes a hot block occupies.
    pub fn copies_per_hot(&self) -> u32 {
        match *self {
            PlacementScheme::Replication { nr } => nr + 1,
            PlacementScheme::Erasure { k, m } => u32::from(k) + u32::from(m),
        }
    }

    /// True for erasure-coded striping.
    pub fn is_erasure(&self) -> bool {
        matches!(self, PlacementScheme::Erasure { .. })
    }
}

/// Parameters of a placement, mirroring the paper's experiment notation:
/// `PH` (percent hot), the redundancy scheme (`NR` replication or `k+m`
/// erasure striping), `SP` (start position).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// Layout of hot originals.
    pub layout: LayoutKind,
    /// Percent of logical blocks that are hot (`PH`), in `[0, 100]`.
    pub ph_percent: f64,
    /// How hot blocks are made redundant.
    pub scheme: PlacementScheme,
    /// Normalized start position of the hot/replica region within each
    /// tape (`SP`), in `[0, 1]`.
    pub sp: f64,
}

impl PlacementConfig {
    /// The paper's moderate-skew baseline: PH-10, NR-0, SP-0, horizontal.
    pub fn paper_baseline() -> Self {
        PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::NONE,
            sp: 0.0,
        }
    }

    /// The paper's best replicated configuration: vertical hot tape, full
    /// replication, replicas at the tape ends (Sections 4.4-4.5).
    pub fn paper_full_replication(geometry: JukeboxGeometry) -> Self {
        PlacementConfig {
            layout: LayoutKind::Vertical,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication {
                nr: geometry.tapes as u32 - 1,
            },
            sp: 1.0,
        }
    }
}

/// Where a hot block's `NR` replicas may live relative to its original's
/// library, for fleet topologies (see [`Topology`]). Irrelevant for
/// single-library topologies, where both scopes coincide with the classic
/// [`build_placement`] assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaScope {
    /// Replicas stay in the original's library: no mount ever pays a
    /// pass-through transfer, but every copy of a hot block competes for
    /// the same library's drives and robot arms.
    InLibrary,
    /// Replicas spread round-robin across the *other* libraries first, so
    /// up to `NR` additional libraries can serve a hot block from local
    /// shelves — trading shelf locality for fleet-wide parallelism.
    CrossLibrary,
}

/// Errors raised while computing a placement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// `NR` exceeds the number of tapes that can hold a distinct copy.
    TooManyReplicas {
        /// Requested number of replicas.
        requested: u32,
        /// Maximum feasible for this geometry/layout.
        max: u32,
    },
    /// Erasure `k + m` exceeds the distinct tapes a stripe can span.
    TooManyShards {
        /// Requested shard count (`k + m`).
        requested: u32,
        /// Maximum distinct tapes available to one stripe.
        max: u32,
    },
    /// The configuration admits no blocks at all.
    NoCapacity,
    /// `PH` or `SP` outside their valid ranges.
    InvalidParameter(&'static str),
    /// A bug-level failure from the catalog builder.
    Catalog(CatalogError),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::TooManyReplicas { requested, max } => {
                write!(f, "requested {requested} replicas; at most {max} feasible")
            }
            PlacementError::TooManyShards { requested, max } => {
                write!(
                    f,
                    "requested {requested} erasure shards per stripe; at most {max} tapes available"
                )
            }
            PlacementError::NoCapacity => write!(f, "no blocks fit this configuration"),
            PlacementError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
            PlacementError::Catalog(e) => write!(f, "catalog error: {e}"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl From<CatalogError> for PlacementError {
    fn from(e: CatalogError) -> Self {
        PlacementError::Catalog(e)
    }
}

/// The result of a placement: the catalog plus summary statistics.
#[derive(Debug, Clone)]
pub struct PlacedCatalog {
    /// The block-to-tape mapping.
    pub catalog: Catalog,
    /// Analytic expansion factor for the scheme (see
    /// [`scheme_expansion_factor`]).
    pub expansion: f64,
    /// Tapes that hold hot originals (one entry for horizontal layouts
    /// means every tape does; listed explicitly for vertical layouts).
    /// For erasure placements: every tape holding a hot shard cell.
    pub hot_tapes: Vec<TapeId>,
    /// The configuration that produced this catalog.
    pub config: PlacementConfig,
}

/// Builds the catalog for a placement configuration, packing as many
/// logical blocks as fit (the paper's simulations always model a full
/// jukebox; replication trades cold capacity for hot copies).
pub fn build_placement(
    geometry: JukeboxGeometry,
    block: BlockSize,
    cfg: PlacementConfig,
) -> Result<PlacedCatalog, PlacementError> {
    validate_config(geometry, block, &cfg)?;
    let slots = geometry.slots_per_tape(block);
    let e = scheme_expansion_factor(cfg.scheme, cfg.ph_percent);
    let upper = logical_upper_bound(geometry, block, cfg.scheme, e);
    let (catalog, hot_tapes) = bisect_largest(upper, |d| match cfg.scheme {
        PlacementScheme::Replication { nr } => try_build(geometry, block, slots, cfg, nr, d),
        PlacementScheme::Erasure { k, m } => {
            try_build_ec(geometry, block, cfg, d, k, m, None, ReplicaScope::InLibrary)
        }
    })?;
    Ok(PlacedCatalog {
        catalog,
        expansion: e,
        hot_tapes,
        config: cfg,
    })
}

/// [`build_placement`] for a fleet [`Topology`]: hot originals are
/// assigned exactly as the classic layouts assign them, but each hot
/// block's `NR` replicas are targeted by `scope` — confined to the
/// original's library, or spread round-robin across the other libraries.
/// For a single-library topology the produced catalog is identical to
/// [`build_placement`] under either scope.
///
/// # Errors
/// Everything [`build_placement`] raises, plus
/// [`PlacementError::TooManyReplicas`] when `NR` exceeds what the scope
/// admits (e.g. in-library replication beyond the smallest library's
/// shelf count) and [`PlacementError::InvalidParameter`] when the
/// topology's shelf total disagrees with the geometry.
pub fn build_fleet_placement(
    geometry: JukeboxGeometry,
    block: BlockSize,
    cfg: PlacementConfig,
    topology: &Topology,
    scope: ReplicaScope,
) -> Result<PlacedCatalog, PlacementError> {
    validate_config(geometry, block, &cfg)?;
    if topology.check_geometry(&geometry).is_err() {
        return Err(PlacementError::InvalidParameter("topology"));
    }
    // With one library there is nothing to cross: both scopes reduce to
    // the classic assignment. Demoting *before* the capacity guard keeps
    // the guard consistent with the scope the build will actually use.
    let scope = if topology.library_count() == 1 {
        ReplicaScope::InLibrary
    } else {
        scope
    };
    if cfg.ph_percent > 0.0 {
        // Every copy (replica or shard cell) of a hot block needs a
        // distinct tape reachable under `scope`: the origin's library for
        // InLibrary, the whole fleet for CrossLibrary.
        let cap = match scope {
            ReplicaScope::InLibrary => topology
                .libraries()
                .iter()
                .map(|l| u32::from(l.tapes))
                .min()
                .unwrap_or(0),
            ReplicaScope::CrossLibrary => geometry.tapes as u32,
        };
        match cfg.scheme {
            PlacementScheme::Replication { nr } if nr + 1 > cap => {
                return Err(PlacementError::TooManyReplicas {
                    requested: nr,
                    max: cap.saturating_sub(1),
                });
            }
            PlacementScheme::Erasure { k, m } if u32::from(k) + u32::from(m) > cap => {
                return Err(PlacementError::TooManyShards {
                    requested: u32::from(k) + u32::from(m),
                    max: cap,
                });
            }
            _ => {}
        }
    }
    let slots = geometry.slots_per_tape(block);
    let e = scheme_expansion_factor(cfg.scheme, cfg.ph_percent);
    let upper = logical_upper_bound(geometry, block, cfg.scheme, e);
    let (catalog, hot_tapes) = bisect_largest(upper, |d| match cfg.scheme {
        PlacementScheme::Replication { nr } => {
            try_build_fleet(geometry, block, slots, cfg, nr, d, topology, scope)
        }
        PlacementScheme::Erasure { k, m } => {
            try_build_ec(geometry, block, cfg, d, k, m, Some(topology), scope)
        }
    })?;
    Ok(PlacedCatalog {
        catalog,
        expansion: e,
        hot_tapes,
        config: cfg,
    })
}

fn validate_config(
    geometry: JukeboxGeometry,
    block: BlockSize,
    cfg: &PlacementConfig,
) -> Result<(), PlacementError> {
    if !(0.0..=100.0).contains(&cfg.ph_percent) || !cfg.ph_percent.is_finite() {
        return Err(PlacementError::InvalidParameter("ph_percent"));
    }
    if !(0.0..=1.0).contains(&cfg.sp) || !cfg.sp.is_finite() {
        return Err(PlacementError::InvalidParameter("sp"));
    }
    match cfg.scheme {
        PlacementScheme::Replication { nr } => {
            // Every hot block has its original on one tape plus NR
            // replicas, each on a distinct other tape.
            let max = geometry.tapes as u32 - 1;
            if nr > max && cfg.ph_percent > 0.0 {
                return Err(PlacementError::TooManyReplicas { requested: nr, max });
            }
        }
        PlacementScheme::Erasure { k, m } => {
            if k == 0 || m == 0 {
                return Err(PlacementError::InvalidParameter(
                    "erasure k and m must be positive",
                ));
            }
            let km = u32::from(k) + u32::from(m);
            if km > 16 {
                return Err(PlacementError::InvalidParameter("erasure k + m exceeds 16"));
            }
            if !block.mb().is_multiple_of(u32::from(k)) {
                return Err(PlacementError::InvalidParameter(
                    "block size not divisible by erasure k",
                ));
            }
            if km > geometry.tapes as u32 && cfg.ph_percent > 0.0 {
                return Err(PlacementError::TooManyShards {
                    requested: km,
                    max: geometry.tapes as u32,
                });
            }
        }
    }
    Ok(())
}

/// Upper bound on the feasible logical block count: jukebox capacity
/// divided by the per-block storage cost (`E` whole blocks for
/// replication, `E * k` shard cells for erasure), padded because
/// hot-count rounding can push the exact bound a block or two either way.
fn logical_upper_bound(
    geometry: JukeboxGeometry,
    block: BlockSize,
    scheme: PlacementScheme,
    e: f64,
) -> u32 {
    let (total, unit) = match scheme {
        PlacementScheme::Replication { .. } => (geometry.total_slots(block), 1.0),
        PlacementScheme::Erasure { k, .. } => (
            geometry.total_slots(shard_size(block, k)),
            f64::from(u32::from(k)),
        ),
    };
    ((total as f64 / (e * unit)).floor() as u64 + 2).min(total) as u32
}

/// Physical cell size of one erasure data shard.
fn shard_size(block: BlockSize, k: u8) -> BlockSize {
    BlockSize::from_mb(block.mb() / u32::from(k))
}

/// Finds the largest `d` in `1..=upper` for which `try_at(d)` succeeds
/// and returns that build, assuming feasibility is downward-closed (if
/// `d` fits, so does `d - 1`). Replaces the former linear walk from the
/// upper bound — O(log upper) rebuilds instead of O(slack) — and returns
/// the identical catalog: both pick the largest feasible `d`, and the
/// build at a given `d` is deterministic. Erasure placements can violate
/// monotonicity by one block in rare SP-rounding corners (a shrinking hot
/// region can split a tape's trailing free run below `k` contiguous
/// cells); the result is then a feasible placement at most one block
/// under the optimum.
fn bisect_largest<T>(
    upper: u32,
    mut try_at: impl FnMut(u32) -> Result<T, TryBuildError>,
) -> Result<T, PlacementError> {
    // Invariant: every count above `hi` is infeasible; `best` holds the
    // build at `lo`, the largest known-feasible count (none yet at 0).
    let mut best: Option<T> = None;
    let mut lo = 0u32;
    let mut hi = upper;
    while lo < hi {
        // Upper midpoint so the range strictly shrinks on success.
        let mid = hi - (hi - lo) / 2;
        match try_at(mid) {
            Ok(v) => {
                best = Some(v);
                lo = mid;
            }
            Err(TryBuildError::DoesNotFit) => hi = mid - 1,
            Err(TryBuildError::Catalog(e)) => return Err(e.into()),
        }
    }
    best.ok_or(PlacementError::NoCapacity)
}

enum TryBuildError {
    DoesNotFit,
    Catalog(CatalogError),
}

impl From<CatalogError> for TryBuildError {
    fn from(e: CatalogError) -> Self {
        TryBuildError::Catalog(e)
    }
}

/// Number of hot blocks for `d` logical blocks at `ph` percent.
fn hot_count_for(d: u32, ph_percent: f64) -> u32 {
    ((d as f64 * ph_percent / 100.0).round() as u32).min(d)
}

fn try_build(
    geometry: JukeboxGeometry,
    block: BlockSize,
    slots: u32,
    cfg: PlacementConfig,
    nr: u32,
    d: u32,
) -> Result<(Catalog, Vec<TapeId>), TryBuildError> {
    let t = geometry.tapes as u32;
    let hot = hot_count_for(d, cfg.ph_percent);
    let nr = if hot == 0 { 0 } else { nr };
    let copies = hot as u64 * (1 + nr) as u64 + (d - hot) as u64;
    if copies > geometry.total_slots(block) {
        return Err(TryBuildError::DoesNotFit);
    }

    // Per-tape list of hot copies (block ids), in block-id order, plus the
    // set of tapes holding hot *originals*.
    let mut hot_on_tape: Vec<Vec<BlockId>> = vec![Vec::new(); t as usize];
    let mut origin_tapes: Vec<bool> = vec![false; t as usize];
    match cfg.layout {
        LayoutKind::Horizontal => {
            for b in 0..hot {
                let origin = b % t;
                origin_tapes[origin as usize] = true;
                hot_on_tape[origin as usize].push(BlockId(b));
                for j in 0..nr {
                    let tape = (origin + 1 + j) % t;
                    hot_on_tape[tape as usize].push(BlockId(b));
                }
            }
        }
        LayoutKind::Vertical => {
            let hot_tapes = hot.div_ceil(slots);
            if hot_tapes >= t && d > hot {
                return Err(TryBuildError::DoesNotFit);
            }
            let remaining = t - hot_tapes;
            if nr > remaining {
                // Cannot give each replica a distinct non-hot tape.
                return Err(TryBuildError::DoesNotFit);
            }
            for b in 0..hot {
                let origin = b / slots;
                origin_tapes[origin as usize] = true;
                hot_on_tape[origin as usize].push(BlockId(b));
                for j in 0..nr {
                    let tape = hot_tapes + (b * nr + j) % remaining;
                    hot_on_tape[tape as usize].push(BlockId(b));
                }
            }
        }
    }

    // Hot copies are placed in one contiguous region per tape, positioned
    // by SP; they must each fit on their tape.
    for copies in &hot_on_tape {
        if copies.len() as u32 > slots {
            return Err(TryBuildError::DoesNotFit);
        }
    }

    let mut builder = Catalog::builder(geometry, block, d, hot);
    let mut free: Vec<Vec<SlotIndex>> = Vec::with_capacity(t as usize);
    for (tape_idx, copies) in hot_on_tape.iter().enumerate() {
        let len = copies.len() as u32;
        let start = region_start(cfg.sp, len, slots);
        for (i, &b) in copies.iter().enumerate() {
            builder.place(
                b,
                PhysicalAddr {
                    tape: TapeId(tape_idx as u16),
                    slot: SlotIndex(start + i as u32),
                },
            )?;
        }
        // Remaining slots on this tape, ascending, are available for cold.
        let mut f: Vec<SlotIndex> = (0..start)
            .chain(start + len..slots)
            .map(SlotIndex)
            .collect();
        f.reverse(); // use as a stack popping the lowest slot first
        free.push(f);
    }

    place_cold_round_robin(&mut builder, geometry, slots, &mut free, hot, d, cfg.layout)?;
    let catalog = builder.build().map_err(TryBuildError::Catalog)?;
    let hot_tapes = origin_tapes
        .iter()
        .enumerate()
        .filter_map(|(i, &is_origin)| is_origin.then_some(TapeId(i as u16)))
        .collect();
    Ok((catalog, hot_tapes))
}

#[expect(
    clippy::too_many_arguments,
    reason = "placement knobs are irreducible here"
)]
fn try_build_fleet(
    geometry: JukeboxGeometry,
    block: BlockSize,
    slots: u32,
    cfg: PlacementConfig,
    nr: u32,
    d: u32,
    topology: &Topology,
    scope: ReplicaScope,
) -> Result<(Catalog, Vec<TapeId>), TryBuildError> {
    let t = geometry.tapes as u32;
    let hot = hot_count_for(d, cfg.ph_percent);
    let nr = if hot == 0 { 0 } else { nr };
    let copies = hot as u64 * (1 + nr) as u64 + (d - hot) as u64;
    if copies > geometry.total_slots(block) {
        return Err(TryBuildError::DoesNotFit);
    }
    let hot_prefix = match cfg.layout {
        LayoutKind::Horizontal => 0,
        LayoutKind::Vertical => hot.div_ceil(slots),
    };
    if cfg.layout == LayoutKind::Vertical && hot_prefix >= t && d > hot {
        return Err(TryBuildError::DoesNotFit);
    }

    let mut hot_on_tape: Vec<Vec<BlockId>> = vec![Vec::new(); t as usize];
    let mut origin_tapes: Vec<bool> = vec![false; t as usize];
    for b in 0..hot {
        // Origins are assigned exactly as the classic layouts assign
        // them; only replica targets differ by scope.
        let origin = match cfg.layout {
            LayoutKind::Horizontal => b % t,
            LayoutKind::Vertical => b / slots,
        };
        origin_tapes[origin as usize] = true;
        hot_on_tape[origin as usize].push(BlockId(b));
        if nr == 0 {
            continue;
        }
        let ring = replica_ring(topology, scope, cfg.layout, origin, b, nr, hot_prefix);
        if (ring.len() as u32) < nr {
            return Err(TryBuildError::DoesNotFit);
        }
        for &tape in ring.iter().take(nr as usize) {
            hot_on_tape[tape as usize].push(BlockId(b));
        }
    }

    for copies in &hot_on_tape {
        if copies.len() as u32 > slots {
            return Err(TryBuildError::DoesNotFit);
        }
    }

    let mut builder = Catalog::builder(geometry, block, d, hot);
    let mut free: Vec<Vec<SlotIndex>> = Vec::with_capacity(t as usize);
    for (tape_idx, copies) in hot_on_tape.iter().enumerate() {
        let len = copies.len() as u32;
        let start = region_start(cfg.sp, len, slots);
        for (i, &b) in copies.iter().enumerate() {
            builder.place(
                b,
                PhysicalAddr {
                    tape: TapeId(tape_idx as u16),
                    slot: SlotIndex(start + i as u32),
                },
            )?;
        }
        let mut f: Vec<SlotIndex> = (0..start)
            .chain(start + len..slots)
            .map(SlotIndex)
            .collect();
        f.reverse();
        free.push(f);
    }

    place_cold_round_robin(&mut builder, geometry, slots, &mut free, hot, d, cfg.layout)?;
    let catalog = builder.build().map_err(TryBuildError::Catalog)?;
    let hot_tapes = origin_tapes
        .iter()
        .enumerate()
        .filter_map(|(i, &is_origin)| is_origin.then_some(TapeId(i as u16)))
        .collect();
    Ok((catalog, hot_tapes))
}

/// Replica target tapes for hot block `b` whose original sits on
/// `origin`, in assignment order: replica `j` lands on the `j`-th entry.
/// Entries are distinct tapes, never the origin, and (for vertical
/// layouts) never a hot-prefix tape. A result shorter than `nr` means the
/// scope cannot host that many distinct copies.
fn replica_ring(
    topology: &Topology,
    scope: ReplicaScope,
    layout: LayoutKind,
    origin: u32,
    b: u32,
    nr: u32,
    hot_prefix: u32,
) -> Vec<u32> {
    let lib = u32::from(topology.library_of_tape(TapeId(origin as u16)));
    let l = u32::from(topology.library_count());
    let lib_tapes = |i: u32| -> u32 {
        topology
            .libraries()
            .get(i as usize)
            .map_or(0, |x| u32::from(x.tapes))
    };
    let base = |i: u32| u32::from(topology.tape_base(i as u16));
    match scope {
        ReplicaScope::InLibrary => {
            let (lo, n) = (base(lib), lib_tapes(lib));
            match layout {
                // Rotate within the library starting just after the
                // origin — the classic `(origin + 1 + j) % T`, confined.
                LayoutKind::Horizontal => (1..n).map(|k| lo + ((origin - lo) + k) % n).collect(),
                // The classic round-robin over non-hot tapes, confined to
                // the origin's library.
                LayoutKind::Vertical => {
                    let avail: Vec<u32> = (lo..lo + n).filter(|&x| x >= hot_prefix).collect();
                    let len = avail.len() as u32;
                    if len < nr {
                        return Vec::new();
                    }
                    (0..nr)
                        .map(|j| avail[((b * nr + j) % len) as usize])
                        .collect()
                }
            }
        }
        ReplicaScope::CrossLibrary => {
            // Breadth-first over the *other* libraries (then the origin's
            // own, last), one tape per library per pass, rotating within
            // each library by the block id so replicas spread over its
            // shelves. Each (library, tape) pair appears exactly once, so
            // entries are distinct.
            let max_n = (0..l).map(lib_tapes).max().unwrap_or(0);
            let mut ring = Vec::new();
            for pass in 0..max_n {
                for k in 1..=l {
                    let tl = (lib + k) % l;
                    let n_t = lib_tapes(tl);
                    if pass >= n_t {
                        continue;
                    }
                    let tape = base(tl) + (b + pass) % n_t;
                    if tape == origin || tape < hot_prefix {
                        continue;
                    }
                    ring.push(tape);
                }
            }
            ring
        }
    }
}

/// Builds an erasure-striped catalog: its "blocks" are shard *cells* of
/// `block.mb() / k` MB (see [`StripeInfo`]). Hot logical block `h` stores
/// `k + m` cells on that many distinct tapes, chosen by layout and scope;
/// cold logical block `c` stores its `k` data cells contiguously on one
/// tape, so a cold read streams exactly like a whole-block read.
#[expect(
    clippy::too_many_arguments,
    reason = "placement knobs are irreducible here"
)]
fn try_build_ec(
    geometry: JukeboxGeometry,
    block: BlockSize,
    cfg: PlacementConfig,
    d: u32,
    k: u8,
    m: u8,
    topology: Option<&Topology>,
    scope: ReplicaScope,
) -> Result<(Catalog, Vec<TapeId>), TryBuildError> {
    let t = geometry.tapes as u32;
    let km = u32::from(k) + u32::from(m);
    let kk = u32::from(k);
    let shard = shard_size(block, k);
    let slots = geometry.slots_per_tape(shard);
    let hot = hot_count_for(d, cfg.ph_percent);
    let cells = u64::from(hot) * u64::from(km) + u64::from(d - hot) * u64::from(kk);
    if cells > geometry.total_slots(shard) {
        return Err(TryBuildError::DoesNotFit);
    }

    // Per-tape list of hot shard cells, in cell-id order.
    let mut hot_on_tape: Vec<Vec<BlockId>> = vec![Vec::new(); t as usize];
    let mut is_hot_tape = vec![false; t as usize];
    for h in 0..hot {
        let tapes = stripe_tapes(cfg.layout, scope, topology, t, slots, km, h)?;
        debug_assert_eq!(tapes.len() as u32, km);
        for (j, &tape) in tapes.iter().enumerate() {
            hot_on_tape[tape as usize].push(BlockId(h * km + j as u32));
            is_hot_tape[tape as usize] = true;
        }
    }

    // Hot cells occupy one contiguous region per tape, positioned by SP.
    let hot_cells = hot * km;
    let mut builder = Catalog::builder(geometry, shard, cells as u32, hot_cells);
    builder.set_stripe(StripeInfo {
        k,
        m,
        logical_blocks: d,
        logical_hot: hot,
    });
    // Per tape, the ascending free runs `[lo, hi)` left around the hot
    // region; cold blocks carve `k`-cell pieces off them.
    let mut runs: Vec<Vec<(u32, u32)>> = Vec::with_capacity(t as usize);
    for (tape_idx, cells_here) in hot_on_tape.iter().enumerate() {
        let len = cells_here.len() as u32;
        if len > slots {
            return Err(TryBuildError::DoesNotFit);
        }
        let start = region_start(cfg.sp, len, slots);
        for (i, &cell) in cells_here.iter().enumerate() {
            builder.place(
                cell,
                PhysicalAddr {
                    tape: TapeId(tape_idx as u16),
                    slot: SlotIndex(start + i as u32),
                },
            )?;
        }
        runs.push(vec![(0, start), (start + len, slots)]);
    }

    // Cold blocks round-robin over tapes; each takes `k` contiguous
    // cells. Vertical visits stripe-free tapes first, like the classic
    // hot/cold separation.
    let order: Vec<usize> = match cfg.layout {
        LayoutKind::Horizontal => (0..t as usize).collect(),
        LayoutKind::Vertical => (0..t as usize)
            .filter(|&i| !is_hot_tape[i])
            .chain((0..t as usize).filter(|&i| is_hot_tape[i]))
            .collect(),
    };
    let mut cursor = 0usize;
    for c in hot..d {
        let first_cell = hot_cells + (c - hot) * kk;
        let mut placed = false;
        for step in 0..order.len() {
            let tape_idx = order[(cursor + step) % order.len()];
            if let Some(slot0) = take_run(&mut runs[tape_idx], kk) {
                for j in 0..kk {
                    builder.place(
                        BlockId(first_cell + j),
                        PhysicalAddr {
                            tape: TapeId(tape_idx as u16),
                            slot: SlotIndex(slot0 + j),
                        },
                    )?;
                }
                cursor = (cursor + step + 1) % order.len();
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(TryBuildError::DoesNotFit);
        }
    }
    let catalog = builder.build().map_err(TryBuildError::Catalog)?;
    let hot_tapes = is_hot_tape
        .iter()
        .enumerate()
        .filter_map(|(i, &h)| h.then_some(TapeId(i as u16)))
        .collect();
    Ok((catalog, hot_tapes))
}

/// Takes the `need` lowest contiguous cells from a tape's free runs,
/// returning the first slot, or `None` when no run is long enough (runs
/// shorter than `need` stay as unusable fragments — at most `need - 1`
/// cells each).
fn take_run(runs: &mut [(u32, u32)], need: u32) -> Option<u32> {
    for (lo, hi) in runs.iter_mut() {
        if *hi - *lo >= need {
            let s = *lo;
            *lo += need;
            return Some(s);
        }
    }
    None
}

/// The `km` distinct tapes hosting hot stripe `h`'s shard cells, in shard
/// order. `topology == None` means the classic single jukebox.
fn stripe_tapes(
    layout: LayoutKind,
    scope: ReplicaScope,
    topology: Option<&Topology>,
    t: u32,
    slots: u32,
    km: u32,
    h: u32,
) -> Result<Vec<u32>, TryBuildError> {
    if let (Some(topo), ReplicaScope::CrossLibrary) = (topology, scope) {
        let l = u32::from(topo.library_count());
        let lib_tapes = |i: u32| -> u32 {
            topo.libraries()
                .get(i as usize)
                .map_or(0, |x| u32::from(x.tapes))
        };
        let base = |i: u32| u32::from(topo.tape_base(i as u16));
        let max_n = (0..l).map(lib_tapes).max().unwrap_or(0);
        return match layout {
            LayoutKind::Horizontal => {
                // Breadth-first over libraries starting at the one owning
                // tape `h % t`: one shard per library per pass, rotated
                // within each library by the stripe id. Distinct because
                // each (library, pass) pair contributes at most one tape.
                let lib0 = u32::from(topo.library_of_tape(TapeId((h % t) as u16)));
                let mut tapes = Vec::with_capacity(km as usize);
                'outer: for pass in 0..max_n {
                    for i in 0..l {
                        let tl = (lib0 + i) % l;
                        let n_t = lib_tapes(tl);
                        if pass >= n_t {
                            continue;
                        }
                        tapes.push(base(tl) + (h + pass) % n_t);
                        if tapes.len() as u32 == km {
                            break 'outer;
                        }
                    }
                }
                if (tapes.len() as u32) < km {
                    return Err(TryBuildError::DoesNotFit);
                }
                Ok(tapes)
            }
            LayoutKind::Vertical => {
                // Groups of `km` tapes chosen breadth-first across
                // libraries, so every stripe spans as many libraries as
                // it can while hot data still packs onto few tapes. Each
                // group hosts `slots` stripes before the next opens.
                let mut order = Vec::with_capacity(t as usize);
                for pass in 0..max_n {
                    for i in 0..l {
                        if pass < lib_tapes(i) {
                            order.push(base(i) + pass);
                        }
                    }
                }
                let g = (h / slots) as usize;
                order
                    .chunks_exact(km as usize)
                    .nth(g)
                    .map(<[u32]>::to_vec)
                    .ok_or(TryBuildError::DoesNotFit)
            }
        };
    }
    // Classic jukebox, or in-library fleet scope: the stripe stays inside
    // one library (the whole jukebox when there is no topology).
    let libs: Vec<(u32, u32)> = match topology {
        None => vec![(0, t)],
        Some(topo) => (0..topo.library_count())
            .map(|i| {
                (
                    u32::from(topo.tape_base(i)),
                    u32::from(topo.libraries()[i as usize].tapes),
                )
            })
            .collect(),
    };
    match layout {
        LayoutKind::Horizontal => {
            // The classic rotating window `(origin + j) % n`, confined to
            // the library owning tape `h % t`.
            let origin = h % t;
            let (lo, n) = libs
                .iter()
                .copied()
                .find(|&(lo, n)| origin >= lo && origin < lo + n)
                .ok_or(TryBuildError::DoesNotFit)?;
            if km > n {
                return Err(TryBuildError::DoesNotFit);
            }
            Ok((0..km).map(|j| lo + ((origin - lo) + j) % n).collect())
        }
        LayoutKind::Vertical => {
            // Contiguous groups of `km` tapes, library by library (never
            // spanning one); each group hosts `slots` stripes — its tapes
            // fill completely — before the next opens.
            let mut groups = Vec::new();
            for (lo, n) in libs {
                for q in 0..n / km {
                    groups.push(lo + q * km);
                }
            }
            let g = (h / slots) as usize;
            let base = *groups.get(g).ok_or(TryBuildError::DoesNotFit)?;
            Ok((base..base + km).collect())
        }
    }
}

/// Start slot of a contiguous region of `len` copies on a tape of `slots`
/// slots, for normalized position `sp` (0 = beginning, 1 = end).
pub(crate) fn region_start(sp: f64, len: u32, slots: u32) -> u32 {
    debug_assert!(len <= slots);
    ((slots - len) as f64 * sp).round() as u32
}

/// Distributes cold blocks round-robin over tape free lists. For vertical
/// layouts, tapes holding hot originals are used only after all other
/// tapes are full, preserving the paper's hot/cold separation.
fn place_cold_round_robin(
    builder: &mut crate::catalog::CatalogBuilder,
    geometry: JukeboxGeometry,
    slots: u32,
    free: &mut [Vec<SlotIndex>],
    hot: u32,
    d: u32,
    layout: LayoutKind,
) -> Result<(), TryBuildError> {
    let t = geometry.tapes as usize;
    // Tape visit order for cold data.
    let order: Vec<usize> = match layout {
        LayoutKind::Horizontal => (0..t).collect(),
        LayoutKind::Vertical => {
            // Non-hot tapes first (hot originals are packed onto a prefix
            // of tapes), then hot tapes as spill.
            let hot_tapes = hot.div_ceil(slots) as usize;
            (hot_tapes..t).chain(0..hot_tapes).collect()
        }
    };
    let mut cursor = 0usize;
    for b in hot..d {
        let mut placed = false;
        for step in 0..order.len() {
            let tape_idx = order[(cursor + step) % order.len()];
            if let Some(slot) = free[tape_idx].pop() {
                builder.place(
                    BlockId(b),
                    PhysicalAddr {
                        tape: TapeId(tape_idx as u16),
                        slot,
                    },
                )?;
                cursor = (cursor + step + 1) % order.len();
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(TryBuildError::DoesNotFit);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Heat;

    const B16: BlockSize = BlockSize::PAPER_DEFAULT;

    fn paper_geom() -> JukeboxGeometry {
        JukeboxGeometry::PAPER_DEFAULT
    }

    #[test]
    fn region_start_positions() {
        assert_eq!(region_start(0.0, 10, 100), 0);
        assert_eq!(region_start(1.0, 10, 100), 90);
        assert_eq!(region_start(0.5, 10, 100), 45);
        assert_eq!(region_start(0.5, 100, 100), 0);
    }

    #[test]
    fn paper_baseline_fills_jukebox_exactly() {
        // PH-10, NR-0: no replication, so every slot holds a distinct block.
        let placed = build_placement(paper_geom(), B16, PlacementConfig::paper_baseline()).unwrap();
        let c = &placed.catalog;
        assert_eq!(c.num_blocks(), 4480);
        assert_eq!(c.hot_count(), 448);
        assert_eq!(c.total_copies(), 4480);
        for t in paper_geom().tape_ids() {
            assert_eq!(c.occupied_slots(t), 448);
        }
        assert!((placed.expansion - 1.0).abs() < 1e-12);
    }

    #[test]
    fn horizontal_spreads_hot_evenly() {
        let placed = build_placement(paper_geom(), B16, PlacementConfig::paper_baseline()).unwrap();
        let c = &placed.catalog;
        for t in paper_geom().tape_ids() {
            let hot_here = c
                .tape_contents(t)
                .filter(|&(_, b)| c.heat(b) == Heat::Hot)
                .count();
            assert_eq!(hot_here, 44 + usize::from(t.0 < 8)); // 448 over 10 tapes
        }
        assert_eq!(placed.hot_tapes.len(), 10);
    }

    #[test]
    fn sp_zero_places_hot_at_beginning() {
        let placed = build_placement(paper_geom(), B16, PlacementConfig::paper_baseline()).unwrap();
        let c = &placed.catalog;
        // First slots of tape 0 are hot.
        let first: Vec<_> = c.tape_contents(TapeId(0)).take(5).collect();
        for (slot, b) in first {
            assert!(slot.0 < 45);
            assert_eq!(c.heat(b), Heat::Hot);
        }
    }

    #[test]
    fn sp_one_places_hot_at_end() {
        let cfg = PlacementConfig {
            sp: 1.0,
            ..PlacementConfig::paper_baseline()
        };
        let placed = build_placement(paper_geom(), B16, cfg).unwrap();
        let c = &placed.catalog;
        for t in paper_geom().tape_ids() {
            let hot_slots: Vec<u32> = c
                .tape_contents(t)
                .filter(|&(_, b)| c.heat(b) == Heat::Hot)
                .map(|(s, _)| s.0)
                .collect();
            assert!(!hot_slots.is_empty());
            assert!(
                hot_slots.iter().all(|&s| s >= 448 - 45),
                "hot not at end of {t}: {hot_slots:?}"
            );
        }
    }

    #[test]
    fn full_replication_vertical_matches_hand_count() {
        // Worked out by hand: T=10, S=448, NR=9, PH=10 => D=2356, H=236,
        // copies = 236*10 + 2120 = 4480 (jukebox exactly full).
        let cfg = PlacementConfig::paper_full_replication(paper_geom());
        let placed = build_placement(paper_geom(), B16, cfg).unwrap();
        let c = &placed.catalog;
        assert_eq!(c.num_blocks(), 2356);
        assert_eq!(c.hot_count(), 236);
        assert_eq!(c.total_copies(), 4480);
        // Every hot block has a copy on every tape.
        for b in 0..c.hot_count() {
            assert_eq!(c.replicas(BlockId(b)).len(), 10);
        }
        // Hot originals all on tape 0.
        assert_eq!(placed.hot_tapes, vec![TapeId(0)]);
        assert!((placed.expansion - 1.9).abs() < 1e-12);
    }

    #[test]
    fn vertical_replicas_at_tape_end_when_sp_one() {
        let cfg = PlacementConfig::paper_full_replication(paper_geom());
        let placed = build_placement(paper_geom(), B16, cfg).unwrap();
        let c = &placed.catalog;
        // On a non-hot tape, the 236 replicas occupy the last 236 slots.
        for t in 1..10u16 {
            let hot_slots: Vec<u32> = c
                .tape_contents(TapeId(t))
                .filter(|&(_, b)| c.heat(b) == Heat::Hot)
                .map(|(s, _)| s.0)
                .collect();
            assert_eq!(hot_slots.len(), 236);
            assert_eq!(*hot_slots.first().unwrap(), 448 - 236);
            assert_eq!(*hot_slots.last().unwrap(), 447);
        }
    }

    #[test]
    fn partial_replication_counts() {
        let cfg = PlacementConfig {
            layout: LayoutKind::Vertical,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 2 },
            sp: 1.0,
        };
        let placed = build_placement(paper_geom(), B16, cfg).unwrap();
        let c = &placed.catalog;
        for b in 0..c.hot_count() {
            assert_eq!(c.replicas(BlockId(b)).len(), 3, "original + 2 replicas");
        }
        for b in c.hot_count()..c.num_blocks() {
            assert_eq!(c.replicas(BlockId(b)).len(), 1);
        }
        // Capacity is nearly fully used (within a couple of slots of 4480).
        assert!(c.total_copies() >= 4478, "copies = {}", c.total_copies());
    }

    #[test]
    fn horizontal_full_replication_feasible() {
        let cfg = PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 9 },
            sp: 1.0,
        };
        let placed = build_placement(paper_geom(), B16, cfg).unwrap();
        let c = &placed.catalog;
        for b in 0..c.hot_count() {
            assert_eq!(c.replicas(BlockId(b)).len(), 10);
        }
        assert!(c.total_copies() >= 4470);
    }

    #[test]
    fn too_many_replicas_rejected() {
        let cfg = PlacementConfig {
            scheme: PlacementScheme::Replication { nr: 10 },
            ..PlacementConfig::paper_baseline()
        };
        assert_eq!(
            build_placement(paper_geom(), B16, cfg).unwrap_err(),
            PlacementError::TooManyReplicas {
                requested: 10,
                max: 9
            }
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let bad_ph = PlacementConfig {
            ph_percent: 101.0,
            ..PlacementConfig::paper_baseline()
        };
        assert!(matches!(
            build_placement(paper_geom(), B16, bad_ph).unwrap_err(),
            PlacementError::InvalidParameter("ph_percent")
        ));
        let bad_sp = PlacementConfig {
            sp: 1.5,
            ..PlacementConfig::paper_baseline()
        };
        assert!(matches!(
            build_placement(paper_geom(), B16, bad_sp).unwrap_err(),
            PlacementError::InvalidParameter("sp")
        ));
    }

    #[test]
    fn zero_percent_hot_is_all_cold() {
        let cfg = PlacementConfig {
            ph_percent: 0.0,
            scheme: PlacementScheme::Replication { nr: 5 },
            ..PlacementConfig::paper_baseline()
        };
        let placed = build_placement(paper_geom(), B16, cfg).unwrap();
        assert_eq!(placed.catalog.hot_count(), 0);
        assert_eq!(placed.catalog.num_blocks(), 4480);
    }

    #[test]
    fn five_tape_geometry_works() {
        let cfg = PlacementConfig {
            layout: LayoutKind::Vertical,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 4 },
            sp: 1.0,
        };
        let placed = build_placement(JukeboxGeometry::FIVE_TAPE, B16, cfg).unwrap();
        let c = &placed.catalog;
        assert!(c.num_blocks() > 0);
        for b in 0..c.hot_count() {
            assert_eq!(c.replicas(BlockId(b)).len(), 5);
        }
    }

    fn paper_topology(libraries: u16, tapes_each: u16) -> Topology {
        Topology::uniform(
            libraries,
            1,
            1,
            tapes_each,
            tapesim_model::RobotModel::exb210(),
            tapesim_model::InterLibraryModel::DEFAULT,
        )
        .unwrap()
    }

    /// Compares two catalogs copy for copy.
    fn same_catalog(a: &Catalog, b: &Catalog) -> bool {
        a.num_blocks() == b.num_blocks()
            && (0..a.num_blocks()).all(|i| a.replicas(BlockId(i)) == b.replicas(BlockId(i)))
    }

    #[test]
    fn single_library_fleet_matches_classic_placement() {
        let topo = paper_topology(1, 10);
        for layout in [LayoutKind::Horizontal, LayoutKind::Vertical] {
            for scope in [ReplicaScope::InLibrary, ReplicaScope::CrossLibrary] {
                let cfg = PlacementConfig {
                    layout,
                    ph_percent: 10.0,
                    scheme: PlacementScheme::Replication { nr: 3 },
                    sp: 1.0,
                };
                let classic = build_placement(paper_geom(), B16, cfg).unwrap();
                let fleet = build_fleet_placement(paper_geom(), B16, cfg, &topo, scope).unwrap();
                assert!(
                    same_catalog(&classic.catalog, &fleet.catalog),
                    "{layout:?}/{scope:?} diverged from build_placement"
                );
                assert_eq!(classic.hot_tapes, fleet.hot_tapes);
            }
        }
    }

    #[test]
    fn in_library_replicas_share_the_original_library() {
        let topo = paper_topology(2, 5);
        let cfg = PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 2 },
            sp: 0.0,
        };
        let placed =
            build_fleet_placement(paper_geom(), B16, cfg, &topo, ReplicaScope::InLibrary).unwrap();
        let c = &placed.catalog;
        for b in 0..c.hot_count() {
            let addrs = c.replicas(BlockId(b));
            assert_eq!(addrs.len(), 3);
            let libs: Vec<u16> = addrs.iter().map(|a| topo.library_of_tape(a.tape)).collect();
            assert!(
                libs.windows(2).all(|w| w[0] == w[1]),
                "block {b} spread across libraries: {libs:?}"
            );
        }
    }

    #[test]
    fn cross_library_replicas_reach_other_libraries_first() {
        let topo = paper_topology(2, 5);
        let cfg = PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 1 },
            sp: 0.0,
        };
        let placed =
            build_fleet_placement(paper_geom(), B16, cfg, &topo, ReplicaScope::CrossLibrary)
                .unwrap();
        let c = &placed.catalog;
        for b in 0..c.hot_count() {
            let addrs = c.replicas(BlockId(b));
            assert_eq!(addrs.len(), 2);
            let l0 = topo.library_of_tape(addrs[0].tape);
            let l1 = topo.library_of_tape(addrs[1].tape);
            assert_ne!(l0, l1, "block {b}'s only replica stayed in-library");
        }
    }

    #[test]
    fn cross_library_vertical_avoids_hot_prefix_tapes() {
        let topo = paper_topology(2, 5);
        let cfg = PlacementConfig {
            layout: LayoutKind::Vertical,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 3 },
            sp: 1.0,
        };
        let placed =
            build_fleet_placement(paper_geom(), B16, cfg, &topo, ReplicaScope::CrossLibrary)
                .unwrap();
        let c = &placed.catalog;
        // Originals pack the global prefix; replicas never land there.
        let hot_prefix = placed.hot_tapes.iter().map(|t| t.0).max().unwrap();
        for b in 0..c.hot_count() {
            let addrs = c.replicas(BlockId(b));
            assert_eq!(addrs.len(), 4);
            for a in addrs.iter().skip(1) {
                assert!(a.tape.0 > hot_prefix, "replica on hot tape {}", a.tape);
            }
        }
    }

    #[test]
    fn in_library_replication_bounded_by_smallest_library() {
        let topo = paper_topology(2, 5);
        let cfg = PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 5 },
            sp: 0.0,
        };
        assert_eq!(
            build_fleet_placement(paper_geom(), B16, cfg, &topo, ReplicaScope::InLibrary)
                .unwrap_err(),
            PlacementError::TooManyReplicas {
                requested: 5,
                max: 4
            }
        );
        // Cross-library scope can host the same NR.
        assert!(
            build_fleet_placement(paper_geom(), B16, cfg, &topo, ReplicaScope::CrossLibrary)
                .is_ok()
        );
    }

    #[test]
    fn fleet_topology_must_match_geometry() {
        let topo = paper_topology(2, 4); // 8 tapes != 10
        assert!(matches!(
            build_fleet_placement(
                paper_geom(),
                B16,
                PlacementConfig::paper_baseline(),
                &topo,
                ReplicaScope::InLibrary
            )
            .unwrap_err(),
            PlacementError::InvalidParameter("topology")
        ));
    }

    #[test]
    fn one_mb_blocks_scale_up() {
        let placed = build_placement(
            paper_geom(),
            BlockSize::from_mb(1),
            PlacementConfig::paper_baseline(),
        )
        .unwrap();
        assert_eq!(placed.catalog.num_blocks(), 71_680);
        assert_eq!(placed.catalog.hot_count(), 7_168);
    }

    #[test]
    fn bisection_matches_linear_walk_for_replication() {
        // The feasibility search replaced a linear walk down from the
        // capacity upper bound. Replication feasibility is monotone, so
        // both must land on the same largest `d` — and the deterministic
        // builder then yields byte-identical catalogs.
        for geom in [paper_geom(), JukeboxGeometry::FIVE_TAPE] {
            for layout in [LayoutKind::Horizontal, LayoutKind::Vertical] {
                for nr in [0u32, 1, 3] {
                    for (ph, sp) in [(0.0, 0.0), (10.0, 0.0), (10.0, 1.0), (50.0, 0.5)] {
                        let cfg = PlacementConfig {
                            layout,
                            ph_percent: ph,
                            scheme: PlacementScheme::Replication { nr },
                            sp,
                        };
                        let slots = geom.slots_per_tape(B16);
                        let e = scheme_expansion_factor(cfg.scheme, ph);
                        let upper = logical_upper_bound(geom, B16, cfg.scheme, e);
                        let mut walk = None;
                        for d in (1..=upper).rev() {
                            match try_build(geom, B16, slots, cfg, nr, d) {
                                Ok(v) => {
                                    walk = Some((d, v));
                                    break;
                                }
                                Err(TryBuildError::DoesNotFit) => {}
                                Err(TryBuildError::Catalog(err)) => {
                                    panic!("catalog bug at d={d}: {err:?}")
                                }
                            }
                        }
                        let (d, (cat, hot_tapes)) =
                            walk.expect("some block count must be feasible");
                        let placed = build_placement(geom, B16, cfg).unwrap();
                        let tag = format!("{geom:?}/{layout:?}/nr{nr}/ph{ph}/sp{sp}");
                        assert_eq!(placed.catalog.num_blocks(), d, "{tag}");
                        assert!(same_catalog(&placed.catalog, &cat), "{tag}");
                        assert_eq!(placed.hot_tapes, hot_tapes, "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn cross_library_replication_bounded_by_fleet() {
        // 10 replicas + the original need 11 distinct tapes; the whole
        // fleet has 10, so even the widest scope reports the typed
        // capacity error instead of failing deep inside the bisection.
        let topo = paper_topology(2, 5);
        let cfg = PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 10 },
            sp: 0.0,
        };
        assert_eq!(
            build_fleet_placement(paper_geom(), B16, cfg, &topo, ReplicaScope::CrossLibrary)
                .unwrap_err(),
            PlacementError::TooManyReplicas {
                requested: 10,
                max: 9
            }
        );
    }

    #[test]
    fn erasure_shards_bounded_by_scope() {
        // A 4 + 2 stripe needs 6 distinct tapes: more than one 5-tape
        // library (InLibrary fails with the scope's cap), but fine
        // across the 10-tape fleet.
        let topo = paper_topology(2, 5);
        let cfg = PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Erasure { k: 4, m: 2 },
            sp: 0.0,
        };
        assert_eq!(
            build_fleet_placement(paper_geom(), B16, cfg, &topo, ReplicaScope::InLibrary)
                .unwrap_err(),
            PlacementError::TooManyShards {
                requested: 6,
                max: 5
            }
        );
        let placed =
            build_fleet_placement(paper_geom(), B16, cfg, &topo, ReplicaScope::CrossLibrary)
                .unwrap();
        let c = &placed.catalog;
        let stripe = c.stripe().unwrap();
        assert!(c.logical_hot_count() > 0);
        for b in 0..c.logical_hot_count() {
            let (first, count) = stripe.cells_of(b);
            assert_eq!(count, 6);
            let libs: std::collections::BTreeSet<u16> = (first..first + count)
                .map(|cell| topo.library_of_tape(c.replicas(BlockId(cell))[0].tape))
                .collect();
            assert!(libs.len() > 1, "stripe {b} confined to one library");
        }
    }

    #[test]
    fn erasure_shards_bounded_by_fleet() {
        // 8 + 4 needs 12 distinct tapes; the fleet has 10. Both scopes
        // report the same typed error.
        let topo = paper_topology(2, 5);
        let cfg = PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Erasure { k: 8, m: 4 },
            sp: 0.0,
        };
        for scope in [ReplicaScope::InLibrary, ReplicaScope::CrossLibrary] {
            assert_eq!(
                build_fleet_placement(paper_geom(), B16, cfg, &topo, scope).unwrap_err(),
                PlacementError::TooManyShards {
                    requested: 12,
                    max: 10
                },
                "{scope:?}"
            );
        }
    }
}
