//! The catalog: the mapping from logical blocks to physical tape locations.
//!
//! A data block may be replicated on multiple tapes, with **at most one
//! copy per tape** (Section 2.2). The catalog stores both directions of the
//! mapping — block to replica addresses, and tape slot to block — and
//! enforces the one-copy-per-tape and one-block-per-slot invariants at
//! construction time.
#![expect(
    clippy::cast_possible_truncation,
    reason = "slot/copy counts are bounded by jukebox capacity (u32)"
)]
#![expect(
    clippy::cast_precision_loss,
    reason = "copy counts stay far below 2^53"
)]

use tapesim_model::{BlockSize, JukeboxGeometry, PhysicalAddr, SlotIndex, TapeId};

use crate::block::{BlockId, Heat};

/// Errors raised while building a catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A second copy of the same block was placed on one tape.
    DuplicateCopyOnTape {
        /// The offending block.
        block: BlockId,
        /// The tape already holding a copy.
        tape: TapeId,
    },
    /// Two blocks were placed in the same physical slot.
    SlotOccupied {
        /// The contested address.
        addr: PhysicalAddr,
        /// The block already there.
        occupant: BlockId,
        /// The block that could not be placed.
        incoming: BlockId,
    },
    /// A placement referenced a tape or slot outside the geometry.
    OutOfBounds {
        /// The invalid address.
        addr: PhysicalAddr,
    },
    /// A block id at or beyond the declared block count was placed.
    UnknownBlock {
        /// The invalid block.
        block: BlockId,
    },
    /// A block ended up with no copies at all.
    Unplaced {
        /// The block that has no copy.
        block: BlockId,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateCopyOnTape { block, tape } => {
                write!(f, "{block} already has a copy on {tape}")
            }
            CatalogError::SlotOccupied {
                addr,
                occupant,
                incoming,
            } => write!(f, "{addr} holds {occupant}; cannot also hold {incoming}"),
            CatalogError::OutOfBounds { addr } => write!(f, "{addr} outside jukebox geometry"),
            CatalogError::UnknownBlock { block } => write!(f, "{block} beyond block count"),
            CatalogError::Unplaced { block } => write!(f, "{block} has no tape copy"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// Erasure-stripe annotation for a catalog whose "blocks" are shard
/// cells (see `PlacementScheme::Erasure`). Logical block `b` is stored
/// as [`StripeInfo::cells_of`]`(b)` consecutive cell ids: hot blocks own
/// `k + m` cells (one per stripe tape, any `k` reconstruct the block),
/// cold blocks own `k` data cells laid out contiguously on one tape.
/// `None` on a catalog means cells are whole logical blocks (the
/// replication and no-redundancy schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeInfo {
    /// Data shards per block; any `k` surviving shards of a hot block
    /// reconstruct it.
    pub k: u8,
    /// Parity shards per hot block (cold blocks store none).
    pub m: u8,
    /// Logical blocks behind the shard cells.
    pub logical_blocks: u32,
    /// Logical hot blocks; logical ids `0..logical_hot` are hot.
    pub logical_hot: u32,
}

impl StripeInfo {
    /// Shard cells stored per hot block (`k + m`).
    #[inline]
    pub fn shards_per_hot(&self) -> u32 {
        u32::from(self.k) + u32::from(self.m)
    }

    /// Data shards per block (`k`).
    #[inline]
    pub fn data_shards(&self) -> u32 {
        u32::from(self.k)
    }

    /// The shard cells of logical block `b` as `(first_cell, count)`:
    /// `k + m` cells for hot blocks, `k` for cold.
    pub fn cells_of(&self, logical: u32) -> (u32, u32) {
        let km = self.shards_per_hot();
        let k = self.data_shards();
        if logical < self.logical_hot {
            (logical * km, km)
        } else {
            (self.logical_hot * km + (logical - self.logical_hot) * k, k)
        }
    }

    /// The logical block a shard cell belongs to.
    pub fn logical_of(&self, cell: u32) -> u32 {
        let km = self.shards_per_hot();
        let hot_cells = self.logical_hot * km;
        if cell < hot_cells {
            cell / km
        } else {
            self.logical_hot + (cell - hot_cells) / self.data_shards()
        }
    }

    /// Total shard cells the catalog stores.
    pub fn total_cells(&self) -> u32 {
        self.logical_hot * self.shards_per_hot()
            + (self.logical_blocks - self.logical_hot) * self.data_shards()
    }
}

/// Immutable catalog of block placements for one jukebox.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    geometry: JukeboxGeometry,
    block_size: BlockSize,
    /// Number of hot blocks; ids `0..hot_count` are hot.
    hot_count: u32,
    /// `replicas[b]` = sorted physical addresses of block `b`'s copies.
    replicas: Vec<Vec<PhysicalAddr>>,
    /// `slot_map[tape][slot]` = block stored there, if any.
    slot_map: Vec<Vec<Option<BlockId>>>,
    /// Present iff the catalog's blocks are erasure shard cells.
    stripe: Option<StripeInfo>,
}

impl Catalog {
    /// Starts building a catalog for `blocks` logical blocks, of which the
    /// first `hot_count` are hot.
    pub fn builder(
        geometry: JukeboxGeometry,
        block_size: BlockSize,
        blocks: u32,
        hot_count: u32,
    ) -> CatalogBuilder {
        assert!(hot_count <= blocks, "hot count exceeds block count");
        CatalogBuilder {
            geometry,
            block_size,
            hot_count,
            replicas: vec![Vec::new(); blocks as usize],
            slot_map: vec![
                vec![None; geometry.slots_per_tape(block_size) as usize];
                geometry.tapes as usize
            ],
            stripe: None,
        }
    }

    /// The jukebox geometry this catalog was built for.
    #[inline]
    pub fn geometry(&self) -> JukeboxGeometry {
        self.geometry
    }

    /// The fixed logical block size.
    #[inline]
    pub fn block_size(&self) -> BlockSize {
        self.block_size
    }

    /// Total number of logical blocks.
    #[inline]
    pub fn num_blocks(&self) -> u32 {
        self.replicas.len() as u32
    }

    /// Number of hot blocks (ids `0..hot_count`).
    #[inline]
    pub fn hot_count(&self) -> u32 {
        self.hot_count
    }

    /// Number of cold blocks.
    #[inline]
    pub fn cold_count(&self) -> u32 {
        self.num_blocks() - self.hot_count
    }

    /// The heat class of a block.
    #[inline]
    pub fn heat(&self, block: BlockId) -> Heat {
        if block.0 < self.hot_count {
            Heat::Hot
        } else {
            Heat::Cold
        }
    }

    /// All physical copies of `block`, sorted by tape id.
    #[inline]
    pub fn replicas(&self, block: BlockId) -> &[PhysicalAddr] {
        &self.replicas[block.index()]
    }

    /// The surviving copies of `block`: all replicas except those on
    /// tapes in `offline` (a sorted or unsorted small slice). This is the
    /// failover lookup used by the scheduler when a request's primary
    /// copy sits on a failed tape — any returned address can serve the
    /// request.
    pub fn replicas_of<'a>(
        &'a self,
        block: BlockId,
        offline: &'a [TapeId],
    ) -> impl Iterator<Item = PhysicalAddr> + 'a {
        self.replicas(block)
            .iter()
            .copied()
            .filter(move |a| !offline.contains(&a.tape))
    }

    /// The copy of `block` on `tape`, if one exists.
    pub fn copy_on_tape(&self, block: BlockId, tape: TapeId) -> Option<PhysicalAddr> {
        self.replicas(block)
            .iter()
            .find(|a| a.tape == tape)
            .copied()
    }

    /// The block stored at a physical address, if any.
    pub fn block_at(&self, addr: PhysicalAddr) -> Option<BlockId> {
        self.slot_map
            .get(addr.tape.index())?
            .get(addr.slot.index())
            .copied()
            .flatten()
    }

    /// Iterator over `(slot, block)` pairs on one tape in ascending slot
    /// order.
    pub fn tape_contents(&self, tape: TapeId) -> impl Iterator<Item = (SlotIndex, BlockId)> + '_ {
        self.slot_map[tape.index()]
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|b| (SlotIndex(i as u32), b)))
    }

    /// Number of occupied slots on one tape.
    pub fn occupied_slots(&self, tape: TapeId) -> u32 {
        self.slot_map[tape.index()]
            .iter()
            .filter(|b| b.is_some())
            .count() as u32
    }

    /// Total copies stored across all tapes (originals + replicas).
    pub fn total_copies(&self) -> u64 {
        self.replicas.iter().map(|r| r.len() as u64).sum()
    }

    /// Measured expansion factor: total copies divided by logical blocks.
    pub fn measured_expansion(&self) -> f64 {
        self.total_copies() as f64 / self.num_blocks() as f64
    }

    /// The erasure-stripe annotation, when this catalog's blocks are
    /// shard cells rather than whole logical blocks.
    #[inline]
    pub fn stripe(&self) -> Option<&StripeInfo> {
        self.stripe.as_ref()
    }

    /// Logical blocks behind the catalog: equals [`Catalog::num_blocks`]
    /// for whole-block catalogs, and the striped logical count for
    /// erasure catalogs. Workload samplers draw from this range.
    pub fn logical_num_blocks(&self) -> u32 {
        self.stripe
            .as_ref()
            .map_or_else(|| self.num_blocks(), |s| s.logical_blocks)
    }

    /// Logical hot blocks (logical ids `0..hot` are hot). Equals
    /// [`Catalog::hot_count`] for whole-block catalogs.
    pub fn logical_hot_count(&self) -> u32 {
        self.stripe
            .as_ref()
            .map_or_else(|| self.hot_count(), |s| s.logical_hot)
    }

    /// The logical block size: [`Catalog::block_size`] for whole-block
    /// catalogs, `k` shard cells for erasure catalogs.
    pub fn logical_block_size(&self) -> BlockSize {
        self.stripe.as_ref().map_or(self.block_size, |s| {
            BlockSize::from_mb(self.block_size.mb() * s.data_shards())
        })
    }

    /// Measured expansion in logical units: stored cells over
    /// `logical_blocks * k` for erasure catalogs (the denominator is the
    /// cell count the logical data would occupy without parity), and
    /// exactly [`Catalog::measured_expansion`] otherwise.
    pub fn measured_logical_expansion(&self) -> f64 {
        match &self.stripe {
            None => self.measured_expansion(),
            Some(s) => {
                self.total_copies() as f64
                    / (f64::from(s.logical_blocks) * f64::from(s.data_shards()))
            }
        }
    }
}

/// Incremental catalog builder that validates every placement.
#[derive(Debug, Clone)]
pub struct CatalogBuilder {
    geometry: JukeboxGeometry,
    block_size: BlockSize,
    hot_count: u32,
    replicas: Vec<Vec<PhysicalAddr>>,
    slot_map: Vec<Vec<Option<BlockId>>>,
    stripe: Option<StripeInfo>,
}

impl CatalogBuilder {
    /// Marks the catalog as an erasure-shard catalog: its block count and
    /// hot count must equal the cell totals `info` implies.
    pub fn set_stripe(&mut self, info: StripeInfo) {
        debug_assert_eq!(self.replicas.len() as u32, info.total_cells());
        debug_assert_eq!(self.hot_count, info.logical_hot * info.shards_per_hot());
        self.stripe = Some(info);
    }

    /// Places a copy of `block` at `addr`.
    pub fn place(&mut self, block: BlockId, addr: PhysicalAddr) -> Result<(), CatalogError> {
        if block.index() >= self.replicas.len() {
            return Err(CatalogError::UnknownBlock { block });
        }
        if addr.tape.index() >= self.slot_map.len()
            || addr.slot.index() >= self.slot_map[addr.tape.index()].len()
        {
            return Err(CatalogError::OutOfBounds { addr });
        }
        // One copy per tape: a block has at most `tapes` replicas, so this
        // scan is over a handful of entries and beats a side index.
        if self.replicas[block.index()]
            .iter()
            .any(|a| a.tape == addr.tape)
        {
            return Err(CatalogError::DuplicateCopyOnTape {
                block,
                tape: addr.tape,
            });
        }
        let cell = &mut self.slot_map[addr.tape.index()][addr.slot.index()];
        if let Some(occupant) = *cell {
            return Err(CatalogError::SlotOccupied {
                addr,
                occupant,
                incoming: block,
            });
        }
        *cell = Some(block);
        self.replicas[block.index()].push(addr);
        Ok(())
    }

    /// Finalizes the catalog, checking that every block has at least one
    /// copy.
    pub fn build(mut self) -> Result<Catalog, CatalogError> {
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if r.is_empty() {
                return Err(CatalogError::Unplaced {
                    block: BlockId(i as u32),
                });
            }
            r.sort_by_key(|a| a.tape);
        }
        Ok(Catalog {
            geometry: self.geometry,
            block_size: self.block_size,
            hot_count: self.hot_count,
            replicas: self.replicas,
            slot_map: self.slot_map,
            stripe: self.stripe,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(t: u16, s: u32) -> PhysicalAddr {
        PhysicalAddr {
            tape: TapeId(t),
            slot: SlotIndex(s),
        }
    }

    fn small_builder(blocks: u32, hot: u32) -> CatalogBuilder {
        // 3 tapes x 1024 MB = 64 slots of 16 MB per tape.
        Catalog::builder(
            JukeboxGeometry::new(3, 1024),
            BlockSize::from_mb(16),
            blocks,
            hot,
        )
    }

    #[test]
    fn place_and_query_roundtrip() {
        let mut b = small_builder(2, 1);
        b.place(BlockId(0), addr(0, 1)).unwrap();
        b.place(BlockId(0), addr(2, 0)).unwrap();
        b.place(BlockId(1), addr(1, 3)).unwrap();
        let c = b.build().unwrap();

        assert_eq!(c.replicas(BlockId(0)), &[addr(0, 1), addr(2, 0)]);
        assert_eq!(c.copy_on_tape(BlockId(0), TapeId(2)), Some(addr(2, 0)));
        assert_eq!(c.copy_on_tape(BlockId(0), TapeId(1)), None);
        assert_eq!(c.block_at(addr(1, 3)), Some(BlockId(1)));
        assert_eq!(c.block_at(addr(1, 2)), None);
        assert_eq!(c.heat(BlockId(0)), Heat::Hot);
        assert_eq!(c.heat(BlockId(1)), Heat::Cold);
        assert_eq!(c.total_copies(), 3);
        assert!((c.measured_expansion() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_second_copy_on_same_tape() {
        let mut b = small_builder(1, 0);
        b.place(BlockId(0), addr(0, 1)).unwrap();
        let err = b.place(BlockId(0), addr(0, 5)).unwrap_err();
        assert_eq!(
            err,
            CatalogError::DuplicateCopyOnTape {
                block: BlockId(0),
                tape: TapeId(0)
            }
        );
    }

    #[test]
    fn rejects_occupied_slot() {
        let mut b = small_builder(2, 0);
        b.place(BlockId(0), addr(1, 2)).unwrap();
        let err = b.place(BlockId(1), addr(1, 2)).unwrap_err();
        assert!(matches!(err, CatalogError::SlotOccupied { .. }));
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut b = small_builder(1, 0);
        assert!(matches!(
            b.place(BlockId(0), addr(3, 0)),
            Err(CatalogError::OutOfBounds { .. })
        ));
        assert!(matches!(
            b.place(BlockId(0), addr(0, 64)),
            Err(CatalogError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn rejects_unknown_block() {
        let mut b = small_builder(1, 0);
        assert!(matches!(
            b.place(BlockId(1), addr(0, 0)),
            Err(CatalogError::UnknownBlock { .. })
        ));
    }

    #[test]
    fn build_fails_on_unplaced_block() {
        let mut b = small_builder(2, 0);
        b.place(BlockId(0), addr(0, 0)).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            CatalogError::Unplaced { block: BlockId(1) }
        );
    }

    #[test]
    fn tape_contents_in_slot_order() {
        let mut b = small_builder(3, 0);
        b.place(BlockId(2), addr(0, 5)).unwrap();
        b.place(BlockId(0), addr(0, 1)).unwrap();
        b.place(BlockId(1), addr(1, 0)).unwrap();
        let c = b.build().unwrap();
        let contents: Vec<_> = c.tape_contents(TapeId(0)).collect();
        assert_eq!(
            contents,
            vec![(SlotIndex(1), BlockId(0)), (SlotIndex(5), BlockId(2))]
        );
        assert_eq!(c.occupied_slots(TapeId(0)), 2);
        assert_eq!(c.occupied_slots(TapeId(2)), 0);
    }

    #[test]
    fn replicas_sorted_by_tape() {
        let mut b = small_builder(1, 1);
        b.place(BlockId(0), addr(2, 0)).unwrap();
        b.place(BlockId(0), addr(0, 3)).unwrap();
        b.place(BlockId(0), addr(1, 7)).unwrap();
        let c = b.build().unwrap();
        let tapes: Vec<u16> = c.replicas(BlockId(0)).iter().map(|a| a.tape.0).collect();
        assert_eq!(tapes, vec![0, 1, 2]);
    }

    #[test]
    fn replicas_of_filters_offline_tapes() {
        let mut b = small_builder(1, 1);
        b.place(BlockId(0), addr(0, 3)).unwrap();
        b.place(BlockId(0), addr(2, 0)).unwrap();
        let c = b.build().unwrap();
        let all: Vec<_> = c.replicas_of(BlockId(0), &[]).collect();
        assert_eq!(all, vec![addr(0, 3), addr(2, 0)]);
        let survivors: Vec<_> = c.replicas_of(BlockId(0), &[TapeId(0)]).collect();
        assert_eq!(survivors, vec![addr(2, 0)]);
        let none: Vec<_> = c.replicas_of(BlockId(0), &[TapeId(0), TapeId(2)]).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn stripe_cell_mapping_roundtrips() {
        let s = StripeInfo {
            k: 2,
            m: 1,
            logical_blocks: 5,
            logical_hot: 2,
        };
        // Hot blocks own 3 cells each, cold blocks 2.
        assert_eq!(s.cells_of(0), (0, 3));
        assert_eq!(s.cells_of(1), (3, 3));
        assert_eq!(s.cells_of(2), (6, 2));
        assert_eq!(s.cells_of(4), (10, 2));
        assert_eq!(s.total_cells(), 12);
        for logical in 0..s.logical_blocks {
            let (base, len) = s.cells_of(logical);
            for cell in base..base + len {
                assert_eq!(s.logical_of(cell), logical, "cell {cell}");
            }
        }
    }

    #[test]
    fn striped_catalog_reports_logical_shape() {
        // 3 tapes x 64 shard slots; 1 hot logical block as 2+1 shards on
        // distinct tapes, 1 cold logical block as 2 contiguous cells.
        let mut b = Catalog::builder(JukeboxGeometry::new(3, 1024), BlockSize::from_mb(16), 5, 3);
        b.set_stripe(StripeInfo {
            k: 2,
            m: 1,
            logical_blocks: 2,
            logical_hot: 1,
        });
        b.place(BlockId(0), addr(0, 0)).unwrap();
        b.place(BlockId(1), addr(1, 0)).unwrap();
        b.place(BlockId(2), addr(2, 0)).unwrap();
        b.place(BlockId(3), addr(0, 1)).unwrap();
        b.place(BlockId(4), addr(0, 2)).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.num_blocks(), 5);
        assert_eq!(c.hot_count(), 3);
        assert_eq!(c.logical_num_blocks(), 2);
        assert_eq!(c.logical_hot_count(), 1);
        assert_eq!(c.logical_block_size().mb(), 32);
        // 5 cells stored for 2 logical blocks of 2 cells each.
        assert!((c.measured_logical_expansion() - 1.25).abs() < 1e-12);
        // Unstriped catalogs: logical == physical.
        let mut plain = small_builder(1, 0);
        plain.place(BlockId(0), addr(0, 0)).unwrap();
        let plain = plain.build().unwrap();
        assert_eq!(plain.logical_num_blocks(), plain.num_blocks());
        assert_eq!(plain.logical_block_size(), plain.block_size());
        assert!(plain.stripe().is_none());
    }

    #[test]
    fn error_display_messages() {
        let e = CatalogError::DuplicateCopyOnTape {
            block: BlockId(1),
            tape: TapeId(2),
        };
        assert!(e.to_string().contains("block1"));
        assert!(e.to_string().contains("tape2"));
    }
}
