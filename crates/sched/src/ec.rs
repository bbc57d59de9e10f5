//! Erasure-read costing: choosing which `k` of a hot block's `k + m`
//! shard cells to read, and pricing the read as the max-completion
//! envelope over the chosen shard tapes.
//!
//! An erasure read (see `tapesim_layout::StripeInfo`) is satisfied by any
//! `k` surviving shards, each on its own tape. The scheduler therefore
//! faces a selection problem replication never has: *which* `k` tapes to
//! mount. This module ranks shards by a pick-cost proxy — mount cost if
//! the tape is not already in a drive, plus the beginning-of-tape locate
//! to the shard's slot — and picks the cheapest `k`, breaking ties by
//! cell id so the choice is deterministic. The read's completion is the
//! *max* over its shard completions (every shard is needed to
//! reconstruct), which is what [`read_envelope`] computes.

use tapesim_layout::{BlockId, Catalog};
use tapesim_model::{Micros, PhysicalAddr, SlotIndex, TapeId, TimingModel};

/// Cost proxy for bringing one shard cell into a drive and reaching it:
/// zero mount cost when the cell's tape is in `mounted` (sorted), else
/// robot exchange + drive load, plus the beginning-of-tape locate to the
/// shard's slot. A deliberate simplification of the full sweep cost
/// model — shard reads join regular sweeps once admitted, so this proxy
/// only has to *rank* shard tapes against each other, not predict
/// absolute completion times.
pub fn shard_pick_cost(
    timing: &TimingModel,
    catalog: &Catalog,
    mounted: &[TapeId],
    addr: PhysicalAddr,
) -> Micros {
    let mount = if mounted.binary_search(&addr.tape).is_ok() {
        Micros::ZERO
    } else {
        timing.robot.exchange() + timing.drive.load()
    };
    let (locate, _) = timing
        .drive
        .locate(SlotIndex::BOT, addr.slot, catalog.block_size());
    mount + locate
}

/// The shard cells an engine should read to satisfy an erasure read of
/// logical block `logical`: exactly `k` cell ids.
///
/// Cold blocks have no parity — their `k` data cells are returned in cell
/// order (they sit contiguously on one tape and stream like a whole-block
/// read). Hot blocks are ranked by `(pick cost, cell id)` over the cells
/// whose tapes are *not* in `lost` (sorted), and the cheapest `k` are
/// returned in cell order. When fewer than `k` shards survive, the
/// result is padded with lost cells (cheapest-ranked first) so it always
/// has length `k`: the engine's dead-copy handling turns the lost
/// entries into failover or a typed unavailability, never this function.
pub fn choose_shards(
    timing: &TimingModel,
    catalog: &Catalog,
    logical: u32,
    mounted: &[TapeId],
    lost: &[TapeId],
) -> Vec<u32> {
    #[expect(
        clippy::expect_used,
        reason = "caller contract: erasure admission only runs on striped catalogs"
    )]
    let stripe = catalog
        .stripe()
        .expect("choose_shards requires an erasure-striped catalog");
    let (first, count) = stripe.cells_of(logical);
    let k = stripe.data_shards() as usize;
    if count == stripe.data_shards() {
        // Cold: no choice to make.
        return (first..first + count).collect();
    }
    // (lost, cost, cell): surviving shards first, each group by (cost,
    // cell) — a total order, so the selection is deterministic.
    let mut ranked: Vec<(bool, Micros, u32)> = (first..first + count)
        .map(|cell| {
            // Striped catalogs store exactly one address per shard cell.
            let addr = catalog.replicas(BlockId(cell))[0];
            let dead = lost.binary_search(&addr.tape).is_ok();
            (dead, shard_pick_cost(timing, catalog, mounted, addr), cell)
        })
        .collect();
    ranked.sort();
    let mut cells: Vec<u32> = ranked.into_iter().take(k).map(|(_, _, c)| c).collect();
    cells.sort_unstable();
    cells
}

/// Max-completion envelope of an erasure read: the read completes when
/// the slowest of its chosen shards completes. `Micros::ZERO` for an
/// empty set.
pub fn read_envelope(costs: impl IntoIterator<Item = Micros>) -> Micros {
    costs.into_iter().max().unwrap_or(Micros::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::StripeInfo;
    use tapesim_model::{BlockSize, JukeboxGeometry};

    /// 4 tapes x 64 shard cells of 8 MB. One hot logical block striped
    /// 2+2 over tapes 0..4 (cells 0..4 at slot 0), one cold block as
    /// cells 4,5 contiguous on tape 0.
    fn striped_catalog() -> Catalog {
        let g = JukeboxGeometry::new(4, 512);
        let mut b = Catalog::builder(g, BlockSize::from_mb(8), 6, 4);
        b.set_stripe(StripeInfo {
            k: 2,
            m: 2,
            logical_blocks: 2,
            logical_hot: 1,
        });
        for j in 0..4u16 {
            b.place(
                BlockId(u32::from(j)),
                PhysicalAddr {
                    tape: TapeId(j),
                    slot: SlotIndex(if j == 0 { 10 } else { 0 }),
                },
            )
            .unwrap();
        }
        for j in 0..2u32 {
            b.place(
                BlockId(4 + j),
                PhysicalAddr {
                    tape: TapeId(0),
                    slot: SlotIndex(20 + j),
                },
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn cold_reads_take_their_data_cells() {
        let c = striped_catalog();
        let t = TimingModel::paper_default();
        assert_eq!(choose_shards(&t, &c, 1, &[], &[]), vec![4, 5]);
    }

    #[test]
    fn hot_reads_prefer_mounted_then_cheap_locates() {
        let c = striped_catalog();
        let t = TimingModel::paper_default();
        // Nothing mounted: all mounts cost the same, so the slot-0 shards
        // (cells 1, 2) win over cell 0's slot-10 locate; cell-id tie-break
        // picks 1 and 2 over 3.
        assert_eq!(choose_shards(&t, &c, 0, &[], &[]), vec![1, 2]);
        // Tape 0 mounted: its shard becomes free despite the deeper slot.
        assert_eq!(choose_shards(&t, &c, 0, &[TapeId(0)], &[]), vec![0, 1]);
        // Tape 1 lost: survivors 0, 2, 3 ranked; 2 then 3 beat 0's locate.
        assert_eq!(choose_shards(&t, &c, 0, &[], &[TapeId(1)]), vec![2, 3]);
    }

    #[test]
    fn shortfall_pads_with_lost_cells() {
        let c = striped_catalog();
        let t = TimingModel::paper_default();
        // Three of four shard tapes lost: only cell 3 survives; the
        // result still has k = 2 entries, padded with a lost cell.
        let lost = [TapeId(0), TapeId(1), TapeId(2)];
        let picked = choose_shards(&t, &c, 0, &[], &lost);
        assert_eq!(picked.len(), 2);
        assert!(picked.contains(&3));
    }

    #[test]
    fn envelope_is_the_max() {
        assert_eq!(
            read_envelope([Micros::from_secs(3), Micros::from_secs(7), Micros::ZERO]),
            Micros::from_secs(7)
        );
        assert_eq!(read_envelope(std::iter::empty()), Micros::ZERO);
    }
}
