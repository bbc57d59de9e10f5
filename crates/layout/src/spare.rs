//! Spare-capacity schemes (Section 4.8).
//!
//! When a jukebox is only partially full, the paper compares two ways of
//! laying out the same logical data:
//!
//! * **packed, spare left empty** — base data packed into as few tapes as
//!   possible, with a vertical layout that separates hot data onto its
//!   own tape(s); the remaining tapes stay empty. The paper finds this
//!   within a percent or two of the non-replicated full layout.
//! * **spread, spare filled with replicas** — the paper's closing
//!   recommendation: keep the hottest data on its own tape, fill the
//!   other tapes only part way with base data, and append replicas of hot
//!   blocks to the ends of those tapes. Performance improves "for free".
#![expect(
    clippy::cast_possible_truncation,
    reason = "slot and tape counts are bounded by jukebox geometry"
)]
#![expect(
    clippy::cast_precision_loss,
    reason = "capacity totals stay far below 2^53"
)]

use tapesim_model::{BlockSize, JukeboxGeometry, PhysicalAddr, SlotIndex, TapeId};

use crate::block::BlockId;
use crate::catalog::Catalog;
use crate::placement::{
    LayoutKind, PlacedCatalog, PlacementConfig, PlacementError, PlacementScheme,
};

/// What to do with unused capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpareUse {
    /// Pack base data into as few tapes as possible and leave the spare
    /// slots empty.
    LeaveEmpty,
    /// Spread base data over all tapes and fill the spare slots at the
    /// tape ends with replicas of hot blocks.
    FillWithReplicas,
}

/// Configuration for a partially filled jukebox.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpareConfig {
    /// Percent of base data that is hot (`PH`).
    pub ph_percent: f64,
    /// Fraction of total jukebox capacity occupied by base data, in
    /// `(0, 1]`.
    pub fill_fraction: f64,
    /// Use of the remaining capacity.
    pub spare_use: SpareUse,
}

/// Builds a partially filled jukebox according to `cfg.spare_use`; both
/// variants store exactly the same logical blocks (hot data vertically
/// separated onto the leading tape(s)), so their reports are directly
/// comparable.
pub fn build_spare_layout(
    geometry: JukeboxGeometry,
    block: BlockSize,
    cfg: SpareConfig,
) -> Result<PlacedCatalog, PlacementError> {
    if !(0.0..=100.0).contains(&cfg.ph_percent) || !cfg.ph_percent.is_finite() {
        return Err(PlacementError::InvalidParameter("ph_percent"));
    }
    if !(cfg.fill_fraction > 0.0 && cfg.fill_fraction <= 1.0) {
        return Err(PlacementError::InvalidParameter("fill_fraction"));
    }
    let slots = geometry.slots_per_tape(block);
    let total = geometry.total_slots(block);
    let d = ((total as f64 * cfg.fill_fraction).floor() as u64).min(total) as u32;
    if d == 0 {
        return Err(PlacementError::NoCapacity);
    }
    let hot = ((d as f64 * cfg.ph_percent / 100.0).round() as u32).min(d);
    let hot_tape_count = hot.div_ceil(slots);
    let cold = d - hot;
    let cold_tapes = geometry.tapes as u32 - hot_tape_count;
    if cold > 0 && cold_tapes == 0 {
        return Err(PlacementError::NoCapacity);
    }

    let mut builder = Catalog::builder(geometry, block, d, hot);

    // Hot originals: packed from slot 0 on the leading tapes.
    for b in 0..hot {
        builder.place(
            BlockId(b),
            PhysicalAddr {
                tape: TapeId((b / slots) as u16),
                slot: SlotIndex(b % slots),
            },
        )?;
    }

    match cfg.spare_use {
        SpareUse::LeaveEmpty => {
            // Pack cold data from slot 0 on subsequent tapes, as few as
            // possible (reusing leftover room on the last hot tape).
            let mut tape = if hot.is_multiple_of(slots) {
                hot_tape_count
            } else {
                hot_tape_count - 1
            };
            let mut slot = hot % slots;
            for b in hot..d {
                if tape >= geometry.tapes as u32 {
                    return Err(PlacementError::NoCapacity);
                }
                builder.place(
                    BlockId(b),
                    PhysicalAddr {
                        tape: TapeId(tape as u16),
                        slot: SlotIndex(slot),
                    },
                )?;
                slot += 1;
                if slot == slots {
                    slot = 0;
                    tape += 1;
                }
            }
        }
        SpareUse::FillWithReplicas => {
            // Spread cold data evenly from slot 0 over the non-hot tapes,
            // then fill each tape's tail with replicas of hot blocks.
            let per_tape = cold / cold_tapes;
            let extra = cold % cold_tapes; // first `extra` tapes get one more
            if per_tape + 1 > slots && extra > 0 || per_tape > slots {
                return Err(PlacementError::NoCapacity);
            }
            let mut b = hot;
            let mut fill_end = vec![0u32; geometry.tapes as usize];
            for i in 0..cold_tapes {
                let tape = hot_tape_count + i;
                let count = per_tape + u32::from(i < extra);
                for s in 0..count {
                    builder.place(
                        BlockId(b),
                        PhysicalAddr {
                            tape: TapeId(tape as u16),
                            slot: SlotIndex(s),
                        },
                    )?;
                    b += 1;
                }
                fill_end[tape as usize] = count;
            }
            debug_assert_eq!(b, d);
            // Replicas at the tape ends (Section 4.5's placement), at most
            // one copy of a block per tape, round-robin over hot blocks so
            // replica counts stay even.
            if hot > 0 {
                let mut cursor: u32 = 0;
                for i in 0..cold_tapes {
                    let tape = hot_tape_count + i;
                    let spare = slots - fill_end[tape as usize];
                    let count = spare.min(hot);
                    if count == 0 {
                        continue;
                    }
                    let region_start = slots - count;
                    for k in 0..count {
                        builder.place(
                            BlockId((cursor + k) % hot),
                            PhysicalAddr {
                                tape: TapeId(tape as u16),
                                slot: SlotIndex(region_start + k),
                            },
                        )?;
                    }
                    cursor = (cursor + count) % hot;
                }
            }
        }
    }

    let catalog = builder.build()?;
    let hot_tapes = (0..hot_tape_count).map(|i| TapeId(i as u16)).collect();
    let expansion = catalog.measured_expansion();
    Ok(PlacedCatalog {
        catalog,
        expansion,
        hot_tapes,
        config: PlacementConfig {
            layout: LayoutKind::Vertical,
            ph_percent: cfg.ph_percent,
            scheme: PlacementScheme::NONE, // replica count is variable per block; see expansion
            sp: 1.0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Heat;

    const B16: BlockSize = BlockSize::PAPER_DEFAULT;

    fn geom() -> JukeboxGeometry {
        JukeboxGeometry::PAPER_DEFAULT
    }

    #[test]
    fn packed_layout_uses_fewest_tapes() {
        let placed = build_spare_layout(
            geom(),
            B16,
            SpareConfig {
                ph_percent: 10.0,
                fill_fraction: 0.5,
                spare_use: SpareUse::LeaveEmpty,
            },
        )
        .unwrap();
        let c = &placed.catalog;
        assert_eq!(c.num_blocks(), 2240);
        assert_eq!(c.hot_count(), 224);
        assert_eq!(c.total_copies(), 2240);
        // 2240 blocks over 448-slot tapes = exactly 5 tapes.
        let used: Vec<u32> = geom().tape_ids().map(|t| c.occupied_slots(t)).collect();
        assert_eq!(used, vec![448, 448, 448, 448, 448, 0, 0, 0, 0, 0]);
        // Hot blocks are a prefix of tape 0.
        let first: Vec<_> = c.tape_contents(TapeId(0)).take(224).collect();
        assert!(first.iter().all(|&(_, b)| c.heat(b) == Heat::Hot));
    }

    #[test]
    fn spread_layout_fills_every_tape_partially() {
        let placed = build_spare_layout(
            geom(),
            B16,
            SpareConfig {
                ph_percent: 10.0,
                fill_fraction: 0.5,
                spare_use: SpareUse::FillWithReplicas,
            },
        )
        .unwrap();
        let c = &placed.catalog;
        assert_eq!(c.num_blocks(), 2240);
        assert!(c.total_copies() > 2240, "copies {}", c.total_copies());
        // Cold data spread: 2016 cold over 9 tapes = 224 each, from slot 0.
        for t in 1..10u16 {
            let contents: Vec<_> = c.tape_contents(TapeId(t)).collect();
            // 224 cold at the front + 224 replicas at the end.
            assert_eq!(contents.len(), 448);
            let (front, back) = contents.split_at(224);
            assert!(front
                .iter()
                .all(|&(s, b)| s.0 < 224 && c.heat(b) == Heat::Cold));
            assert!(back
                .iter()
                .all(|&(s, b)| s.0 >= 224 && c.heat(b) == Heat::Hot));
        }
        assert!(placed.expansion > 1.0);
    }

    #[test]
    fn spread_layout_replicas_respect_one_copy_per_tape() {
        let placed = build_spare_layout(
            geom(),
            B16,
            SpareConfig {
                ph_percent: 1.0,
                fill_fraction: 0.3,
                spare_use: SpareUse::FillWithReplicas,
            },
        )
        .unwrap();
        let c = &placed.catalog;
        for b in 0..c.hot_count() {
            let tapes: Vec<_> = c.replicas(BlockId(b)).iter().map(|a| a.tape).collect();
            let mut dedup = tapes.clone();
            dedup.dedup();
            assert_eq!(tapes, dedup, "duplicate copy of block {b} on one tape");
        }
    }

    #[test]
    fn both_schemes_store_identical_logical_data() {
        for (ph, fill) in [(10.0, 0.5), (5.0, 0.6), (20.0, 0.8)] {
            let mk = |use_| {
                build_spare_layout(
                    geom(),
                    B16,
                    SpareConfig {
                        ph_percent: ph,
                        fill_fraction: fill,
                        spare_use: use_,
                    },
                )
                .unwrap()
            };
            let a = mk(SpareUse::LeaveEmpty);
            let b = mk(SpareUse::FillWithReplicas);
            assert_eq!(a.catalog.num_blocks(), b.catalog.num_blocks());
            assert_eq!(a.catalog.hot_count(), b.catalog.hot_count());
        }
    }

    #[test]
    fn full_fill_leaves_no_spare() {
        let placed = build_spare_layout(
            geom(),
            B16,
            SpareConfig {
                ph_percent: 10.0,
                fill_fraction: 1.0,
                spare_use: SpareUse::FillWithReplicas,
            },
        )
        .unwrap();
        // No spare -> no replicas despite the request.
        assert_eq!(placed.catalog.total_copies(), 4480);
        assert!((placed.expansion - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_fill_fraction_rejected() {
        for bad in [0.0, -0.5, 1.5] {
            let err = build_spare_layout(
                geom(),
                B16,
                SpareConfig {
                    ph_percent: 10.0,
                    fill_fraction: bad,
                    spare_use: SpareUse::LeaveEmpty,
                },
            )
            .unwrap_err();
            assert!(matches!(err, PlacementError::InvalidParameter(_)));
        }
    }

    #[test]
    fn zero_hot_leaves_spare_empty_even_when_filling() {
        let placed = build_spare_layout(
            geom(),
            B16,
            SpareConfig {
                ph_percent: 0.0,
                fill_fraction: 0.4,
                spare_use: SpareUse::FillWithReplicas,
            },
        )
        .unwrap();
        let c = &placed.catalog;
        assert_eq!(c.hot_count(), 0);
        assert_eq!(c.total_copies(), u64::from(c.num_blocks()));
    }
}
