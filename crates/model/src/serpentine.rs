//! Serpentine tape model — the tape technology the paper scopes out.
//!
//! Section 2: "The algorithms in this paper would need to be modified for
//! serpentine tapes such as Travan, Quantum DLT, and IBM 3590." On a
//! serpentine drive the logical block numbering snakes across parallel
//! tracks: track 0 runs down the tape, track 1 runs back, and so on.
//! Consequently the *logical* distance between two blocks says little
//! about the *physical* locate cost — blocks at similar longitudinal
//! positions on different tracks are near each other, while consecutive
//! logical blocks at a track boundary sit at the same tape end.
//!
//! This module models that geometry: a logical slot maps to a
//! `(track, longitudinal position, direction)` triple, and a locate costs
//! a longitudinal seek (the tape moves under the head) plus a track
//! switch (the head steps laterally). The `ext_serpentine` experiment
//! uses it to show *why* the paper's single-pass sweep needs modification,
//! and what a serpentine-aware ordering buys.

use crate::drive::ReadModel;
use crate::time::Micros;
use crate::units::{BlockSize, SlotIndex};

/// Layout of a serpentine tape: `tracks` parallel tracks, each holding
/// `track_length_mb` megabytes, logical numbering snaking between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerpentineGeometry {
    /// Number of tracks (always >= 1).
    pub tracks: u32,
    /// Megabytes per track.
    pub track_length_mb: u64,
}

impl SerpentineGeometry {
    /// A DLT-like layout: 7168 MB (the paper's 7 GB tape) over 52 tracks.
    pub fn dlt_like() -> Self {
        SerpentineGeometry {
            tracks: 52,
            track_length_mb: 7168_u64.div_ceil(52),
        }
    }

    /// Creates a geometry.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(tracks: u32, track_length_mb: u64) -> Self {
        assert!(tracks > 0 && track_length_mb > 0, "degenerate geometry");
        SerpentineGeometry {
            tracks,
            track_length_mb,
        }
    }

    /// Total capacity in megabytes.
    pub fn capacity_mb(&self) -> u64 {
        self.tracks as u64 * self.track_length_mb
    }

    /// Number of whole block slots on the tape.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "capacity / block size fits u32 slots"
    )]
    pub fn slots(&self, block: BlockSize) -> u32 {
        (self.capacity_mb() / block.mb_u64()) as u32
    }

    /// Physical position of a logical slot: `(track, longitudinal MB at
    /// the slot's start, reads_forward)`. Even tracks read away from the
    /// load point, odd tracks read back toward it.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "track count is asserted below capacity"
    )]
    pub fn position_of(&self, slot: SlotIndex, block: BlockSize) -> SerpentinePos {
        let slot_mb = block.mb_u64();
        let offset_mb = slot.0 as u64 * slot_mb;
        let track = (offset_mb / self.track_length_mb) as u32;
        assert!(track < self.tracks, "slot beyond tape capacity");
        let within = offset_mb % self.track_length_mb;
        let forward = track.is_multiple_of(2);
        let x_mb = if forward {
            within
        } else {
            // Odd tracks are laid out end-to-start; a block that straddles
            // the track boundary saturates at the load point.
            self.track_length_mb.saturating_sub(within + slot_mb)
        };
        SerpentinePos {
            track,
            x_mb,
            forward,
        }
    }
}

/// Physical location of a block on a serpentine tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerpentinePos {
    /// Track index (0-based).
    pub track: u32,
    /// Longitudinal distance of the block's start from the load point, in
    /// MB of tape.
    pub x_mb: u64,
    /// Whether the block is read moving away from the load point.
    pub forward: bool,
}

/// Timing model of a serpentine drive.
#[derive(Debug, Clone, PartialEq)]
pub struct SerpentineModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Tape layout.
    pub geometry: SerpentineGeometry,
    /// Fixed cost of any repositioning (ramp up/down, settle).
    pub seek_startup_s: f64,
    /// Longitudinal tape motion, seconds per MB of tape passed (the tape
    /// shuttles at search speed in either direction).
    pub seek_per_mb_s: f64,
    /// Head step between adjacent tracks.
    pub track_step_s: f64,
    /// Transfer model (per-block read cost).
    pub read: ReadModel,
}

impl SerpentineModel {
    /// A plausible DLT-7000-class drive: 5 MB/s streaming, ~45 s average
    /// access, fast track stepping.
    pub fn dlt_like() -> Self {
        SerpentineModel {
            name: "DLT-class serpentine drive",
            geometry: SerpentineGeometry::dlt_like(),
            seek_startup_s: 6.0,
            seek_per_mb_s: 0.55, // ~75 s to shuttle a full 138 MB track
            track_step_s: 2.0,
            read: ReadModel {
                after_forward_startup_s: 0.2,
                per_mb_s: 0.2, // 5 MB/s streaming
            },
        }
    }

    /// Locate time from the head parked after `from` to the start of `to`.
    /// `from = None` means the head is at the load point (track 0, x 0).
    pub fn locate(&self, from: Option<SlotIndex>, to: SlotIndex, block: BlockSize) -> Micros {
        // Reading the next logical block continues the stream: the head
        // is already positioned (track changes at a snake turn-around are
        // folded into the drive's streaming behaviour, as on real
        // serpentine drives).
        if let Some(f) = from {
            if to.0 == f.0 + 1 {
                return Micros::ZERO;
            }
        }
        let (fx, ft) = match from {
            None => (0u64, 0u32),
            Some(s) => {
                let p = self.geometry.position_of(s, block);
                // Approximating the post-read head position with the
                // block's start keeps the model simple and symmetric.
                (p.x_mb, p.track)
            }
        };
        let tp = self.geometry.position_of(to, block);
        if fx == tp.x_mb && ft == tp.track && from.is_some() {
            return Micros::ZERO;
        }
        let dx = fx.abs_diff(tp.x_mb);
        let dt = ft.abs_diff(tp.track);
        let secs = self.seek_startup_s
            + self.seek_per_mb_s * crate::units::mb_f64(dx)
            + self.track_step_s * f64::from(dt);
        Micros::from_secs_f64(secs)
    }

    /// Time to read one block (serpentine transfers do not depend on the
    /// preceding locate direction).
    pub fn read_block(&self, block: BlockSize) -> Micros {
        Micros::from_secs_f64(
            self.read.after_forward_startup_s + self.read.per_mb_s * block.mb_f64(),
        )
    }

    /// Total time to service `stops` in the given order from the load
    /// point: locate + read for each stop.
    pub fn service_time(&self, stops: &[SlotIndex], block: BlockSize) -> Micros {
        let mut total = Micros::ZERO;
        let mut head: Option<SlotIndex> = None;
        for &s in stops {
            total += self.locate(head, s, block) + self.read_block(block);
            head = Some(s);
        }
        total
    }
}

/// Orders requested slots the way the paper's single-pass sweep would:
/// ascending logical position. On a serpentine tape the logical numbering
/// already snakes, so this is a boustrophedon that visits the tracks in
/// order — fine for *dense* request sets, but it pays a longitudinal
/// shuttle per track even when only one block per track is wanted.
pub fn logical_sweep_order(mut slots: Vec<SlotIndex>) -> Vec<SlotIndex> {
    slots.sort_unstable();
    slots
}

/// Greedy nearest-neighbor order under the serpentine cost model: from
/// the load point, repeatedly visit the cheapest unvisited stop. `O(n^2)`.
pub fn nearest_neighbor_order(
    model: &SerpentineModel,
    block: BlockSize,
    mut slots: Vec<SlotIndex>,
) -> Vec<SlotIndex> {
    let mut out = Vec::with_capacity(slots.len());
    let mut head: Option<SlotIndex> = None;
    while !slots.is_empty() {
        #[expect(
            clippy::expect_used,
            reason = "the loop condition ensures slots is non-empty"
        )]
        let (i, _) = slots
            .iter()
            .enumerate()
            .map(|(i, &s)| (i, model.locate(head, s, block)))
            .min_by_key(|&(i, c)| (c, i))
            .expect("non-empty");
        let s = slots.swap_remove(i);
        out.push(s);
        head = Some(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SerpentineModel {
        SerpentineModel::dlt_like()
    }

    const B16: BlockSize = BlockSize::PAPER_DEFAULT;

    #[test]
    fn geometry_snakes_across_tracks() {
        let g = SerpentineGeometry::new(4, 160); // 10 slots of 16 MB/track
        assert_eq!(g.capacity_mb(), 640);
        assert_eq!(g.slots(B16), 40);
        // Track 0 runs forward.
        let p0 = g.position_of(SlotIndex(0), B16);
        assert_eq!((p0.track, p0.x_mb, p0.forward), (0, 0, true));
        let p9 = g.position_of(SlotIndex(9), B16);
        assert_eq!((p9.track, p9.x_mb), (0, 144));
        // Track 1 runs backward: slot 10 sits at the far end.
        let p10 = g.position_of(SlotIndex(10), B16);
        assert_eq!((p10.track, p10.x_mb, p10.forward), (1, 144, false));
        let p19 = g.position_of(SlotIndex(19), B16);
        assert_eq!((p19.track, p19.x_mb), (1, 0));
        // Track 2 forward again.
        let p20 = g.position_of(SlotIndex(20), B16);
        assert_eq!((p20.track, p20.x_mb, p20.forward), (2, 0, true));
    }

    #[test]
    fn adjacent_logical_blocks_at_track_boundary_are_physically_close() {
        let g = SerpentineGeometry::new(4, 160);
        let m = SerpentineModel {
            geometry: g,
            ..model()
        };
        // Slots 9 and 10 straddle the track-0/1 boundary: both at the far
        // end of the tape, one track apart -> cheap locate.
        let boundary = m.locate(Some(SlotIndex(9)), SlotIndex(10), B16);
        // Slots 9 and 19: same track distance but full tape length apart.
        let far = m.locate(Some(SlotIndex(9)), SlotIndex(19), B16);
        assert!(boundary < far, "{boundary} !< {far}");
    }

    #[test]
    fn locate_costs_are_symmetric_and_zero_at_rest() {
        let m = model();
        assert_eq!(
            m.locate(Some(SlotIndex(5)), SlotIndex(5), B16),
            Micros::ZERO
        );
        let ab = m.locate(Some(SlotIndex(3)), SlotIndex(40), B16);
        let ba = m.locate(Some(SlotIndex(40)), SlotIndex(3), B16);
        assert_eq!(ab, ba);
    }

    #[test]
    fn nearest_neighbor_beats_logical_sweep_on_sparse_requests() {
        // One request at the *start* of every track. The logical sweep
        // (the paper's ordering) shuttles the full tape length between
        // every pair of tracks; the cost-model-aware order reads all the
        // near-end blocks first, shuttles once, and reads the far-end
        // blocks on the other side.
        let g = SerpentineGeometry::new(10, 160); // 10 slots of 16 MB/track
        let m = SerpentineModel {
            geometry: g,
            ..model()
        };
        let slots: Vec<SlotIndex> = (0..10).map(|t| SlotIndex(t * 10)).collect();
        let logical = m.service_time(&logical_sweep_order(slots.clone()), B16);
        let greedy = m.service_time(&nearest_neighbor_order(&m, B16, slots), B16);
        assert!(
            greedy.as_secs_f64() < 0.5 * logical.as_secs_f64(),
            "greedy {greedy} not well below logical {logical}"
        );
    }

    #[test]
    fn dense_requests_leave_little_room_for_improvement() {
        // With every slot requested, the logical snake order is already
        // near-optimal; nearest-neighbor cannot beat it by much.
        let g = SerpentineGeometry::new(4, 160);
        let m = SerpentineModel {
            geometry: g,
            ..model()
        };
        let slots: Vec<SlotIndex> = (0..g.slots(B16)).map(SlotIndex).collect();
        let logical = m.service_time(&logical_sweep_order(slots.clone()), B16);
        let greedy = m.service_time(&nearest_neighbor_order(&m, B16, slots), B16);
        assert!(greedy.as_secs_f64() > 0.8 * logical.as_secs_f64());
    }

    #[test]
    fn orders_are_permutations() {
        let m = model();
        let slots: Vec<SlotIndex> = vec![5, 100, 17, 300, 222, 8]
            .into_iter()
            .map(SlotIndex)
            .collect();
        for order in [
            logical_sweep_order(slots.clone()),
            nearest_neighbor_order(&m, B16, slots.clone()),
        ] {
            let mut a = order.clone();
            let mut b = slots.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn service_time_accumulates_reads() {
        let m = model();
        let one = m.service_time(&[SlotIndex(10)], B16);
        let two = m.service_time(&[SlotIndex(10), SlotIndex(11)], B16);
        assert!(two > one);
        assert!(two >= one + m.read_block(B16));
    }

    #[test]
    #[should_panic(expected = "beyond tape capacity")]
    fn out_of_range_slot_rejected() {
        let g = SerpentineGeometry::new(2, 160);
        g.position_of(SlotIndex(100), B16);
    }
}
