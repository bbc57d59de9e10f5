//! Storage units, tape addressing, and jukebox geometry.
//!
//! The unit of storage is a fixed-size *data block* (Section 2 of the paper).
//! Blocks are stored on tape in *physical positions* ("slots") that are
//! consecutively numbered from 0 at the beginning of the tape. The drive's
//! locate model (Section 2.1) is calibrated in megabytes of tape traversed,
//! so distances are always `slot distance x block size in MB`.

use std::fmt;

/// Identifier of a tape within one jukebox.
///
/// The jukebox order used for tie-breaking by the scheduling algorithms is
/// the ascending order of these identifiers ("ascending order of slot
/// number" in the paper's terminology), treated circularly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TapeId(pub u16);

impl TapeId {
    /// The index as a usize, for indexing per-tape tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TapeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tape{}", self.0)
    }
}

/// Physical position of a block on a tape, in block slots from the
/// beginning of tape (slot 0 is the physical beginning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotIndex(pub u32);

impl SlotIndex {
    /// The beginning of tape.
    pub const BOT: SlotIndex = SlotIndex(0);

    /// The slot index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The next slot up-tape (the head position after reading this slot).
    #[inline]
    pub fn next(self) -> SlotIndex {
        SlotIndex(self.0 + 1)
    }

    /// Absolute distance to another slot, in slots.
    #[inline]
    pub fn distance(self, other: SlotIndex) -> u32 {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Display for SlotIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// A physical block address: a tape and a slot on that tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysicalAddr {
    /// The tape holding the copy.
    pub tape: TapeId,
    /// The slot within the tape.
    pub slot: SlotIndex,
}

impl fmt::Display for PhysicalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.tape, self.slot)
    }
}

/// The fixed logical block size of a jukebox, in whole megabytes.
///
/// The paper studies block sizes from under 1 MB to 64 MB (Figure 3) and
/// settles on 16 MB for all subsequent experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockSize {
    mb: u32,
}

impl BlockSize {
    /// The paper's chosen block size for Sections 4.2-4.8.
    pub const PAPER_DEFAULT: BlockSize = BlockSize { mb: 16 };

    /// Creates a block size of `mb` megabytes.
    ///
    /// # Panics
    /// Panics if `mb` is zero.
    pub fn from_mb(mb: u32) -> Self {
        assert!(mb > 0, "block size must be at least 1 MB");
        BlockSize { mb }
    }

    /// The block size in megabytes.
    #[inline]
    pub fn mb(self) -> u32 {
        self.mb
    }

    /// The block size in bytes (1 MB = 2^20 bytes).
    #[inline]
    pub fn bytes(self) -> u64 {
        self.mb as u64 * (1 << 20)
    }

    /// Tape distance in megabytes covered by moving `slots` block slots.
    #[inline]
    pub fn slots_to_mb(self, slots: u32) -> u64 {
        slots as u64 * self.mb as u64
    }

    /// The block size in whole megabytes as a `u64`, for capacity
    /// arithmetic against [`JukeboxGeometry`] totals.
    #[inline]
    pub fn mb_u64(self) -> u64 {
        u64::from(self.mb)
    }

    /// The block size in megabytes as an `f64`, for the continuous
    /// Section 2.1 timing polynomials (lossless: block sizes are small).
    #[inline]
    pub fn mb_f64(self) -> f64 {
        f64::from(self.mb)
    }
}

/// A raw megabyte count entering the continuous timing model.
///
/// This is the single sanctioned `u64 -> f64` crossing for tape
/// distances; everything downstream of it is fitted-model arithmetic in
/// seconds. Distances are bounded by tape capacity (a few thousand MB),
/// far below `f64`'s 2^53 integer range, so the conversion is exact.
#[inline]
#[expect(
    clippy::cast_precision_loss,
    reason = "exact for any physical tape length"
)]
pub fn mb_f64(mb: u64) -> f64 {
    mb as f64
}

/// A raw byte count in kilobytes (1 KB = 2^10 bytes), for throughput
/// reporting. The sanctioned `u64 -> f64` crossing for data volumes.
#[inline]
#[expect(clippy::cast_precision_loss, reason = "exact below 8 PB delivered")]
pub fn bytes_to_kb_f64(bytes: u64) -> f64 {
    bytes as f64 / 1024.0
}

impl fmt::Display for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MB", self.mb)
    }
}

/// Static geometry of one jukebox: how many tapes it holds and how large
/// each tape is.
///
/// The paper's experiments model an Exabyte EXB-210 library: 10 tapes of
/// 7 GB each (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JukeboxGeometry {
    /// Number of tapes in the jukebox.
    pub tapes: u16,
    /// Capacity of each tape in megabytes.
    pub tape_capacity_mb: u64,
}

impl JukeboxGeometry {
    /// The paper's configuration: 10 tapes x 7 GB.
    pub const PAPER_DEFAULT: JukeboxGeometry = JukeboxGeometry {
        tapes: 10,
        tape_capacity_mb: 7 * 1024,
    };

    /// A small 5-tape variant used by the paper's Section 4.8 sensitivity
    /// check.
    pub const FIVE_TAPE: JukeboxGeometry = JukeboxGeometry {
        tapes: 5,
        tape_capacity_mb: 7 * 1024,
    };

    /// Creates a geometry.
    ///
    /// # Panics
    /// Panics if `tapes` or `tape_capacity_mb` is zero.
    pub fn new(tapes: u16, tape_capacity_mb: u64) -> Self {
        assert!(tapes > 0, "jukebox must hold at least one tape");
        assert!(tape_capacity_mb > 0, "tape capacity must be positive");
        JukeboxGeometry {
            tapes,
            tape_capacity_mb,
        }
    }

    /// Number of whole block slots per tape for a given block size.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "capacity / block size fits u32 slots"
    )]
    pub fn slots_per_tape(&self, block: BlockSize) -> u32 {
        (self.tape_capacity_mb / block.mb() as u64) as u32
    }

    /// Total block slots across all tapes.
    #[inline]
    pub fn total_slots(&self, block: BlockSize) -> u64 {
        self.slots_per_tape(block) as u64 * self.tapes as u64
    }

    /// Iterator over all tape identifiers in jukebox order.
    pub fn tape_ids(&self) -> impl Iterator<Item = TapeId> {
        (0..self.tapes).map(TapeId)
    }

    /// The tape after `t` in circular jukebox order.
    #[inline]
    pub fn next_tape(&self, t: TapeId) -> TapeId {
        TapeId((t.0 + 1) % self.tapes)
    }

    /// Circular distance from `from` to `to` moving upward in jukebox
    /// order. Zero when they are equal. Used for the paper's tie-breaking
    /// rule "first in jukebox order starting at the currently mounted tape".
    #[inline]
    pub fn circular_distance(&self, from: TapeId, to: TapeId) -> u16 {
        (to.0 + self.tapes - from.0) % self.tapes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_slot_math() {
        let g = JukeboxGeometry::PAPER_DEFAULT;
        assert_eq!(g.tapes, 10);
        // 7 GB = 7168 MB -> 448 slots of 16 MB.
        assert_eq!(g.slots_per_tape(BlockSize::PAPER_DEFAULT), 448);
        assert_eq!(g.total_slots(BlockSize::PAPER_DEFAULT), 4480);
        // 1 MB blocks -> 7168 slots.
        assert_eq!(g.slots_per_tape(BlockSize::from_mb(1)), 7168);
    }

    #[test]
    fn block_size_conversions() {
        let b = BlockSize::from_mb(16);
        assert_eq!(b.bytes(), 16 * 1024 * 1024);
        assert_eq!(b.slots_to_mb(28), 448);
        assert_eq!(BlockSize::PAPER_DEFAULT, b);
    }

    #[test]
    #[should_panic(expected = "at least 1 MB")]
    fn zero_block_size_rejected() {
        let _ = BlockSize::from_mb(0);
    }

    #[test]
    fn slot_distance_is_symmetric() {
        let a = SlotIndex(10);
        let b = SlotIndex(3);
        assert_eq!(a.distance(b), 7);
        assert_eq!(b.distance(a), 7);
        assert_eq!(a.distance(a), 0);
        assert_eq!(SlotIndex(4).next(), SlotIndex(5));
    }

    #[test]
    fn circular_tape_order() {
        let g = JukeboxGeometry::PAPER_DEFAULT;
        assert_eq!(g.next_tape(TapeId(9)), TapeId(0));
        assert_eq!(g.next_tape(TapeId(3)), TapeId(4));
        assert_eq!(g.circular_distance(TapeId(8), TapeId(2)), 4);
        assert_eq!(g.circular_distance(TapeId(2), TapeId(2)), 0);
        assert_eq!(g.circular_distance(TapeId(2), TapeId(8)), 6);
    }

    #[test]
    fn tape_ids_enumerates_in_order() {
        let g = JukeboxGeometry::new(3, 100);
        let ids: Vec<_> = g.tape_ids().collect();
        assert_eq!(ids, vec![TapeId(0), TapeId(1), TapeId(2)]);
    }

    #[test]
    fn display_impls() {
        let addr = PhysicalAddr {
            tape: TapeId(2),
            slot: SlotIndex(17),
        };
        assert_eq!(addr.to_string(), "tape2:slot17");
        assert_eq!(BlockSize::from_mb(8).to_string(), "8MB");
    }
}
