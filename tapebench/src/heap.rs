//! Peak heap use, counted by a global allocator that forwards to the
//! system allocator.
//!
//! The process's resident-set high-water mark (`VmHWM`) moves by several
//! megabytes between seeds whose allocations are the same size, because
//! the system allocator decides when to map, reuse and return memory. The
//! bytes the program asks for do not move, so they are what the benchmark
//! reports.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The benchmark allocates from one thread, so a load and a store keep the
// counts exact without a locked instruction on every allocation (which
// cost up to 5% of host time on the write-back workload). With several
// threads allocating, updates could be lost. The counters publish no
// other data.
fn grow(by: usize) {
    let live = LIVE.load(Relaxed) + by;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrink(by: usize) {
    LIVE.store(LIVE.load(Relaxed).saturating_sub(by), Relaxed);
}

pub struct Counting;

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what `System` returned, so the `GlobalAlloc` contract holds
// exactly as it does for `System`. The counters never touch the memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence
        // `System`) returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller keeps `new_size` valid
        // for `layout`'s alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap bytes live at once so far, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1u64 << 20) as f64
}
