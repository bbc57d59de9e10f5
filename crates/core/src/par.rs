//! Minimal deterministic fork-join helper for the figure sweeps.
//!
//! The figure drivers fan independent simulation runs (one per sweep
//! point) over the available cores with [`par_map_indexed`]. Results are
//! returned strictly in index order and every job is a pure function of
//! its index, so the output is identical whether the map runs on one
//! thread or many — parallelism here only changes wall time, never
//! values (the same contract `run_seeds` follows for per-seed threads).
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the figure-sweep fork-join owns the threads; results come back in index order"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs `f(i)` for every `i` in `0..n` across the available cores and
/// returns the results in index order.
///
/// Work is handed out through a shared atomic counter, so threads stay
/// busy even when job durations differ wildly (a saturated sweep point
/// can take many times longer than a light one). With a single core —
/// or `n <= 1` — the map degenerates to a plain sequential loop with no
/// thread or lock overhead.
///
/// A panicking job propagates out of the enclosing scope and aborts the
/// whole map, matching the behavior of a sequential loop.
#[expect(
    clippy::expect_used,
    reason = "the scope joins every worker, so each claimed index was filled or the scope already panicked"
)]
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                let mut guard = slots.lock().unwrap_or_else(PoisonError::into_inner);
                guard[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every index claimed and completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = par_map_indexed(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_and_single_maps_work() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn matches_sequential_reference() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
        let seq: Vec<u64> = (0..257).map(f).collect();
        assert_eq!(par_map_indexed(257, f), seq);
    }
}
