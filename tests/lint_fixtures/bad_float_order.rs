//! Fixture: float sort keys and heaps of floats. `f64` is not `Ord`, so
//! this does not compile.
use std::collections::BinaryHeap;

pub fn float_key(v: &mut [u64]) {
    v.sort_by_key(|x| *x as f64);
}

pub fn heap_top(xs: &[(f64, u64)]) -> Option<(f64, u64)> {
    let mut heap = BinaryHeap::new();
    for &x in xs {
        heap.push(x);
    }
    heap.pop()
}
