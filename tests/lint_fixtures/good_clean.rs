//! Fixture: deterministic, panic-free library code.
use std::collections::BTreeMap;

pub fn index(xs: &[u32]) -> BTreeMap<u32, usize> {
    xs.iter().enumerate().map(|(i, &x)| (x, i)).collect()
}

pub fn first(xs: &[u32]) -> Option<u32> {
    xs.first().copied()
}
