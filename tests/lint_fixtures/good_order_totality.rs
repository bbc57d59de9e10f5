//! Fixture: total orders, stable sorts, and integer keys.
use std::cmp::Ordering;

pub fn sort_floats(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

pub fn plain_unstable(v: &mut [u64]) {
    v.sort_unstable();
}

#[derive(PartialEq)]
pub struct Keyed(pub u64);

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.0.cmp(&other.0))
    }
}

pub fn int_key(v: &mut [(u64, u64)]) {
    v.sort_by_key(|x| (x.0, x.1));
}
