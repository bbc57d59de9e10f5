//! Fixture: partial orders and unstable ties in comparator positions.
pub fn sort_floats(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn unstable(v: &mut [u64]) {
    v.sort_unstable_by(|a, b| b.cmp(a));
}

pub fn unstable_key(v: &mut [(u64, u64)]) {
    v.sort_unstable_by_key(|x| x.1);
}
