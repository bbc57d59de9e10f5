//! Fixture: every exception carries a reasoned `#[expect]`.
#[expect(
    clippy::disallowed_types,
    reason = "membership-only set that is never iterated"
)]
use std::collections::HashSet;

#[expect(
    clippy::disallowed_types,
    reason = "membership-only set that is never iterated"
)]
pub fn dedup_count(xs: &[u32]) -> usize {
    let mut seen: HashSet<u32> = HashSet::new();
    for &x in xs {
        seen.insert(x);
    }
    seen.len()
}

pub fn head(xs: &[u32]) -> u32 {
    // The caller guarantees a non-empty slice.
    xs[0]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_expect_and_panic() {
        let n: Option<u32> = "3".parse().ok();
        assert_eq!(n.unwrap(), super::head(&[3]));
        assert_eq!(n.expect("a number"), 3);
        if n.is_none() {
            panic!("not a number");
        }
    }
}
