//! Fixture: exceptions must be `#[expect]` with a reason.
use std::collections::BTreeMap;

#[allow(clippy::unwrap_used, reason = "an allow never reports going stale")]
pub fn allowed(m: Option<u32>) -> u32 {
    m.unwrap()
}

#[expect(clippy::unwrap_used)]
pub fn unreasoned(m: Option<u32>) -> u32 {
    m.unwrap()
}

#[expect(clippy::unwrap_used, reason = "nothing here unwraps")]
pub fn stale(m: &BTreeMap<u32, u32>) -> usize {
    m.len()
}
