//! Fixture: unsafe code, and an exception that tries to lift the ban.
//! The lint is forbidden, not denied, so no attribute can lift it.
pub fn first(xs: &[u32]) -> u32 {
    unsafe { *xs.as_ptr() }
}

#[expect(unsafe_code, reason = "a forbidden lint admits no exception")]
pub fn second(xs: &[u32]) -> u32 {
    unsafe { *xs.as_ptr().add(1) }
}
