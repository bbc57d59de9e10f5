//! Fixture: lossy casts on unit-carrying values. (Lossless widening casts
//! such as `size_mb as u64` are not reported.)
pub fn report(delay_micros: u64, size_mb: u32) -> f64 {
    let d = delay_micros as f64;
    let s = u64::from(size_mb);
    d + s as f64
}

pub fn narrow(slots: u64, secs: f64) -> (u32, u64) {
    (slots as u32, secs as u64)
}
