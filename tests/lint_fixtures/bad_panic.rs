//! Fixture: panics in library code.
pub fn first(xs: &[u32], m: Option<u32>) -> u32 {
    let a = xs.first().copied().unwrap_or(0);
    let b = m.unwrap();
    let c = m.expect("present");
    if a + b + c == 0 {
        panic!("zero");
    }
    a
}

pub fn pending(kind: u8) -> u32 {
    match kind {
        0 => todo!(),
        1 => unimplemented!(),
        2 => unreachable!(),
        _ => 0,
    }
}
