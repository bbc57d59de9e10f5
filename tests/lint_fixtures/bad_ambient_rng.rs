//! Fixture: OS-seeded randomness breaks replay. The in-tree `rand` shim
//! has no ambient generator, so this does not compile.
pub fn jitter() -> f64 {
    let mut rng = rand::thread_rng();
    let x: f64 = rand::random();
    let _ = &mut rng;
    x
}
