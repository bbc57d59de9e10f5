//! Fixture: deterministic fan-out with a reasoned expect and a counted drain.
use std::sync::mpsc::Receiver;

#[expect(
    clippy::disallowed_methods,
    reason = "per-seed fork-join joined in seed order"
)]
pub fn run(seeds: &[u64]) -> Vec<u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds.iter().map(|&s| scope.spawn(move || s * 2)).collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    })
}

pub fn counted(rx: &Receiver<u64>, n: usize) -> Vec<u64> {
    (0..n).map(|_| rx.recv().unwrap_or_default()).collect()
}
