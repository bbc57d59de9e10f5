//! Fixture: concurrency machinery outside the fork-join sites.
use std::sync::mpsc::Receiver;
use std::sync::Mutex as Lock;

pub fn spawn_worker(n: u64) -> Lock<u64> {
    std::thread::spawn(move || n * 2);
    Lock::new(n)
}

pub fn drain(rx: &Receiver<u64>) -> u64 {
    let mut sum = 0;
    while let Ok(v) = rx.try_recv() {
        sum += v;
    }
    sum
}
