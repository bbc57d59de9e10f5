//! Fixture: the shared-state types, channel calls and host-parallelism
//! query that `bad_par_contract` leaves out, one to a line, so that each
//! entry of the disallow-lists has a line of its own.
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;

pub struct Shared {
    pub rw: std::sync::RwLock<u8>,
    pub cv: std::sync::Condvar,
    pub barrier: std::sync::Barrier,
    pub once: std::sync::OnceLock<u8>,
    pub lazy: std::sync::LazyLock<u8>,
    pub flag: std::sync::atomic::AtomicBool,
    pub i8: std::sync::atomic::AtomicI8,
    pub i16: std::sync::atomic::AtomicI16,
    pub i32: std::sync::atomic::AtomicI32,
    pub i64: std::sync::atomic::AtomicI64,
    pub isize: std::sync::atomic::AtomicIsize,
    pub ptr: std::sync::atomic::AtomicPtr<u8>,
    pub u8: std::sync::atomic::AtomicU8,
    pub u16: std::sync::atomic::AtomicU16,
    pub u32: std::sync::atomic::AtomicU32,
    pub u64: std::sync::atomic::AtomicU64,
    pub usize: std::sync::atomic::AtomicUsize,
}

pub fn fan_in(rx: &Receiver<u64>) -> u64 {
    let _ = mpsc::channel::<u64>();
    let _ = mpsc::sync_channel::<u64>(1);
    let _ = std::thread::available_parallelism();
    let _ = rx.recv_timeout(Duration::ZERO);
    rx.try_iter().sum()
}
