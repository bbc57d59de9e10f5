//! Fixture: shared-mutable state captured by a worker. `RefCell` is not
//! `Sync`, so this does not compile.
use std::cell::RefCell;

pub fn shared(n: u64) -> u64 {
    let cell = RefCell::new(n);
    std::thread::scope(|s| {
        s.spawn(|| *cell.borrow_mut() += 1);
    });
    cell.into_inner()
}
