//! Fixture: a concurrency primitive escaping the designated pool
//! modules — a c1-pool-discipline violation.
#![forbid(unsafe_code)]

use std::sync::Mutex;

/// Guards a counter with a lock that does not belong in this crate.
pub fn guarded() -> u64 {
    let m = Mutex::new(7u64);
    match m.lock() {
        Ok(v) => *v,
        Err(_) => 0,
    }
}
