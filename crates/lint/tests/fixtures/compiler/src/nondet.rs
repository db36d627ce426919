//! d1-nondeterminism violation fixture, now `clippy::disallowed_types`
//! and `clippy::disallowed_methods`: nondeterminism sources reachable
//! from exports.

use std::collections::HashMap;
use std::time::Instant;

/// Wall-clock reads poison digest reproducibility.
pub fn stamp() -> u128 {
    let t = Instant::now();
    let _ = std::time::SystemTime::now();
    t.elapsed().as_nanos()
}

/// Unordered iteration poisons export ordering.
pub fn sum(map: &HashMap<u64, u64>) -> u64 {
    map.values().sum()
}

/// Scheduler identity and the environment are inputs no seed fixes.
pub fn ambient() -> String {
    format!("{:?} {:?}", std::thread::current().id(), std::env::var("HOME"))
}
