//! Fixture: one export called only from the benchmark package, one
//! called from nowhere — u1 must name exactly the dead item.
#![forbid(unsafe_code)]

/// Called only from `benchmark/src` — live.
pub fn bench_only_api() -> u64 {
    41
}

/// Referenced nowhere in any bin, test, benchmark, or facade — the
/// rule's target.
pub fn dead_api() -> u64 {
    42
}
