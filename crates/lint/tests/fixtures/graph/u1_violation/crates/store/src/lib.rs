//! Fixture: one live export, one dead one — u1 must name exactly the
//! dead item and leave the referenced one alone.
#![forbid(unsafe_code)]

/// Called from the example — live.
pub fn live_api() -> u64 {
    41
}

/// Called from no library, bin, example, or benchmark code — the
/// rule's target.
pub fn dead_api() -> u64 {
    42
}
