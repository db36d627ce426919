//! Fixture: an allow escape whose violation has since been fixed — the
//! stale-allow audit must flag it instead of letting it linger.
#![forbid(unsafe_code)]

/// The example has called this since the escape was written.
// lint:allow(u1-dead-pub): oracle: only a test used to call this
pub fn robust() -> u64 {
    7
}
