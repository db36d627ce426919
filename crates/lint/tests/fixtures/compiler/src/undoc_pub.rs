//! s3-doc violation fixture, now `missing_docs`: public items must be
//! doc-commented.

/// A documented item separating the module docs from the offenders.
pub const SEVEN: u64 = 7;

pub fn undocumented() -> u64 {
    SEVEN
}

pub struct AlsoUndocumented {
    /// Field docs do not rescue the type itself.
    pub field: u64,
}
