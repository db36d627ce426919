//! s2-panic violation fixture, now `clippy::{unwrap_used, expect_used,
//! panic, todo}`: every panic path in library position.

/// Four distinct panic paths.
pub fn all_the_panics(x: Option<u64>, y: Result<u64, ()>) -> u64 {
    let a = x.unwrap();
    let b = y.expect("nope");
    if a > b {
        panic!("a > b");
    }
    todo!()
}
