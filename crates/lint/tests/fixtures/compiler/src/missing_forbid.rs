//! s1-unsafe violation fixture, now `unsafe_code`: no file of this
//! crate carries `#![forbid(unsafe_code)]`, and the unsafe code below
//! still fails, because the flag covers every crate and target. The
//! `static mut` that c1-pool-discipline used to ban is unusable the
//! same way.

static mut ROUNDS: u64 = 0;

/// Bumps a mutable global.
pub fn bump() -> u64 {
    unsafe {
        ROUNDS += 1;
        ROUNDS
    }
}
