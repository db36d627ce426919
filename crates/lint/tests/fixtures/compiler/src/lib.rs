//! Violation fixtures for the compiler lints that replaced
//! `tagwatch-lint`'s lexical rules. The header below is a library
//! crate's, minus `#![forbid(unsafe_code)]`, which `-F unsafe_code`
//! makes unnecessary.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod disk_io;
pub mod missing_forbid;
pub mod nondet;
pub mod panics;
pub mod undoc_pub;
