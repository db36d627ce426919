//! # tagwatch-store
//!
//! Crash-safe durable state for the tagwatch monitoring stack: a
//! length-prefixed, FNV-checksummed **write-ahead log** ([`wal`]), a
//! deterministic sectioned **checkpoint document** ([`checkpoint`]),
//! and a **recovery manager** ([`recovery`]) that scans a possibly
//! damaged log back to its longest intact prefix and says exactly what
//! it had to drop.
//!
//! The design contract, shared with `docs/DURABILITY.md`:
//!
//! * **Replayability** — a WAL plus the run configuration is
//!   sufficient to reproduce the uninterrupted run byte-for-byte:
//!   warm restart = load the last checkpoint + replay the tick tail,
//!   and the resumed run's report digest must equal the never-crashed
//!   baseline's.
//! * **No silent false intact** — a torn write, flipped bit, or
//!   truncated tail is always *detected* (per-record checksums plus
//!   framing) and always *surfaced* as an attributable
//!   [`recovery::RecoveryNote`]; recovery may cost
//!   re-execution of lost ticks, never an unreported gap.
//! * **Determinism** — encoding is fully specified (little-endian
//!   framing, text checkpoints); the same state always produces the
//!   same bytes, so WALs themselves can be diffed and digested in CI.
//!
//! File I/O is quarantined in [`io`] — the rest of the crate works on
//! byte slices, which is what keeps the fault-injection tests honest;
//! the root `clippy.toml` disallows `std::fs` in every other module.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod error;
pub mod io;
pub mod recovery;
pub mod wal;

pub use checkpoint::CheckpointDoc;
pub use error::StoreError;
pub use recovery::{recover, CorruptionKind, Recovered, RecoveryNote};
pub use wal::{Record, RecordKind, WalWriter, MIN_RECORD_LEN, WAL_HEADER_LEN};
