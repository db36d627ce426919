//! The write-ahead log format: header plus length-prefixed,
//! FNV-checksummed records.
//!
//! ## Framing
//!
//! A WAL is a 5-byte header followed by zero or more records:
//!
//! ```text
//! header  := "TWAL" version:u8                         (5 bytes)
//! record  := payload_len:u32le  kind:u8  payload:[u8; payload_len]
//!            checksum:u64le                            (13 + payload_len bytes)
//! ```
//!
//! The checksum is FNV-1a over the kind byte followed by the payload —
//! the same hash family (same constants, re-exported by
//! `tagwatch-obs`) that digests metric snapshots and soak reports, so
//! one hash implementation covers every integrity check in the
//! workspace. The length prefix is *not* covered by the checksum; a
//! corrupted length manifests as a record that overruns the remaining
//! bytes (a torn record) or as a checksum landing in the wrong place,
//! both of which the [recovery scanner](crate::recovery) detects.
//!
//! Records carry one of four [`RecordKind`]s, mirroring the
//! flight-recorder vocabulary: the run *configuration*, periodic state
//! *checkpoints*, one *tick* event line per monitoring tick, and
//! *recovery notes* stamped into a log that was itself recovered.

use crate::error::StoreError;
use tagwatch_obs::{FNV_OFFSET_BASIS, FNV_PRIME};

/// The 4-byte magic plus 1-byte format version.
pub const WAL_HEADER_LEN: usize = 5;

/// Magic bytes opening every WAL.
pub const WAL_MAGIC: [u8; 4] = *b"TWAL";

/// Current format version.
pub const WAL_VERSION: u8 = 1;

/// Smallest possible record: empty payload (4 length + 1 kind +
/// 8 checksum bytes).
pub const MIN_RECORD_LEN: usize = 13;

/// What a WAL record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// The serialized run configuration (always the first record, so a
    /// WAL is self-contained for replay).
    Config,
    /// A full state checkpoint (a serialized
    /// [`CheckpointDoc`](crate::checkpoint::CheckpointDoc)).
    Checkpoint,
    /// One monitoring tick's event-log line.
    Tick,
    /// A recovery note stamped by a previous resume from this log.
    Note,
}

impl RecordKind {
    /// The on-disk kind byte.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            RecordKind::Config => 1,
            RecordKind::Checkpoint => 2,
            RecordKind::Tick => 3,
            RecordKind::Note => 4,
        }
    }

    /// Parses an on-disk kind byte.
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<RecordKind> {
        match byte {
            1 => Some(RecordKind::Config),
            2 => Some(RecordKind::Checkpoint),
            3 => Some(RecordKind::Tick),
            4 => Some(RecordKind::Note),
            _ => None,
        }
    }

    /// Human-readable kind name (appears in recovery summaries).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Config => "config",
            RecordKind::Checkpoint => "checkpoint",
            RecordKind::Tick => "tick",
            RecordKind::Note => "note",
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// What the payload holds.
    pub kind: RecordKind,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// FNV-1a over the kind byte followed by the payload.
#[must_use]
pub fn record_checksum(kind: u8, payload: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    hash ^= u64::from(kind);
    hash = hash.wrapping_mul(FNV_PRIME);
    for &byte in payload {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An append-only WAL being built in memory.
///
/// The writer owns the byte buffer; callers persist it with
/// [`crate::io::write_bytes`] (or hand it to a fault plan first, in
/// tests). Appends are infallible — framing cannot fail, and the
/// buffer grows as needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalWriter {
    buf: Vec<u8>,
}

impl WalWriter {
    /// Starts a fresh WAL (header only).
    #[must_use]
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&WAL_MAGIC);
        buf.push(WAL_VERSION);
        WalWriter { buf }
    }

    /// Continues an existing WAL (e.g. a recovered prefix).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadHeader`] if `bytes` does not open with
    /// a valid header; the content past the header is *not* re-scanned
    /// (run [`crate::recovery::recover`] first for that).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        check_header(&bytes)?;
        Ok(WalWriter { buf: bytes })
    }

    /// Appends one record.
    pub fn append(&mut self, kind: RecordKind, payload: &[u8]) {
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.push(kind.as_u8());
        self.buf.extend_from_slice(payload);
        self.buf
            .extend_from_slice(&record_checksum(kind.as_u8(), payload).to_le_bytes());
    }

    /// The bytes written so far (header included).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Total size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the log holds no records (header only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.len() <= WAL_HEADER_LEN
    }

    /// Consumes the writer, returning the backing bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for WalWriter {
    fn default() -> Self {
        WalWriter::new()
    }
}

/// Validates the 5-byte header.
///
/// # Errors
///
/// Returns [`StoreError::BadHeader`] when the stream is shorter than a
/// header, the magic differs, or the version is unsupported.
pub fn check_header(bytes: &[u8]) -> Result<(), StoreError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(StoreError::BadHeader {
            reason: "stream shorter than the 5-byte header",
        });
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(StoreError::BadHeader {
            reason: "magic bytes are not `TWAL`",
        });
    }
    if bytes[4] != WAL_VERSION {
        return Err(StoreError::BadHeader {
            reason: "unsupported format version",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bytes_roundtrip_and_unknowns_are_rejected() {
        for kind in [
            RecordKind::Config,
            RecordKind::Checkpoint,
            RecordKind::Tick,
            RecordKind::Note,
        ] {
            assert_eq!(RecordKind::from_u8(kind.as_u8()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(RecordKind::from_u8(0), None);
        assert_eq!(RecordKind::from_u8(5), None);
        assert_eq!(RecordKind::from_u8(255), None);
    }

    #[test]
    fn append_frames_length_kind_payload_and_checksum() {
        let payload = b"t=00001 verdict=intact";
        let mut writer = WalWriter::new();
        writer.append(RecordKind::Tick, payload);
        let record = &writer.bytes()[WAL_HEADER_LEN..];
        let end = 5 + payload.len();
        assert_eq!(record.len(), MIN_RECORD_LEN + payload.len());
        assert_eq!(record[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(record[4], RecordKind::Tick.as_u8());
        assert_eq!(&record[5..end], payload);
        let checksum = record_checksum(RecordKind::Tick.as_u8(), payload);
        assert_eq!(record[end..], checksum.to_le_bytes());
    }

    #[test]
    fn checksum_covers_kind_and_payload() {
        let base = record_checksum(1, b"abc");
        assert_ne!(base, record_checksum(2, b"abc"), "kind must matter");
        assert_ne!(base, record_checksum(1, b"abd"), "payload must matter");
        assert_eq!(base, record_checksum(1, b"abc"));
    }

    #[test]
    fn header_validation() {
        let writer = WalWriter::new();
        assert!(writer.is_empty());
        check_header(writer.bytes()).unwrap();
        assert!(WalWriter::from_bytes(writer.bytes().to_vec()).is_ok());

        assert!(check_header(b"TWA").is_err());
        assert!(check_header(b"XWAL\x01").is_err());
        assert!(check_header(b"TWAL\x02").is_err());
        assert!(WalWriter::from_bytes(b"junk!".to_vec()).is_err());
    }

    #[test]
    fn writer_tracks_length() {
        let mut writer = WalWriter::new();
        assert_eq!(writer.len(), WAL_HEADER_LEN);
        writer.append(RecordKind::Config, b"seed 1");
        assert!(!writer.is_empty());
        assert_eq!(writer.len(), WAL_HEADER_LEN + MIN_RECORD_LEN + 6);
        let bytes = writer.clone().into_bytes();
        assert_eq!(bytes, writer.bytes());
    }
}
