//! The crate's only filesystem touchpoint.
//!
//! Everything else in `tagwatch-store` (and in the analytics durable
//! layer above it) operates on in-memory byte buffers, which is what
//! makes crash/corruption fault injection exact and deterministic.
//! This module is the narrow waist where those buffers meet disk, and
//! it is the *only* library module that may call `std::fs`: the root
//! `clippy.toml` disallows it everywhere else.

#![expect(
    clippy::disallowed_methods,
    reason = "the designated filesystem touchpoint of the library crates"
)]

use std::fs;
use std::path::Path;

use crate::error::StoreError;

fn io_err(path: &Path, err: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: err.to_string(),
    }
}

/// Writes `bytes` to `path`, creating parent directories as needed.
///
/// The write is whole-buffer: durable soak runs build the full WAL in
/// memory and persist it once, so a partially written file only occurs
/// through the scripted storage faults that model it.
///
/// # Errors
///
/// Returns [`StoreError::Io`] if directory creation or the write
/// fails.
pub fn write_bytes<P: AsRef<Path>>(path: P, bytes: &[u8]) -> Result<(), StoreError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| io_err(path, &e))?;
        }
    }
    fs::write(path, bytes).map_err(|e| io_err(path, &e))
}

/// Reads the full contents of `path`.
///
/// # Errors
///
/// Returns [`StoreError::Io`] if the read fails.
pub fn read_bytes<P: AsRef<Path>>(path: P) -> Result<Vec<u8>, StoreError> {
    let path = path.as_ref();
    fs::read(path).map_err(|e| io_err(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join("tagwatch-store-io-tests")
            .join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrips_bytes_and_creates_parents() {
        let path = temp_path("roundtrip").join("nested").join("log.wal");
        let payload = b"TWAL\x01some bytes".to_vec();
        write_bytes(&path, &payload).unwrap();
        assert_eq!(read_bytes(&path).unwrap(), payload);
        std::fs::remove_dir_all(temp_path("roundtrip")).ok();
    }

    #[test]
    fn read_missing_file_is_an_io_error() {
        let err = read_bytes(temp_path("never-written")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        assert!(err.to_string().contains("never-written"));
    }
}
