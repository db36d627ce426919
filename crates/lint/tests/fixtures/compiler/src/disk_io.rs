//! s4-io violation fixture, now `clippy::disallowed_methods` and
//! `clippy::disallowed_types`: filesystem access sprinkled through what
//! pretends to be library code. Every disk touch here must fire; the
//! lists cover test code too.

use std::fs;
use std::fs::OpenOptions;

/// `fs::write` through a `use`.
pub fn persist_report(json: &str) -> std::io::Result<()> {
    fs::write("results/report.json", json)
}

/// An `OpenOptions` handle.
pub fn append_log(line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = OpenOptions::new().append(true).open("run.log")?;
    f.write_all(line.as_bytes())
}

/// A fully qualified read.
pub fn slurp() -> std::io::Result<Vec<u8>> {
    std::fs::read("state.bin")
}

/// A `File` handle.
pub fn handle() -> std::io::Result<std::fs::File> {
    std::fs::File::open("state.bin")
}
