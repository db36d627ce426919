//! Fixture: five exports that differ only in who names them — u1 must
//! count the example and the benchmark's own code as callers, and no
//! test anywhere.
#![forbid(unsafe_code)]

/// Called from an example — live.
pub fn example_api() -> u64 {
    1
}

/// Called from `benchmark/src` outside its tests — live.
pub fn bench_api() -> u64 {
    2
}

/// Named only by an integration test under `tests/` — dead.
pub fn integration_tested_api() -> u64 {
    3
}

/// Named only inside this file's `#[cfg(test)]` module — dead.
pub fn unit_tested_api() -> u64 {
    4
}

/// Named only by the benchmark's test module — dead.
pub fn bench_tested_api() -> u64 {
    5
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_tested_api_answers() {
        assert_eq!(super::unit_tested_api(), 4);
    }
}
