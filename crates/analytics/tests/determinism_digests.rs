//! Regression gate for the determinism refactors: the ordered-map
//! swaps (`HashMap`/`HashSet` → `BTreeMap`/`BTreeSet` in the sim
//! population, replay attacker, and faulty-reader paths) must not move
//! a single byte of any digested export.
//!
//! The anchor is the committed golden digest CI pins
//! (`results/obs_golden_digest.txt`): the same instrumented soak the
//! `obs-smoke` job runs (`--seed 7 --ticks 200`) must reproduce it
//! in-process, byte for byte.

#![forbid(unsafe_code)]

use tagwatch_analytics::soak::{run_soak_observed_threads, SoakConfig};
use tagwatch_analytics::{worker_threads, TickProtocol};
use tagwatch_obs::Obs;

fn golden_digest() -> String {
    include_str!("../../../results/obs_golden_digest.txt")
        .trim()
        .to_string()
}

fn last_fnv64(artifact: &str) -> String {
    artifact
        .lines()
        .rev()
        .find_map(|line| {
            let (_, rest) = line.split_once("fnv64:")?;
            let hex: String = rest.chars().take(16).collect();
            (hex.len() == 16 && hex.chars().all(|c| c.is_ascii_hexdigit()))
                .then(|| format!("fnv64:{hex}"))
        })
        .expect("artifact carries a trailing fnv64 digest")
}

#[test]
fn instrumented_soak_matches_committed_golden_digest() {
    let config = SoakConfig {
        seed: 7,
        ticks: 200,
        ..SoakConfig::default()
    };
    let obs = Obs::new();
    let report = run_soak_observed_threads(&config, &obs, 1).expect("soak runs");
    assert!(report.config.ticks == 200);

    let metrics = obs.snapshot_json();
    assert_eq!(
        last_fnv64(&metrics),
        golden_digest(),
        "metrics digest drifted from results/obs_golden_digest.txt — \
         a determinism refactor changed observable behavior"
    );
}

/// The committed golden digest must hold at EVERY thread count: the
/// pooled round engine is bit-exact, so handing the soak's sessions a
/// multi-thread engine cannot move a byte of the metrics export. (At
/// the golden population size the pool stays below its engagement
/// threshold — this pins the fallback path's byte-identity, which is
/// exactly what protects the committed goldens.)
#[test]
fn golden_digest_holds_at_every_thread_count() {
    let config = SoakConfig {
        seed: 7,
        ticks: 200,
        ..SoakConfig::default()
    };
    for threads in [1usize, 2, 3, worker_threads()] {
        let obs = Obs::new();
        run_soak_observed_threads(&config, &obs, threads).expect("soak runs");
        assert_eq!(
            last_fnv64(&obs.snapshot_json()),
            golden_digest(),
            "metrics digest must match the golden at threads={threads}"
        );
    }
}

/// A population large enough to engage the pooled workers (n above
/// the 8192-active threshold) must still produce byte-identical soak
/// reports and flight traces at every thread count, with exact probe
/// totals. (The full metrics snapshot is excluded: `probes_filtered`
/// counts the per-shard candidate-filter warm-up, which is
/// strategy-dependent by the same documented contract that makes it
/// chunking-dependent in the chunked reference scanner.)
#[test]
fn pool_engaged_soak_is_byte_identical_across_thread_counts() {
    let config = SoakConfig {
        seed: 11,
        ticks: 6,
        n: 10_000,
        protocol: TickProtocol::Utrp,
        ..SoakConfig::default()
    };
    let mut baseline: Option<(String, u64, String, u64)> = None;
    for threads in [1usize, 2, 3] {
        let obs = Obs::new();
        let report = run_soak_observed_threads(&config, &obs, threads).expect("soak runs");
        let artifacts = (
            report.to_json(),
            report.digest(),
            obs.flight_jsonl(),
            obs.counter(obs.m.probes_total),
        );
        match &baseline {
            Some(expected) => assert_eq!(
                &artifacts, expected,
                "soak artifacts must be thread-invariant (threads={threads})"
            ),
            None => baseline = Some(artifacts),
        }
    }
}

#[test]
fn soak_report_is_byte_identical_across_runs() {
    let config = SoakConfig {
        seed: 7,
        ticks: 50,
        ..SoakConfig::default()
    };
    let a = run_soak_observed_threads(&config, &Obs::new(), 1).expect("soak runs");
    let b = run_soak_observed_threads(&config, &Obs::new(), 1).expect("soak runs");
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.digest(), b.digest());
}
