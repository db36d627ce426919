//! Integration tests for the long-horizon soak subsystem: seed
//! determinism (byte-identical event logs and JSON reports) and the
//! three soak invariants over randomized short schedules.

use proptest::prelude::*;

use tagwatch::analytics::soak::{run_soak_observed_threads, SoakConfig};
use tagwatch::analytics::TickProtocol;
use tagwatch::obs::Obs;

fn base(seed: u64, ticks: u64, protocol: TickProtocol) -> SoakConfig {
    SoakConfig {
        seed,
        ticks,
        protocol,
        burst_period: 20,
        theft_period: 45,
        ..SoakConfig::default()
    }
}

#[test]
fn same_seed_soak_is_byte_identical_including_json() {
    let config = base(11, 90, TickProtocol::Utrp);
    let a = run_soak_observed_threads(&config, &Obs::disabled(), 1).unwrap();
    let b = run_soak_observed_threads(&config, &Obs::disabled(), 1).unwrap();
    assert_eq!(a.log, b.log, "event logs must be byte-identical");
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.recovery_latencies, b.recovery_latencies);
    assert_eq!(a.audit_ticks, b.audit_ticks);
}

#[test]
fn soak_invariants_hold_for_both_protocols() {
    for protocol in [TickProtocol::Trp, TickProtocol::Utrp] {
        let report =
            run_soak_observed_threads(&base(5, 100, protocol), &Obs::disabled(), 1).unwrap();
        assert!(
            report.is_clean(),
            "{protocol:?} violations: {:?}",
            report.violations
        );
        // The run must actually exercise the machinery it claims to:
        assert!(
            report.counts.thefts >= 1,
            "{protocol:?}: no theft scheduled"
        );
        assert!(
            report.counts.escalations >= 1,
            "{protocol:?}: theft never escalated to identification"
        );
        assert!(
            !report.recovery_latencies.is_empty(),
            "{protocol:?}: no incident recovery measured"
        );
        // Every latency respects the detection deadline by construction
        // (a deadline breach is a violation, and the run is clean).
        let deadline = report.config.detection_deadline;
        assert!(report.recovery_latencies.iter().all(|&l| l <= deadline + 1));
    }
}

#[test]
fn log_lines_are_one_per_tick_and_stable_format() {
    let report =
        run_soak_observed_threads(&base(2, 40, TickProtocol::Utrp), &Obs::disabled(), 1).unwrap();
    assert_eq!(report.log.len(), 40);
    for (i, line) in report.log.iter().enumerate() {
        assert!(
            line.starts_with(&format!("t={i:05} level=")),
            "malformed log line {i}: {line}"
        );
        assert!(line.contains("verdict="), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Invariant sweep over random short schedules: whatever the seed
    // and incident cadence, a soak run must finish with zero invariant
    // violations and a log line per tick.
    #[test]
    fn soak_invariants_hold_over_random_short_schedules(
        seed in 1u64..10_000,
        ticks in 40u64..90,
        burst_period in 12u64..35,
        theft_period in 40u64..80,
    ) {
        let config = SoakConfig {
            seed,
            ticks,
            burst_period,
            theft_period,
            ..SoakConfig::default()
        };
        let report = run_soak_observed_threads(&config, &Obs::disabled(), 1).unwrap();
        prop_assert!(
            report.is_clean(),
            "violations for seed {}: {:?}",
            seed,
            report.violations
        );
        prop_assert_eq!(report.log.len() as u64, ticks);
        // Audit frequency is bounded by attribution: in a run this
        // short every audit is near an incident, so the global count
        // stays well below one per tick.
        prop_assert!(report.counts.audits < ticks);
    }
}
