//! End-to-end durability guarantees: a soak killed at *any* scripted
//! tick — with or without scripted media damage — resumes from its WAL
//! to a report byte-identical to the never-crashed baseline's.

use tagwatch_analytics::{
    resume_soak_durable, run_soak_durable_observed, run_soak_observed_threads, DurableConfig,
    SoakConfig, TickProtocol,
};
use tagwatch_obs::Obs;
use tagwatch_sim::{StorageFault, StorageFaultPlan};

/// Small but fully scripted: desync/crash bursts at ticks 15/30/45, a
/// theft at 30, so the kill sweep crosses every incident type while
/// staying fast enough for the debug-mode test tier.
fn short(protocol: TickProtocol) -> SoakConfig {
    SoakConfig {
        ticks: 60,
        n: 30,
        burst_period: 15,
        theft_period: 30,
        protocol,
        ..SoakConfig::default()
    }
}

fn durable(soak: SoakConfig, fault: StorageFaultPlan) -> DurableConfig {
    DurableConfig {
        soak,
        checkpoint_every: 13,
        fault,
        policy: None,
    }
}

/// The tentpole acceptance sweep: kill at EVERY tick of the scripted
/// 120-tick UTRP soak (thefts, desync bursts, crashes and all), resume
/// each WAL, and demand the resumed report equals the uninterrupted
/// baseline byte for byte — log, digest, and JSON.
#[test]
fn kill_at_every_tick_resumes_to_identical_report() {
    let soak = short(TickProtocol::Utrp);
    let baseline = run_soak_observed_threads(&soak, &Obs::disabled(), 1).unwrap();
    for crash_tick in 0..soak.ticks {
        let config = durable(soak, StorageFaultPlan::new().crash_at_tick(crash_tick));
        let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
        assert_eq!(outcome.interrupted_at, Some(crash_tick));
        let resumed = resume_soak_durable(&outcome.wal)
            .unwrap_or_else(|e| panic!("resume after crash at {crash_tick} failed: {e}"));
        assert!(resumed.recovery.is_empty(), "clean kill at {crash_tick}");
        assert_eq!(
            resumed.resumed_from,
            if crash_tick == 0 {
                0
            } else {
                (crash_tick - 1) / config.checkpoint_every * config.checkpoint_every
            },
            "crash at {crash_tick}"
        );
        assert_eq!(resumed.report.log, baseline.log, "crash at {crash_tick}");
        assert_eq!(
            resumed.report.digest(),
            baseline.digest(),
            "crash at {crash_tick}"
        );
        assert_eq!(
            resumed.report.to_json(),
            baseline.to_json(),
            "crash at {crash_tick}"
        );
    }
}

/// Same guarantee under TRP, and with damage riding on the crash: a
/// sampled grid of kill ticks, each paired with every corruption kind.
#[test]
fn damaged_crashes_across_protocols_still_converge() {
    for protocol in [TickProtocol::Trp, TickProtocol::Utrp] {
        let soak = short(protocol);
        let baseline = run_soak_observed_threads(&soak, &Obs::disabled(), 1).unwrap();
        for crash_tick in [1, 12, 13, 29, 30, 31, 45, 59] {
            for fault in [
                StorageFault::TornWrite { drop_bytes: 9 },
                StorageFault::BitFlip {
                    offset_from_end: 15,
                    bit: 6,
                },
                StorageFault::TruncateTail { drop_bytes: 300 },
            ] {
                let config = durable(
                    soak,
                    StorageFaultPlan::new()
                        .crash_at_tick(crash_tick)
                        .with_damage(fault),
                );
                let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
                let resumed = resume_soak_durable(&outcome.wal)
                    .unwrap_or_else(|e| panic!("{protocol:?} crash {crash_tick} {fault:?}: {e}"));
                assert_eq!(
                    resumed.recovery.len(),
                    1,
                    "{protocol:?} crash {crash_tick} {fault:?} must be attributed"
                );
                assert_eq!(
                    resumed.report.digest(),
                    baseline.digest(),
                    "{protocol:?} crash {crash_tick} {fault:?}"
                );
                assert_eq!(
                    resumed.report.log, baseline.log,
                    "{protocol:?} crash {crash_tick} {fault:?}"
                );
            }
        }
    }
}

/// A resumed WAL is itself durable: crash the first run, resume it,
/// then damage and re-resume the *completed* WAL — recovery excises
/// the damage and replay re-verifies every tick back to the same
/// digest. Double faults do not compound.
#[test]
fn double_crash_recovery_is_stable() {
    let soak = short(TickProtocol::Utrp);
    let baseline = run_soak_observed_threads(&soak, &Obs::disabled(), 1).unwrap();

    let config = durable(
        soak,
        StorageFaultPlan::new()
            .crash_at_tick(47)
            .with_damage(StorageFault::TornWrite { drop_bytes: 5 }),
    );
    let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
    let first = resume_soak_durable(&outcome.wal).unwrap();
    assert_eq!(first.recovery.len(), 1);
    assert_eq!(first.report.digest(), baseline.digest());

    // Second fault: chop the tail off the completed WAL and resume it.
    let mut damaged = first.wal.clone();
    StorageFault::TruncateTail { drop_bytes: 500 }.apply(&mut damaged);
    let second = resume_soak_durable(&damaged).unwrap();
    assert_eq!(second.recovery.len(), 1, "second fault attributed too");
    assert_eq!(second.report.digest(), baseline.digest());
    assert_eq!(second.report.log, baseline.log);
    assert_eq!(second.report.to_json(), baseline.to_json());
}
