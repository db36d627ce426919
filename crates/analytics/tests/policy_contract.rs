//! Contract tests for the `tagwatch-policy v1` document format.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Round-trip exactness** — for any valid policy, the canonical
//!    document (`to_text`) and the flat embedding (`to_flat_lines`)
//!    both parse back to an identical `Policy`. The WAL and the
//!    checkpoint rely on this: a policy that drifts through its own
//!    serialization would silently change a recovered run.
//! 2. **Default-document equivalence** — the default policy *written
//!    out as a document and parsed back* drives the instrumented
//!    seed-7 soak to the committed golden digests byte-for-byte
//!    (`results/obs_golden_digest.txt` and
//!    `results/soak_golden_digest.txt`). The policy engine is a
//!    redesign of the session API, not a behavior change.

#![forbid(unsafe_code)]

use std::path::Path;

use proptest::prelude::*;
use tagwatch_analytics::soak::{run_soak_policy_observed_threads, SoakConfig};
use tagwatch_analytics::{EscalateAction, Policy, TickProtocol};
use tagwatch_core::IdentifyConfig;
use tagwatch_obs::Obs;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{name}"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn valid_policies_round_trip_through_text_and_flat_lines(
        site_idx in 0usize..4,
        site_suffix in 0u32..1000,
        utrp in any::<bool>(),
        alarms in 1u32..12,
        retries in 0u32..8,
        quarantine in 0u32..8,
        window in 0u64..512,
        budget in 0u32..64,
        audit_window in 1u64..512,
        report_action in any::<bool>(),
        frame_factor in 1u64..8,
        max_rounds in 1u32..128,
    ) {
        let sites = ["dock", "aisle", "coldroom", "yard"];
        let policy = Policy {
            site: format!("{}-{site_suffix}", sites[site_idx]),
            protocol: if utrp { TickProtocol::Utrp } else { TickProtocol::Trp },
            alarms_to_escalate: alarms,
            max_desync_retries: retries,
            // 0 draws the `off` spelling; Some(0) itself is degenerate.
            desyncs_to_quarantine: (quarantine > 0).then_some(quarantine),
            identify: IdentifyConfig { frame_factor, max_rounds },
            // Zero retries AND a zero window is the rejected
            // no-recovery-path document; steer clear of it.
            desync_window: if retries == 0 { window.max(1) } else { window },
            // 0 draws `unlimited`; Some(0) with quarantine is rejected.
            audit_budget: (budget > 0).then_some(budget),
            audit_window,
            escalate_action: if report_action {
                EscalateAction::Report
            } else {
                EscalateAction::Identify
            },
        };
        prop_assert!(policy.validate().is_ok(), "generator drew a degenerate policy");

        let reparsed = Policy::parse(&policy.to_text()).map_err(|e| e.to_string())?;
        prop_assert_eq!(&reparsed, &policy, "to_text -> parse drifted");
        prop_assert_eq!(reparsed.to_text(), policy.to_text(), "canonical text is not a fixed point");

        let from_flat = Policy::from_flat_lines(policy.to_flat_lines()).map_err(|e| e.to_string())?;
        prop_assert_eq!(&from_flat, &policy, "to_flat_lines -> from_flat_lines drifted");
    }
}

/// The acceptance pin: the default policy, expressed as a *document*
/// and parsed back, reproduces both committed seed-7 goldens.
#[test]
fn default_policy_document_reproduces_the_committed_goldens() {
    let config = SoakConfig {
        seed: 7,
        ticks: 200,
        ..SoakConfig::default()
    };
    // The soak config owns the protocol on the legacy path, so the
    // equivalent document declares the same one.
    let document = Policy {
        protocol: config.protocol,
        ..Policy::default()
    }
    .to_text();
    let policy = Policy::parse(&document).expect("default document parses");

    let obs = Obs::new();
    let report = run_soak_policy_observed_threads(&config, &policy, &obs, 1).expect("soak runs");

    assert_eq!(
        last_fnv64(&obs.snapshot_json()),
        golden("obs_golden_digest.txt"),
        "the default policy document no longer reproduces the instrumented golden"
    );
    assert_eq!(
        format!("fnv1a:{:016x}", report.digest()),
        golden("soak_golden_digest.txt"),
        "the default policy document no longer reproduces the soak report golden"
    );
}

/// A different document must change the run: the policy is load-bearing,
/// not decorative.
#[test]
fn non_default_document_diverges_from_the_goldens() {
    let config = SoakConfig {
        seed: 7,
        ticks: 200,
        ..SoakConfig::default()
    };
    let document = Policy {
        protocol: config.protocol,
        alarms_to_escalate: 4,
        ..Policy::default()
    }
    .to_text();
    let policy = Policy::parse(&document).expect("strict document parses");
    let report =
        run_soak_policy_observed_threads(&config, &policy, &Obs::new(), 1).expect("soak runs");
    assert_ne!(
        format!("fnv1a:{:016x}", report.digest()),
        golden("soak_golden_digest.txt"),
        "raising the escalation threshold must change the tick log"
    );
}
