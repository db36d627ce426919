//! The `recover` subcommand: warm-restart a soak from its write-ahead
//! log and print the verified report digest.
//!
//! ## Exit codes
//!
//! * **0** — the WAL was replayed and the run completed with all soak
//!   invariants held. This includes WALs with damaged tails: the
//!   damage is excised, attributed in the output (`recovery: ...`),
//!   and the lost ticks re-executed — recovery succeeding *is* the
//!   success case.
//! * **1** (via the returned [`CliError`]) — the WAL could not be
//!   read, its header is unrecoverable, its record sequence is
//!   malformed, replay diverged from the journal, or the completed run
//!   violated a soak invariant. Nothing is silently accepted.

use tagwatch_analytics::{resume_soak_durable_observed, ResumeOutcome};
use tagwatch_obs::Obs;

use crate::parse::CliError;
use crate::soak::write_artifact;

/// Reads the WAL at `path`, resumes it to completion, optionally
/// writes the finished JSON report, and renders a recovery summary
/// ending in the verified digest.
///
/// # Errors
///
/// Returns a [`CliError`] per the exit-code contract above.
pub fn run_recover_command(path: &str, report_out: Option<String>) -> Result<String, CliError> {
    let bytes = tagwatch_store::io::read_bytes(path).map_err(CliError::new)?;
    let obs = Obs::new();
    let outcome = resume_soak_durable_observed(&bytes, &obs).map_err(CliError::new)?;
    if let Some(p) = &report_out {
        write_artifact(p, &outcome.report.to_json())?;
    }
    let ResumeOutcome {
        report,
        recovery,
        resumed_from,
        replayed_ticks,
        wal,
        policy,
    } = outcome;

    let mut out = format!("recover: {path} ({} bytes read)\n", bytes.len());
    out.push_str(&format!(
        "policy: site `{}` (carried by the WAL)\n",
        policy.site
    ));
    if recovery.is_empty() {
        out.push_str("WAL tail intact: no corruption found\n");
    }
    for note in &recovery {
        out.push_str(&format!("recovery: {note}\n"));
    }
    out.push_str(&format!(
        "resumed from checkpoint tick {resumed_from}; replayed {replayed_ticks} recorded \
         tick(s), verified byte-identical; completed {} ticks ({} bytes of WAL)\n",
        report.log.len(),
        wal.len(),
    ));
    if let Some(p) = &report_out {
        out.push_str(&format!("report: {p}\n"));
    }
    out.push_str(&format!("digest: fnv1a:{:016x}\n", report.digest()));
    if !report.is_clean() {
        out.push_str("\nINVARIANT VIOLATIONS:\n");
        for v in &report.violations {
            out.push_str(&format!("  - {v}\n"));
        }
        return Err(CliError::new(out));
    }
    out.push_str("all soak invariants held\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::{run_soak_command, SoakCmd};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "tagwatch-recover-cli-{name}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn recover_completes_a_crashed_soak_to_the_baseline_digest() {
        let dir = temp_dir("crash");
        let wal = dir.join("run.wal");
        let wal_str = wal.to_string_lossy().into_owned();

        // Baseline digest from the same soak run uninterrupted.
        let full = run_soak_command(SoakCmd {
            seed: 3,
            ticks: 60,
            report: Some(dir.join("full.json").to_string_lossy().into_owned()),
            ..SoakCmd::default()
        })
        .unwrap();
        let digest_line = full
            .lines()
            .find(|l| l.starts_with("digest:"))
            .unwrap()
            .to_owned();

        run_soak_command(SoakCmd {
            seed: 3,
            ticks: 60,
            wal_out: Some(wal_str.clone()),
            crash_at: Some(29),
            ..SoakCmd::default()
        })
        .unwrap();
        let report_path = dir.join("recovered.json");
        let out = run_recover_command(&wal_str, Some(report_path.to_string_lossy().into_owned()))
            .expect("clean kill must recover");
        assert!(out.contains("WAL tail intact"), "{out}");
        assert!(out.contains("resumed from checkpoint tick 25"), "{out}");
        assert!(out.contains(&digest_line), "{out}\nvs {digest_line}");
        assert!(out.contains("all soak invariants held"), "{out}");
        assert!(report_path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_attributes_a_damaged_tail() {
        let dir = temp_dir("damage");
        let wal = dir.join("run.wal");
        let wal_str = wal.to_string_lossy().into_owned();
        run_soak_command(SoakCmd {
            seed: 3,
            ticks: 60,
            wal_out: Some(wal_str.clone()),
            crash_at: Some(40),
            ..SoakCmd::default()
        })
        .unwrap();
        // Chop the tail the way a truncated flush would.
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.truncate(bytes.len() - 31);
        std::fs::write(&wal, &bytes).unwrap();

        let out = run_recover_command(&wal_str, None).expect("damage must be survivable");
        assert!(out.contains("recovery: "), "{out}");
        assert!(!out.contains("WAL tail intact"), "{out}");
        assert!(out.contains("digest: fnv1a:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_resumes_a_crashed_policy_run_under_the_same_policy() {
        let dir = temp_dir("policy");
        std::fs::create_dir_all(&dir).unwrap();
        let policy = tagwatch_analytics::Policy {
            site: "dock-9".into(),
            alarms_to_escalate: 4,
            ..Default::default()
        };
        let policy_path = dir.join("dock9.twp");
        std::fs::write(&policy_path, policy.to_text()).unwrap();
        let policy_str = policy_path.to_string_lossy().into_owned();

        // Baseline: the same policy run uninterrupted.
        let full = run_soak_command(SoakCmd {
            seed: 7,
            ticks: 60,
            utrp: false,
            report: Some(dir.join("full.json").to_string_lossy().into_owned()),
            policy: Some(policy_str.clone()),
            ..SoakCmd::default()
        })
        .unwrap();
        let digest_line = full
            .lines()
            .find(|l| l.starts_with("digest:"))
            .unwrap()
            .to_owned();

        let wal = dir.join("run.wal");
        let wal_str = wal.to_string_lossy().into_owned();
        run_soak_command(SoakCmd {
            seed: 7,
            ticks: 60,
            utrp: false,
            wal_out: Some(wal_str.clone()),
            crash_at: Some(31),
            policy: Some(policy_str),
            ..SoakCmd::default()
        })
        .unwrap();
        let out = run_recover_command(&wal_str, None).expect("crashed policy run must recover");
        assert!(out.contains("policy: site `dock-9`"), "{out}");
        assert!(out.contains(&digest_line), "{out}\nvs {digest_line}");
        assert!(out.contains("all soak invariants held"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_rejects_missing_and_garbage_files() {
        let dir = temp_dir("garbage");
        let missing = dir.join("nope.wal");
        assert!(run_recover_command(&missing.to_string_lossy(), None).is_err());

        let junk = dir.join("junk.wal");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&junk, b"not a wal at all").unwrap();
        let e = run_recover_command(&junk.to_string_lossy(), None).unwrap_err();
        assert!(e.message.contains("TWAL"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
