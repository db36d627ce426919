//! End-to-end tests of the `tagwatch-cli` binary as a real process:
//! exit codes, stdout shapes, stdin plumbing, stderr on misuse.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty working directory for the binary, removed on drop,
/// so a test sees every file a command writes.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tagwatch-cli-e2e-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        WorkDir(dir)
    }

    fn cli(&self) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_tagwatch-cli"));
        cmd.current_dir(&self.0);
        cmd
    }

    fn files(&self) -> Vec<String> {
        std::fs::read_dir(&self.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let dir = WorkDir::new();
    let out = dir.cli().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("size trp"));
}

#[test]
fn no_args_behaves_like_help() {
    let dir = WorkDir::new();
    let out = dir.cli().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn size_trp_prints_the_frame() {
    let dir = WorkDir::new();
    let out = dir
        .cli()
        .args(["size", "trp", "1000", "10", "0.95"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("694 slots"), "{text}");
}

#[test]
fn unknown_command_fails_with_stderr() {
    let dir = WorkDir::new();
    let out = dir.cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
    assert!(out.stdout.is_empty());
}

#[test]
fn bad_parameters_fail_cleanly() {
    let dir = WorkDir::new();
    let out = dir
        .cli()
        .args(["size", "trp", "10", "10", "0.95"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("tolerance"), "{err}");
}

#[test]
fn registry_pipeline_new_into_info() {
    let dir = WorkDir::new();
    let new_out = dir
        .cli()
        .args(["registry", "new", "30", "2", "0.9"])
        .output()
        .unwrap();
    assert!(new_out.status.success());
    let snapshot = String::from_utf8(new_out.stdout).unwrap();
    assert!(snapshot.starts_with("tagwatch-registry v1"));

    let mut info = dir
        .cli()
        .args(["registry", "info"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    info.stdin
        .as_mut()
        .unwrap()
        .write_all(snapshot.as_bytes())
        .unwrap();
    let out = info.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("30 tags"), "{text}");
}

#[test]
fn registry_info_rejects_garbage_on_stdin() {
    let dir = WorkDir::new();
    let mut info = dir
        .cli()
        .args(["registry", "info"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    info.stdin
        .as_mut()
        .unwrap()
        .write_all(b"not a snapshot")
        .unwrap();
    let out = info.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("parse error"));
}

#[test]
fn simulate_trp_is_deterministic_per_seed() {
    let dir = WorkDir::new();
    let run = || {
        let out = dir
            .cli()
            .args([
                "simulate", "trp", "150", "5", "--trials", "100", "--seed", "4",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn identify_reports_exact_match() {
    let dir = WorkDir::new();
    let out = dir
        .cli()
        .args(["identify", "120", "--steal", "4", "--seed", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("match: exact"), "{text}");
}

#[test]
fn tokens_without_a_role_fail_before_anything_runs() {
    for (args, token) in [
        (&["soak", "7", "--ticks", "5"][..], "`7`"),
        (&["soak", "--report", "--ticks", "5"][..], "--report"),
        (&["size", "trp", "1000", "10", "0.95", "oops"][..], "`oops`"),
    ] {
        let dir = WorkDir::new();
        let out = dir.cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(token), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(dir.files(), Vec::<String>::new(), "{args:?} wrote files");
    }
}

#[test]
fn a_crash_tick_past_the_run_fails_without_writing_a_wal() {
    for ticks in ["1", "5"] {
        let dir = WorkDir::new();
        let out = dir
            .cli()
            .args([
                "soak",
                "--ticks",
                ticks,
                "--crash-at",
                "5",
                "--wal-out",
                "x.wal",
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--ticks {ticks}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--crash-at") && err.contains("--ticks"),
            "--ticks {ticks}: {err}"
        );
        assert!(out.stdout.is_empty(), "--ticks {ticks}");
        assert_eq!(dir.files(), Vec::<String>::new(), "--ticks {ticks}");
    }
}

#[test]
fn identify_names_the_value_it_cannot_run() {
    for (args, message) in [
        (
            &["identify", "3"][..],
            "--steal 5 (the default) must be less than <n> = 3",
        ),
        (
            &["identify", "4", "--steal", "9", "--seed", "2"][..],
            "--steal 9 must be less than <n> = 4",
        ),
        (&["identify", "0"][..], "<n> must be at least 1"),
    ] {
        let dir = WorkDir::new();
        let out = dir.cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.trim_end(), format!("error: {message}"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// Runs `soak` and `faults` on `policies/default.twp` with `from`
/// replaced by `to`, and checks each fails before it runs, printing the
/// policy's diagnostic once, after a single `error: ` prefix.
fn assert_policy_rejected(from: &str, to: &str) {
    let text = include_str!("../../../policies/default.twp").replace(from, to);
    for command in [&["soak", "--ticks", "60"][..], &["faults", "--quick"][..]] {
        let dir = WorkDir::new();
        std::fs::write(dir.0.join("wide.twp"), &text).unwrap();
        let out = dir
            .cli()
            .args(command)
            .args(["--policy", "wide.twp"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{command:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.starts_with(&format!("error: `{to}`")),
            "{command:?}: {err}"
        );
        assert_eq!(err.matches("error: ").count(), 1, "{command:?}: {err}");
        assert!(err.contains("wide.twp:"), "{command:?}: {err}");
        assert!(out.stdout.is_empty(), "{command:?}");
        assert_eq!(dir.files(), vec!["wide.twp".to_string()], "{command:?}");
    }
}

#[test]
fn a_policy_desync_window_past_every_round_fails_before_any_tick() {
    assert_policy_rejected("window 96", "window 1000000000000000");
}

#[test]
fn a_policy_frame_factor_past_every_frame_fails_before_any_tick() {
    assert_policy_rejected("frame_factor 2", "frame_factor 4611686018427387904");
    assert_policy_rejected("frame_factor 2", "frame_factor 99999999999");
}
