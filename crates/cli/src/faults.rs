//! The `faults` subcommand: a named fault-scenario matrix.
//!
//! Each scenario runs a short UTRP monitoring schedule (three rounds
//! per trial) against an intact — or, for the theft control, robbed —
//! population while injecting one class of fault, and reports how the
//! server/session machinery behaved:
//!
//! * **alarm** — a round ended [`Verdict::NotIntact`] or errored
//!   (e.g. a truncated response). For fault-only scenarios these are
//!   *false* alarms; the fail-safe contract is that faults may cost
//!   false alarms or retries, never a silent false "intact".
//! * **desync** — a round was diagnosed as [`Verdict::Desynced`] and
//!   recovered via [`MonitorServer::resync_from_hypothesis`].
//! * **audit** — an undiagnosable failure forced a physical
//!   [`MonitorServer::resync_counters`] audit to continue.
//! * **recovered** — the trial's *final* round verified intact, i.e.
//!   monitoring got back on its feet after the fault.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tagwatch_core::utrp::attributed_round;
use tagwatch_core::{CoreError, MonitorServer, RoundExecutor, RoundScratch, ServerConfig, Verdict};
use tagwatch_obs::Obs;
use tagwatch_sim::{
    Channel, ChannelConfig, Counter, FaultPlan, SeedSequence, TagId, TagPopulation,
};

use crate::parse::CliError;

/// Population size used by every scenario.
const N: usize = 60;
/// Tolerance `m` (the theft control steals `m + 1`).
const M: u64 = 3;
/// Confidence `alpha`.
const ALPHA: f64 = 0.9;
/// Rounds per trial: fault on round 0, then recovery headroom.
const ROUNDS: usize = 3;
/// Desync search window — generous, so a whole lost round's advance
/// (up to ~`N` announcements) stays diagnosable.
const DESYNC_WINDOW: u64 = 128;

/// The named scenarios, in display order.
const SCENARIOS: [Scenario; 8] = [
    Scenario::Baseline,
    Scenario::Theft,
    Scenario::UplinkLoss,
    Scenario::DownlinkLoss,
    Scenario::ReaderCrash,
    Scenario::Truncation,
    Scenario::ClockSkew,
    Scenario::DesyncRecovery,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// No faults, intact floor: nothing should ever fire.
    Baseline,
    /// No faults, `m + 1` tags stolen: detection must still work with
    /// the fault machinery in the loop.
    Theft,
    /// Probabilistic uplink reply loss on every round.
    UplinkLoss,
    /// Probabilistic downlink announcement loss on every round (the
    /// canonical counter-desync source).
    DownlinkLoss,
    /// Reader crashes mid-frame on round 0.
    ReaderCrash,
    /// Response truncated in transit on round 0.
    Truncation,
    /// Reported scan clock runs slow on round 0 (blown deadline).
    ClockSkew,
    /// Scripted single-tag announcement loss on round 0: the next
    /// round must come back `Desynced` and recover by hypothesis.
    DesyncRecovery,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::Theft => "theft(m+1)",
            Scenario::UplinkLoss => "uplink-loss",
            Scenario::DownlinkLoss => "downlink-loss",
            Scenario::ReaderCrash => "reader-crash",
            Scenario::Truncation => "truncation",
            Scenario::ClockSkew => "clock-skew",
            Scenario::DesyncRecovery => "desync-recovery",
        }
    }

    /// The channel model for one round of this scenario.
    fn channel(self) -> Channel {
        let config = match self {
            Scenario::UplinkLoss => ChannelConfig {
                reply_loss_prob: 0.02,
                ..ChannelConfig::default()
            },
            Scenario::DownlinkLoss => ChannelConfig {
                // Per-tag, per-announcement: a 60-tag round broadcasts
                // ~60 announcements, so this is ~0.7 missed
                // announcements per round — mostly zero or one victim.
                downlink_loss_prob: 0.0002,
                ..ChannelConfig::default()
            },
            _ => return Channel::ideal(),
        };
        Channel::with_config(config).expect("static probabilities are valid")
    }
}

/// Per-scenario tallies over all trials.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    alarms: u64,
    desyncs: u64,
    audits: u64,
    recovered: u64,
}

/// Everything the `faults` subcommand was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsCmd {
    /// Cap trials at a smoke-test size (CI).
    pub quick: bool,
    /// Trials per scenario.
    pub trials: u64,
    /// Root seed.
    pub seed: u64,
    /// Where to write the telemetry metrics snapshot, if anywhere.
    pub metrics_out: Option<String>,
    /// Where to write the Prometheus text exposition, if anywhere.
    pub prom_out: Option<String>,
    /// Path of a `tagwatch-policy v1` document whose desync window the
    /// scenarios use (default: the matrix's built-in window).
    pub policy: Option<String>,
}

impl Default for FaultsCmd {
    /// What a bare `tagwatch-cli faults` runs.
    fn default() -> Self {
        FaultsCmd {
            quick: false,
            trials: 100,
            seed: 1,
            metrics_out: None,
            prom_out: None,
            policy: None,
        }
    }
}

/// Runs the full scenario matrix and renders the report. With
/// `--metrics-out`, every round's verdict and recovery action also
/// streams into a telemetry registry whose deterministic snapshot is
/// written to the given path; `--prom-out` renders the same registry
/// as Prometheus text exposition. With `--policy`, the policy document's
/// desync window replaces the matrix's built-in one (the scenarios
/// drive the server layer directly, so the window is the knob a policy
/// owns here).
///
/// # Errors
///
/// Returns a [`CliError`] for an unreadable or invalid policy file, or
/// for internal protocol errors (a bug, not bad user input — the
/// parser validates the flags).
pub fn run_faults(cmd: FaultsCmd) -> Result<String, CliError> {
    if cmd.trials == 0 {
        return Err(CliError::new("--trials must be at least 1"));
    }
    let policy = cmd
        .policy
        .as_deref()
        .map(crate::soak::load_policy)
        .transpose()?;
    let desync_window = policy.as_ref().map_or(DESYNC_WINDOW, |p| p.desync_window);
    let trials = if cmd.quick {
        cmd.trials.min(20)
    } else {
        cmd.trials
    };
    let obs = if cmd.metrics_out.is_some() || cmd.prom_out.is_some() {
        Obs::new()
    } else {
        Obs::disabled()
    };
    let seeds = SeedSequence::new(cmd.seed);
    let mut out = String::new();
    out.push_str(&format!(
        "fault scenario matrix: n={N}, m={M}, alpha={ALPHA}, {ROUNDS} rounds/trial, \
         {trials} trials/scenario, seed {}\n\
         (fault-only scenarios hold an intact floor: alarms there are FALSE alarms,\n\
          the fail-safe cost of never reporting a faulty round as intact)\n\n",
        cmd.seed
    ));
    if let (Some(policy), Some(path)) = (&policy, &cmd.policy) {
        out.push_str(&format!(
            "policy: site `{}` from {path} (desync window {desync_window})\n\n",
            policy.site
        ));
    }
    out.push_str(&format!(
        "{:<16} {:>8} {:>8} {:>8} {:>10}\n",
        "scenario", "alarm", "desync", "audit", "recovered"
    ));
    for (i, scenario) in SCENARIOS.iter().enumerate() {
        let mut tally = Tally::default();
        for t in 0..trials {
            let trial_seed = seeds.seed_for((i as u64) << 32 | t);
            let result = run_trial(*scenario, trial_seed, desync_window, &obs)
                .map_err(|e| CliError::new(format!("{} trial {t}: {e}", scenario.name())))?;
            tally.alarms += u64::from(result.alarmed);
            tally.desyncs += u64::from(result.desynced);
            tally.audits += u64::from(result.audited);
            tally.recovered += u64::from(result.recovered);
        }
        let rate = |count: u64| count as f64 / trials as f64;
        out.push_str(&format!(
            "{:<16} {:>8.3} {:>8.3} {:>8.3} {:>10.3}\n",
            scenario.name(),
            rate(tally.alarms),
            rate(tally.desyncs),
            rate(tally.audits),
            rate(tally.recovered),
        ));
    }
    out.push_str(
        "\nexpectations: baseline alarms 0 and recovers 1; theft(m+1) alarms near 1;\n\
         desync-recovery desyncs 1 with audit 0 (hypothesis resync suffices).\n",
    );
    if let Some(path) = &cmd.metrics_out {
        crate::soak::write_artifact(path, &obs.snapshot_json())?;
        out.push_str(&format!(
            "metrics snapshot ({} rounds, digest fnv64:{:016x}) -> {path}\n",
            obs.counter(obs.m.rounds_total),
            obs.snapshot_digest(),
        ));
    }
    if let Some(path) = &cmd.prom_out {
        crate::soak::write_artifact(path, &tagwatch_obs::to_prometheus_text(&obs))?;
        out.push_str(&format!(
            "prometheus exposition ({} rounds) -> {path}\n",
            obs.counter(obs.m.rounds_total),
        ));
    }
    Ok(out)
}

/// What one trial of one scenario did.
#[derive(Debug, Clone, Copy)]
struct TrialResult {
    alarmed: bool,
    desynced: bool,
    audited: bool,
    recovered: bool,
}

fn run_trial(
    scenario: Scenario,
    seed: u64,
    desync_window: u64,
    obs: &Obs,
) -> Result<TrialResult, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut floor = TagPopulation::with_sequential_ids(N);
    let config = ServerConfig {
        desync_window,
        ..ServerConfig::default()
    };
    let mut server = MonitorServer::with_config(floor.ids(), M, ALPHA, config)?;
    if scenario == Scenario::Theft {
        floor.remove_random(M as usize + 1, &mut rng)?;
    }

    let timing = server.config().timing;
    let mut scratch = RoundScratch::new();
    let mut result = TrialResult {
        alarmed: false,
        desynced: false,
        audited: false,
        recovered: false,
    };

    for round in 0..ROUNDS {
        // A previous alarm leaves the mirror untrusted with no
        // hypothesis: only a physical audit gets monitoring going
        // again (hypothesis resyncs happen right after the verdict).
        if !server.counters_synced() {
            server.resync_counters(floor.iter().map(|t| (t.id(), t.counter())))?;
            result.audited = true;
            obs.inc(obs.m.audits_total);
        }
        let challenge = server.issue_utrp_challenge(&mut rng)?;
        let plan = round_plan(scenario, round, &server, &challenge)?;
        let response = RoundExecutor::new(scenario.channel(), Some(plan))
            .run_utrp_scratch_observed(
                &mut floor,
                &challenge,
                &timing,
                &mut rng,
                &mut scratch,
                obs,
            )?;
        match server.verify_utrp_with(challenge, &response, &mut scratch) {
            Ok(report) => {
                obs.observe(obs.m.hamming_distance, report.mismatched_slots as f64);
                match report.verdict {
                    Verdict::Intact => {
                        obs.inc(obs.m.verify_intact);
                        if round == ROUNDS - 1 {
                            result.recovered = true;
                        }
                    }
                    Verdict::NotIntact => {
                        obs.inc(obs.m.verify_alarm);
                        result.alarmed = true;
                    }
                    Verdict::Desynced { .. } => {
                        obs.inc(obs.m.verify_desynced);
                        obs.inc(obs.m.resync_attempts);
                        result.desynced = true;
                        server.resync_from_hypothesis()?;
                    }
                }
            }
            // A malformed response (e.g. truncation) is an alarm; the
            // challenge is spent, so the field advanced while the
            // mirror did not — the *next* round sees a uniform lead.
            Err(CoreError::ResponseShapeMismatch { .. }) => {
                obs.inc(obs.m.verify_alarm);
                result.alarmed = true;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(result)
}

/// The scripted fault plan for one round of one scenario.
fn round_plan(
    scenario: Scenario,
    round: usize,
    server: &MonitorServer,
    challenge: &tagwatch_core::UtrpChallenge,
) -> Result<FaultPlan, CoreError> {
    if round != 0 {
        return Ok(FaultPlan::new());
    }
    Ok(match scenario {
        Scenario::ReaderCrash => {
            FaultPlan::new().crash_after_slot(challenge.frame_size().get() / 3)
        }
        Scenario::Truncation => FaultPlan::new().truncate_response(16),
        Scenario::ClockSkew => FaultPlan::new().skew_clock(10.0),
        Scenario::DesyncRecovery => {
            // The tag that replies in the first occupied slot misses the
            // round's last announcement: this round stays intact, but
            // its counter ends one short — the next round must be
            // diagnosed as a single-tag lag.
            let registry: Vec<(TagId, Counter)> = server
                .registered_ids()
                .into_iter()
                .map(|id| (id, server.counter_of(id).expect("registered")))
                .collect();
            let (dry, attribution) = attributed_round(&registry, challenge)?;
            let first = dry
                .bitstring
                .iter_ones()
                .next()
                .expect("a 60-tag round has occupied slots");
            let victim = attribution[first][0];
            FaultPlan::new().lose_announcement(dry.announcements - 1, [victim])
        }
        _ => FaultPlan::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trials: u64, seed: u64) -> FaultsCmd {
        FaultsCmd {
            quick: true,
            trials,
            seed,
            ..FaultsCmd::default()
        }
    }

    fn rates(line: &str) -> Vec<f64> {
        line.split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect()
    }

    fn scenario_line<'a>(report: &'a str, name: &str) -> &'a str {
        report
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("no `{name}` row in:\n{report}"))
    }

    #[test]
    fn matrix_runs_and_reports_every_scenario() {
        let report = run_faults(quick(5, 1)).unwrap();
        for scenario in SCENARIOS {
            assert!(
                report.lines().any(|l| l.starts_with(scenario.name())),
                "missing `{}` in:\n{report}",
                scenario.name()
            );
        }
    }

    #[test]
    fn baseline_is_quiet_and_theft_detects() {
        let report = run_faults(quick(10, 2)).unwrap();
        let baseline = rates(scenario_line(&report, "baseline"));
        assert_eq!(baseline, vec![0.0, 0.0, 0.0, 1.0], "{report}");
        let theft = rates(scenario_line(&report, "theft(m+1)"));
        assert!(theft[0] > 0.8, "theft detection too low: {report}");
    }

    #[test]
    fn desync_recovery_is_diagnosed_without_audits() {
        let report = run_faults(quick(10, 3)).unwrap();
        let row = rates(scenario_line(&report, "desync-recovery"));
        let (alarm, desync, audit, recovered) = (row[0], row[1], row[2], row[3]);
        assert_eq!(alarm, 0.0, "{report}");
        assert_eq!(desync, 1.0, "{report}");
        assert_eq!(audit, 0.0, "{report}");
        assert_eq!(recovered, 1.0, "{report}");
    }

    #[test]
    fn crash_truncation_and_skew_alarm_but_recover() {
        let report = run_faults(quick(8, 4)).unwrap();
        for name in ["reader-crash", "truncation", "clock-skew"] {
            let row = rates(scenario_line(&report, name));
            assert_eq!(row[0], 1.0, "{name} must alarm: {report}");
            assert_eq!(row[3], 1.0, "{name} must recover: {report}");
        }
    }

    #[test]
    fn matrix_is_deterministic_per_seed() {
        let a = run_faults(quick(5, 7)).unwrap();
        let b = run_faults(quick(5, 7)).unwrap();
        assert_eq!(a, b);
    }
}
