//! Crash-safe durable soak runs: WAL journaling, checkpointed warm
//! restart, and corruption-fault recovery.
//!
//! [`run_soak_durable_observed`] is the durable form of
//! [`run_soak_observed_threads`](crate::soak::run_soak_observed_threads):
//! it executes the identical tick sequence
//! while journaling every tick's event line into a `tagwatch-store`
//! write-ahead log, with a full driver checkpoint every
//! [`DurableConfig::checkpoint_every`] ticks. A scripted
//! [`StorageFaultPlan`] can kill the run just before any tick — and
//! optionally damage the persisted bytes the way a power cut or media
//! fault would (torn write, bit flip, truncated tail).
//!
//! [`resume_soak_durable`] is the recovery manager. It scans the WAL
//! back to its longest intact prefix (excising any damaged tail with
//! an attributable [`RecoveryNote`] — never a silent false "intact"),
//! rebuilds the driver from the last intact checkpoint, re-seeds the
//! report log from the recorded tick lines, **re-executes** every
//! recorded tick past the checkpoint while byte-comparing each
//! regenerated line against the journal (any mismatch is a
//! [`DurableError::Divergence`], not a shrug), and then runs the
//! remaining ticks to completion. The contract, enforced by tests and
//! the `recovery-smoke` CI job: the resumed run's [`SoakReport`] —
//! log, digest, JSON — is byte-identical to the never-crashed
//! baseline's.
//!
//! [`RecoveryNote`]: tagwatch_store::RecoveryNote

use std::fmt;

use tagwatch_core::CoreError;
use tagwatch_obs::{Obs, ObsEvent};
use tagwatch_sim::{FrameSize, StorageFaultPlan};
use tagwatch_store::checkpoint::CheckpointDoc;
use tagwatch_store::recovery::recover;
use tagwatch_store::wal::{RecordKind, WalWriter};
use tagwatch_store::StoreError;

use crate::policy::Policy;
use crate::session::TickProtocol;
use crate::soak::{checkpoint_next_tick, SoakConfig, SoakDriver, SoakReport};

/// Magic first line of the WAL's config record.
const CONFIG_HEADER: &str = "tagwatch-soak-config v1";

/// Parameters of one durable soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableConfig {
    /// The soak to run (identical semantics to [`crate::soak`]).
    pub soak: SoakConfig,
    /// Ticks between full driver checkpoints (tick 0 always gets one).
    /// Smaller values bound replay work after a crash at the cost of
    /// larger logs; must be positive.
    pub checkpoint_every: u64,
    /// Scripted crash/corruption schedule (empty = run to completion
    /// with undamaged bytes).
    pub fault: StorageFaultPlan,
    /// The declarative policy the session interprets; `None` runs the
    /// config-derived legacy defaults. Persisted in the WAL's config
    /// record so `recover` replays under exactly this policy.
    pub policy: Option<Policy>,
}

impl Default for DurableConfig {
    /// Default soak, a checkpoint every 25 ticks, no scripted faults.
    fn default() -> Self {
        DurableConfig {
            soak: SoakConfig::default(),
            checkpoint_every: 25,
            fault: StorageFaultPlan::new(),
            policy: None,
        }
    }
}

impl DurableConfig {
    fn validate(&self) -> Result<(), DurableError> {
        if self.checkpoint_every == 0 {
            return Err(DurableError::Config {
                reason: "checkpoint_every must be positive".to_string(),
            });
        }
        self.fault.validate().map_err(|e| DurableError::Config {
            reason: format!("storage fault plan: {e}"),
        })?;
        if let Some(policy) = &self.policy {
            policy.validate().map_err(|e| DurableError::Config {
                reason: format!("policy rejected: {e}"),
            })?;
        }
        self.soak.validate()?;
        Ok(())
    }

    /// The policy this run's session interprets: the explicit one, or
    /// the config-derived legacy defaults.
    fn effective_policy(&self) -> Policy {
        self.policy
            .clone()
            .unwrap_or_else(|| SoakDriver::derive_policy(&self.soak))
    }
}

/// The outcome of a durable run: either a completed report or the
/// point of interruption, plus the WAL bytes as they would exist on
/// disk (scripted damage already applied).
#[derive(Debug, Clone, PartialEq)]
pub struct DurableOutcome {
    /// The completed report; `None` when the scripted crash fired.
    pub report: Option<SoakReport>,
    /// The persisted WAL bytes (after any scripted damage).
    pub wal: Vec<u8>,
    /// The tick the crash pre-empted, when it fired.
    pub interrupted_at: Option<u64>,
}

/// The outcome of resuming a WAL: the (completed) report plus an
/// attributable account of what recovery had to do.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeOutcome {
    /// The completed report — byte-identical to the uninterrupted
    /// run's.
    pub report: SoakReport,
    /// Human-readable recovery notes, one per excised damage region
    /// (empty when the WAL tail was intact).
    pub recovery: Vec<String>,
    /// The checkpoint tick the driver restarted from (0 = cold start).
    pub resumed_from: u64,
    /// Recorded ticks re-executed and byte-verified against the
    /// journal.
    pub replayed_ticks: u64,
    /// The repaired and completed WAL bytes.
    pub wal: Vec<u8>,
    /// The policy the resumed run finished under — carried by the WAL
    /// (config record and checkpoints), never re-derived from ambient
    /// defaults.
    pub policy: Policy,
}

/// Failures of the durable layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableError {
    /// The [`DurableConfig`] itself is unusable.
    Config {
        /// What was wrong with it.
        reason: String,
    },
    /// The WAL's records are individually intact but semantically
    /// inconsistent (e.g. the config record is missing or duplicated).
    MalformedWal {
        /// What recovery found.
        reason: String,
    },
    /// The underlying soak rejected its configuration or a protocol
    /// step failed.
    Core(CoreError),
    /// WAL or checkpoint framing failed.
    Store(StoreError),
    /// Replaying a recorded tick regenerated a different event line —
    /// the WAL and the code disagree about history, which recovery
    /// surfaces rather than papers over.
    Divergence {
        /// The tick whose replay diverged.
        tick: u64,
        /// The line the WAL recorded.
        recorded: String,
        /// The line replay produced.
        regenerated: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Config { reason } => write!(f, "invalid durable config: {reason}"),
            DurableError::MalformedWal { reason } => write!(f, "malformed WAL: {reason}"),
            DurableError::Core(e) => write!(f, "soak failed: {e}"),
            DurableError::Store(e) => write!(f, "store failed: {e}"),
            DurableError::Divergence {
                tick,
                recorded,
                regenerated,
            } => write!(
                f,
                "replay diverged at tick {tick}: WAL recorded `{recorded}`, \
                 replay produced `{regenerated}`"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<CoreError> for DurableError {
    fn from(e: CoreError) -> Self {
        DurableError::Core(e)
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

fn malformed(reason: String) -> DurableError {
    DurableError::MalformedWal { reason }
}

/// Serializes the run parameters into the WAL's first record, so a WAL
/// is self-contained: resume needs nothing but the bytes. An explicit
/// policy rides along as `policy.<key>` lines (absent for legacy
/// default runs, keeping their WAL bytes unchanged).
fn encode_config(config: &DurableConfig) -> String {
    let c = &config.soak;
    let protocol = match c.protocol {
        TickProtocol::Trp => "trp",
        TickProtocol::Utrp => "utrp",
    };
    let mut out = format!(
        "{CONFIG_HEADER}\nseed {}\nticks {}\nn {}\nm {}\nalpha {}\nprotocol {protocol}\n\
         burst_period {}\ntheft_period {}\ntheft_size {}\ndetection_deadline {}\n\
         desync_window {}\nattribution_window {}\ncheckpoint_every {}\n",
        c.seed,
        c.ticks,
        c.n,
        c.m,
        c.alpha,
        c.burst_period,
        c.theft_period,
        c.theft_size,
        c.detection_deadline,
        c.desync_window,
        c.attribution_window,
        config.checkpoint_every,
    );
    if let Some(policy) = &config.policy {
        for line in policy.to_flat_lines() {
            out.push_str("policy.");
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Parses a config record back. The storage fault plan is a property
/// of the *run*, not the state, so it is never persisted: decoded
/// configs carry an empty plan.
fn decode_config(payload: &[u8]) -> Result<DurableConfig, DurableError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| malformed("config record is not UTF-8".to_string()))?;
    let mut lines = text.lines();
    if lines.next() != Some(CONFIG_HEADER) {
        return Err(malformed(format!(
            "config record does not open with `{CONFIG_HEADER}`"
        )));
    }
    let mut config = DurableConfig::default();
    let mut seen = 0u32;
    let mut policy_lines: Vec<String> = Vec::new();
    for line in lines {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| malformed(format!("config line `{line}` has no value")))?;
        let bad = || malformed(format!("config `{key}` has bad value `{value}`"));
        if let Some(policy_key) = key.strip_prefix("policy.") {
            policy_lines.push(format!("{policy_key} {value}"));
            continue;
        }
        seen += 1;
        match key {
            "seed" => config.soak.seed = value.parse().map_err(|_| bad())?,
            "ticks" => config.soak.ticks = value.parse().map_err(|_| bad())?,
            "n" => config.soak.n = value.parse().map_err(|_| bad())?,
            "m" => config.soak.m = value.parse().map_err(|_| bad())?,
            "alpha" => config.soak.alpha = value.parse().map_err(|_| bad())?,
            "protocol" => {
                config.soak.protocol = match value {
                    "trp" => TickProtocol::Trp,
                    "utrp" => TickProtocol::Utrp,
                    _ => return Err(bad()),
                }
            }
            "burst_period" => config.soak.burst_period = value.parse().map_err(|_| bad())?,
            "theft_period" => config.soak.theft_period = value.parse().map_err(|_| bad())?,
            "theft_size" => config.soak.theft_size = value.parse().map_err(|_| bad())?,
            "detection_deadline" => {
                config.soak.detection_deadline = value.parse().map_err(|_| bad())?;
            }
            "desync_window" => {
                config.soak.desync_window = value.parse().map_err(|_| bad())?;
                if config.soak.desync_window > FrameSize::MAX {
                    return Err(malformed(format!(
                        "config `desync_window` {value} exceeds {} (2^24), the most \
                         announcements one lost round can carry",
                        FrameSize::MAX
                    )));
                }
            }
            "attribution_window" => {
                config.soak.attribution_window = value.parse().map_err(|_| bad())?;
            }
            "checkpoint_every" => config.checkpoint_every = value.parse().map_err(|_| bad())?,
            _ => return Err(malformed(format!("config has unknown key `{key}`"))),
        }
    }
    if seen != 13 {
        return Err(malformed(format!(
            "config record has {seen} fields, expected 13"
        )));
    }
    if !policy_lines.is_empty() {
        let policy = Policy::from_flat_lines(&policy_lines)
            .map_err(|e| malformed(format!("config policy: {e}")))?;
        config.policy = Some(policy);
    }
    Ok(config)
}

/// Frames one tick record: the tick index (u64 LE) followed by the
/// tick's event-log line, verbatim.
fn tick_payload(t: u64, line: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + line.len());
    payload.extend_from_slice(&t.to_le_bytes());
    payload.extend_from_slice(line.as_bytes());
    payload
}

fn decode_tick(payload: &[u8]) -> Result<(u64, String), DurableError> {
    if payload.len() < 8 {
        return Err(malformed(
            "tick record shorter than its tick index".to_string(),
        ));
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&payload[..8]);
    let line = std::str::from_utf8(&payload[8..])
        .map_err(|_| malformed("tick record line is not UTF-8".to_string()))?;
    Ok((u64::from_le_bytes(raw), line.to_string()))
}

/// Runs a soak while journaling it to a write-ahead log: a config
/// record first (the WAL is self-contained), a full checkpoint before
/// every `checkpoint_every`-th tick, and one tick record after every
/// tick. With an empty fault plan the returned report is **equal** to
/// [`run_soak_observed_threads`](crate::soak::run_soak_observed_threads)'s
/// for the same [`SoakConfig`] — durability costs serialization, never
/// behavior. Pass [`Obs::disabled`] to run without telemetry.
///
/// When the scripted crash fires, the run stops *before* that tick
/// (no checkpoint, no tick record for it), applies any scripted
/// damage to the persisted bytes, and returns them with
/// [`DurableOutcome::interrupted_at`] set — exactly what a process
/// kill at that instant would leave on disk.
///
/// # Errors
///
/// Returns [`DurableError::Config`] for an unusable [`DurableConfig`]
/// and propagates soak/store failures.
pub fn run_soak_durable_observed(
    config: &DurableConfig,
    obs: &Obs,
) -> Result<DurableOutcome, DurableError> {
    config.validate()?;
    let mut wal = WalWriter::new();
    wal.append(RecordKind::Config, encode_config(config).as_bytes());
    let mut driver = SoakDriver::with_policy(&config.soak, config.effective_policy(), obs)?;
    for t in 0..config.soak.ticks {
        if config.fault.crash_tick() == Some(t) {
            let mut bytes = wal.into_bytes();
            config.fault.apply_damage(&mut bytes);
            return Ok(DurableOutcome {
                report: None,
                wal: bytes,
                interrupted_at: Some(t),
            });
        }
        if t.is_multiple_of(config.checkpoint_every) {
            wal.append(
                RecordKind::Checkpoint,
                &driver.capture_checkpoint(t)?.to_bytes(),
            );
        }
        driver.step(t)?;
        wal.append(RecordKind::Tick, &tick_payload(t, driver.last_log_line()));
    }
    let report = driver.finish();
    let mut bytes = wal.into_bytes();
    config.fault.apply_damage(&mut bytes);
    Ok(DurableOutcome {
        report: Some(report),
        wal: bytes,
        interrupted_at: None,
    })
}

/// [`resume_soak_durable_observed`] with telemetry disabled.
///
/// # Errors
///
/// See [`resume_soak_durable_observed`].
pub fn resume_soak_durable(wal_bytes: &[u8]) -> Result<ResumeOutcome, DurableError> {
    resume_soak_durable_observed(wal_bytes, &Obs::disabled())
}

/// Warm-restarts a soak from its WAL and runs it to completion.
///
/// Recovery proceeds in five steps, none of which can silently accept
/// damage:
///
/// 1. **Scan** — [`recover`] walks the WAL to its longest intact
///    prefix; any excised tail yields a recovery note (returned on
///    [`ResumeOutcome::recovery`], journaled as a note record, and
///    emitted as [`ObsEvent::StoreRecovered`] on instrumented runs).
/// 2. **Restore** — the driver is rebuilt from the last intact
///    checkpoint (or cold-started when none survived).
/// 3. **Re-seed** — the report log's prefix is taken verbatim from
///    the recorded tick lines before the checkpoint.
/// 4. **Replay** — recorded ticks at/after the checkpoint are
///    re-executed and each regenerated line byte-compared against the
///    journal; a mismatch is a [`DurableError::Divergence`].
/// 5. **Continue** — the remaining ticks run (and journal) normally.
///
/// The returned report is byte-identical — log, digest, JSON — to the
/// run that was never interrupted.
///
/// # Errors
///
/// Returns [`DurableError::Store`] for an unrecoverable stream (bad
/// header), [`DurableError::MalformedWal`] when no intact config
/// record survives or the record sequence is inconsistent, and
/// [`DurableError::Divergence`] when replay contradicts the journal.
pub fn resume_soak_durable_observed(
    wal_bytes: &[u8],
    obs: &Obs,
) -> Result<ResumeOutcome, DurableError> {
    let recovered = recover(wal_bytes)?;
    let mut recovery = Vec::new();
    if let Some(note) = recovered.note {
        obs.emit(ObsEvent::StoreRecovered {
            kind: note.kind.code(),
            offset: note.offset,
            dropped: note.dropped_bytes,
        });
        recovery.push(note.describe());
    }

    let mut config: Option<DurableConfig> = None;
    let mut last_checkpoint: Option<CheckpointDoc> = None;
    let mut ticks: Vec<(u64, String)> = Vec::new();
    for record in &recovered.records {
        match record.kind {
            RecordKind::Config => {
                if config.is_some() {
                    return Err(malformed("duplicate config record".to_string()));
                }
                config = Some(decode_config(&record.payload)?);
            }
            RecordKind::Checkpoint => {
                last_checkpoint = Some(CheckpointDoc::parse(&record.payload)?);
            }
            RecordKind::Tick => ticks.push(decode_tick(&record.payload)?),
            // Notes document previous recoveries; they carry no state.
            RecordKind::Note => {}
        }
    }
    let config = config
        .ok_or_else(|| malformed("no intact config record; nothing to resume".to_string()))?;
    config.validate()?;
    for (i, (t, _)) in ticks.iter().enumerate() {
        if *t != i as u64 {
            return Err(malformed(format!(
                "tick records not contiguous: record {i} holds tick {t}"
            )));
        }
    }
    if ticks.len() as u64 > config.soak.ticks {
        return Err(malformed(format!(
            "WAL records {} ticks but the config runs only {}",
            ticks.len(),
            config.soak.ticks
        )));
    }

    let (mut driver, resumed_from) = match &last_checkpoint {
        Some(doc) => {
            let next = checkpoint_next_tick(doc)?;
            if next as usize > ticks.len() {
                return Err(malformed(format!(
                    "checkpoint expects tick {next} next but only {} ticks are recorded",
                    ticks.len()
                )));
            }
            (SoakDriver::from_checkpoint(&config.soak, obs, doc)?, next)
        }
        None => (
            SoakDriver::with_policy(&config.soak, config.effective_policy(), obs)?,
            0,
        ),
    };
    driver.seed_log(
        ticks
            .iter()
            .take(resumed_from as usize)
            .map(|(_, line)| line.clone())
            .collect(),
    );

    let mut wal = WalWriter::from_bytes(wal_bytes[..recovered.valid_len].to_vec())?;
    if let Some(note) = recovered.note {
        wal.append(
            RecordKind::Note,
            format!("recovered: {}", note.describe()).as_bytes(),
        );
    }
    wal.append(
        RecordKind::Note,
        format!(
            "resumed from checkpoint tick {resumed_from} with {} recorded tick(s)",
            ticks.len()
        )
        .as_bytes(),
    );

    let mut replayed_ticks = 0u64;
    for (t, line) in ticks.iter().skip(resumed_from as usize) {
        driver.step(*t)?;
        let regenerated = driver.last_log_line();
        if regenerated != line {
            return Err(DurableError::Divergence {
                tick: *t,
                recorded: line.clone(),
                regenerated: regenerated.to_string(),
            });
        }
        replayed_ticks += 1;
    }

    for t in ticks.len() as u64..config.soak.ticks {
        if t.is_multiple_of(config.checkpoint_every) {
            wal.append(
                RecordKind::Checkpoint,
                &driver.capture_checkpoint(t)?.to_bytes(),
            );
        }
        driver.step(t)?;
        wal.append(RecordKind::Tick, &tick_payload(t, driver.last_log_line()));
    }

    let policy = driver.policy().clone();
    Ok(ResumeOutcome {
        report: driver.finish(),
        recovery,
        resumed_from,
        replayed_ticks,
        wal: wal.into_bytes(),
        policy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::run_soak_observed_threads;
    use tagwatch_sim::StorageFault;

    fn short() -> SoakConfig {
        SoakConfig {
            ticks: 60,
            n: 30,
            burst_period: 15,
            theft_period: 30,
            ..SoakConfig::default()
        }
    }

    fn durable(fault: StorageFaultPlan) -> DurableConfig {
        DurableConfig {
            soak: short(),
            checkpoint_every: 25,
            fault,
            policy: None,
        }
    }

    #[test]
    fn durable_run_without_faults_matches_run_soak_exactly() {
        let config = durable(StorageFaultPlan::new());
        let baseline = run_soak_observed_threads(&config.soak, &Obs::disabled(), 1).unwrap();
        let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
        assert_eq!(outcome.interrupted_at, None);
        let report = outcome.report.expect("uninterrupted run completes");
        assert_eq!(report, baseline, "durability must not change behavior");
        assert_eq!(report.to_json(), baseline.to_json());

        // The WAL is intact, self-describing, and replayable: resuming
        // a *complete* WAL re-verifies every recorded tick.
        let resumed = resume_soak_durable(&outcome.wal).unwrap();
        assert!(resumed.recovery.is_empty());
        assert_eq!(resumed.report, baseline);
        assert_eq!(resumed.resumed_from, 50, "last checkpoint at tick 50");
        assert_eq!(resumed.replayed_ticks, 10);
    }

    #[test]
    fn crash_then_resume_reproduces_the_baseline_digest() {
        let baseline = run_soak_observed_threads(&short(), &Obs::disabled(), 1).unwrap();
        // One mid-run crash (between checkpoints); the exhaustive
        // kill-at-every-tick sweep lives in tests/durability.rs.
        let config = durable(StorageFaultPlan::new().crash_at_tick(33));
        let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
        assert_eq!(outcome.interrupted_at, Some(33));
        assert!(outcome.report.is_none());

        let resumed = resume_soak_durable(&outcome.wal).unwrap();
        assert!(resumed.recovery.is_empty(), "clean kill leaves intact WAL");
        assert_eq!(resumed.resumed_from, 25);
        assert_eq!(resumed.replayed_ticks, 8);
        assert_eq!(resumed.report.log, baseline.log);
        assert_eq!(resumed.report.digest(), baseline.digest());
        assert_eq!(resumed.report.to_json(), baseline.to_json());
    }

    #[test]
    fn damaged_tails_are_excised_attributed_and_resumed() {
        let baseline = run_soak_observed_threads(&short(), &Obs::disabled(), 1).unwrap();
        let cases: Vec<(StorageFault, &str)> = vec![
            (StorageFault::TornWrite { drop_bytes: 7 }, "torn"),
            (
                StorageFault::BitFlip {
                    offset_from_end: 20,
                    bit: 3,
                },
                "checksum-mismatch",
            ),
            (StorageFault::TruncateTail { drop_bytes: 200 }, "torn"),
        ];
        for (fault, expected) in cases {
            let config = durable(StorageFaultPlan::new().crash_at_tick(45).with_damage(fault));
            let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
            let resumed = resume_soak_durable(&outcome.wal).unwrap();
            assert_eq!(
                resumed.recovery.len(),
                1,
                "{fault:?} must be surfaced, never silent"
            );
            assert!(
                resumed.recovery[0].contains(expected),
                "{fault:?} produced {:?}",
                resumed.recovery
            );
            assert_eq!(resumed.report.log, baseline.log, "{fault:?}");
            assert_eq!(resumed.report.digest(), baseline.digest(), "{fault:?}");
        }
    }

    #[test]
    fn observed_resume_emits_store_recovered_and_matches_plain() {
        let config = durable(
            StorageFaultPlan::new()
                .crash_at_tick(40)
                .with_damage(StorageFault::TornWrite { drop_bytes: 11 }),
        );
        let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
        let plain = resume_soak_durable(&outcome.wal).unwrap();
        let obs = Obs::new();
        let observed = resume_soak_durable_observed(&outcome.wal, &obs).unwrap();
        assert_eq!(observed.report.log, plain.report.log);
        assert_eq!(observed.recovery, plain.recovery);
        assert!(
            obs.flight_jsonl().contains("\"type\":\"store_recovered\""),
            "recovery must leave an attributable telemetry trace"
        );
    }

    #[test]
    fn destroyed_config_record_is_unrecoverable_not_silent() {
        let config = durable(StorageFaultPlan::new());
        let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
        let mut bytes = outcome.wal;
        // Flip a bit inside the config record (the first record).
        bytes[tagwatch_store::WAL_HEADER_LEN + 6] ^= 0x10;
        match resume_soak_durable(&bytes) {
            Err(DurableError::MalformedWal { reason }) => {
                assert!(reason.contains("no intact config record"), "{reason}");
            }
            other => panic!("expected MalformedWal, got {other:?}"),
        }
    }

    #[test]
    fn invalid_durable_configs_are_rejected() {
        let zero_checkpoint = DurableConfig {
            checkpoint_every: 0,
            ..durable(StorageFaultPlan::new())
        };
        assert!(matches!(
            run_soak_durable_observed(&zero_checkpoint, &Obs::disabled()),
            Err(DurableError::Config { .. })
        ));
        let bad_bit = durable(StorageFaultPlan::new().crash_at_tick(5).with_damage(
            StorageFault::BitFlip {
                offset_from_end: 0,
                bit: 9,
            },
        ));
        assert!(matches!(
            run_soak_durable_observed(&bad_bit, &Obs::disabled()),
            Err(DurableError::Config { .. })
        ));
        let zero_ticks = DurableConfig {
            soak: SoakConfig {
                ticks: 0,
                ..SoakConfig::default()
            },
            ..DurableConfig::default()
        };
        assert!(matches!(
            run_soak_durable_observed(&zero_ticks, &Obs::disabled()),
            Err(DurableError::Core(_))
        ));
    }

    #[test]
    fn config_record_round_trips_and_rejects_garbage() {
        let config = DurableConfig {
            soak: SoakConfig {
                seed: 9,
                alpha: 0.875,
                protocol: TickProtocol::Trp,
                ..short()
            },
            checkpoint_every: 7,
            fault: StorageFaultPlan::new().crash_at_tick(3),
            policy: None,
        };
        let decoded = decode_config(encode_config(&config).as_bytes()).unwrap();
        assert_eq!(decoded.soak, config.soak);
        assert_eq!(decoded.checkpoint_every, config.checkpoint_every);
        assert!(decoded.fault.is_empty(), "fault plans are never persisted");
        assert_eq!(decoded.policy, None, "legacy configs carry no policy");

        assert!(decode_config(b"not a config").is_err());
        assert!(decode_config("tagwatch-soak-config v1\nseed 1\n".as_bytes()).is_err());
        assert!(decode_config(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn a_desync_window_past_every_round_is_rejected_by_name() {
        let encoded = encode_config(&DurableConfig {
            soak: short(),
            ..DurableConfig::default()
        });
        let window = format!("desync_window {}\n", short().desync_window);
        assert!(encoded.contains(&window));
        let at_bound = encoded.replace(&window, "desync_window 16777216\n");
        assert_eq!(
            decode_config(at_bound.as_bytes())
                .unwrap()
                .soak
                .desync_window,
            FrameSize::MAX
        );
        let past = encoded.replace(&window, "desync_window 1000000000000000\n");
        match decode_config(past.as_bytes()) {
            Err(DurableError::MalformedWal { reason }) => assert!(
                reason.contains("`desync_window` 1000000000000000 exceeds 16777216"),
                "{reason}"
            ),
            other => panic!("expected a malformed-WAL error, got {other:?}"),
        }
    }

    #[test]
    fn config_record_carries_an_explicit_policy() {
        let mut policy = SoakDriver::derive_policy(&short());
        policy.site = "warehouse-7".to_string();
        policy.alarms_to_escalate = 5;
        let config = DurableConfig {
            soak: short(),
            policy: Some(policy.clone()),
            ..DurableConfig::default()
        };
        let encoded = encode_config(&config);
        assert!(encoded.contains("policy.site warehouse-7"));
        let decoded = decode_config(encoded.as_bytes()).unwrap();
        assert_eq!(decoded.policy, Some(policy));

        let mangled = encoded.replace("policy.site warehouse-7", "policy.color blue");
        assert!(decode_config(mangled.as_bytes()).is_err());
    }

    #[test]
    fn crashed_policy_run_resumes_under_the_same_policy() {
        let mut policy = SoakDriver::derive_policy(&short());
        policy.site = "aisle-3".to_string();
        policy.alarms_to_escalate = 3;
        let config = DurableConfig {
            soak: short(),
            checkpoint_every: 13,
            fault: StorageFaultPlan::new().crash_at_tick(33),
            policy: Some(policy.clone()),
        };
        let baseline = {
            let complete = DurableConfig {
                fault: StorageFaultPlan::new(),
                ..config.clone()
            };
            run_soak_durable_observed(&complete, &Obs::disabled())
                .unwrap()
                .report
                .expect("uninterrupted run completes")
        };

        let outcome = run_soak_durable_observed(&config, &Obs::disabled()).unwrap();
        assert_eq!(outcome.interrupted_at, Some(33));
        let resumed = resume_soak_durable(&outcome.wal).unwrap();
        assert_eq!(resumed.policy, policy, "WAL must carry the exact policy");
        assert_eq!(resumed.report.log, baseline.log);
        assert_eq!(resumed.report.digest(), baseline.digest());

        // A crash before the first checkpoint cold-starts from the
        // config record alone — the policy must survive that path too.
        let early = DurableConfig {
            fault: StorageFaultPlan::new().crash_at_tick(0),
            ..config.clone()
        };
        let outcome = run_soak_durable_observed(&early, &Obs::disabled()).unwrap();
        let resumed = resume_soak_durable(&outcome.wal).unwrap();
        assert_eq!(resumed.resumed_from, 0);
        assert_eq!(resumed.policy, policy);
        assert_eq!(resumed.report.digest(), baseline.digest());
    }

    #[test]
    fn degenerate_policy_is_rejected_before_any_bytes_are_written() {
        let mut policy = SoakDriver::derive_policy(&short());
        policy.alarms_to_escalate = 0;
        let config = DurableConfig {
            soak: short(),
            policy: Some(policy),
            ..DurableConfig::default()
        };
        assert!(matches!(
            run_soak_durable_observed(&config, &Obs::disabled()),
            Err(DurableError::Config { .. })
        ));
    }
}
