//! Protocol-generic round execution.
//!
//! TRP and UTRP share a lifecycle — issue a challenge, run the round in
//! the field through a [`RoundExecutor`], verify the response — but the
//! concrete calls differ per protocol, and before this module every
//! consumer (the session layer, the CLI scenarios, the soak driver)
//! spelled both arms out by hand. [`Protocol`] captures the lifecycle
//! once; [`Trp`] and [`Utrp`] are its two implementations, and callers
//! like `MonitoringSession` dispatch statically on them.
//!
//! One deliberate semantic lives here rather than in the server: a
//! response so malformed that verification *errors* with
//! [`CoreError::ResponseShapeMismatch`] (e.g. scripted truncation in
//! transit) is reported as a [`Verdict::NotIntact`] alarm instead of
//! propagating the error. The challenge is already spent, so field
//! counters may have advanced while the mirror did not — exactly the
//! fail-safe posture the fault matrix expects: transport corruption may
//! cost a false alarm, never a silent false "intact". Faultless
//! executors can never produce a shape mismatch, so the mapping is
//! unobservable on the fault-free path.

use rand::Rng;

use tagwatch_obs::{Obs, ObsEvent};
use tagwatch_sim::TagPopulation;

use crate::engine::RoundEngine;
use crate::error::CoreError;
use crate::executor::RoundExecutor;
use crate::server::MonitorServer;
use crate::verdict::{MonitorReport, ProtocolKind, Verdict};

/// One monitoring protocol's challenge → field round → verify cycle.
///
/// The `run_round` method is generic over the RNG, so the trait is not
/// object-safe; consumers dispatch statically (e.g. by matching a
/// protocol-kind enum), which also keeps the hot Monte-Carlo paths
/// monomorphized.
pub trait Protocol {
    /// Which protocol this is.
    fn kind(&self) -> ProtocolKind;

    /// Runs one full round with no observer:
    /// [`Protocol::run_round_observed`] under [`Obs::disabled`].
    ///
    /// # Errors
    ///
    /// As [`Protocol::run_round_observed`].
    fn run_round<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        server: &mut MonitorServer,
        floor: &mut TagPopulation,
        executor: &RoundExecutor,
        scratch: &mut E,
        rng: &mut R,
    ) -> Result<MonitorReport, CoreError> {
        self.run_round_observed(server, floor, executor, scratch, rng, &Obs::disabled())
    }

    /// Runs one full round: issue a challenge from `server`, execute it
    /// over `floor` through `executor`, verify, and return the report.
    ///
    /// `scratch` is the caller's reusable round engine (a
    /// [`RoundScratch`](crate::engine::RoundScratch) or the pooled sharded engine in
    /// `tagwatch-analytics`): long-running drivers pass the same
    /// engine every tick so rounds stop churning the allocator, and
    /// UTRP rounds drive both the field simulation and the server's
    /// mirror prediction through it. It never affects semantics — a
    /// fresh engine, a reused one, and any thread count produce
    /// byte-identical rounds. TRP rounds carry no re-seed state and
    /// leave it untouched.
    ///
    /// An enabled `obs` records the field round through the executor
    /// and the verification outcome (verdict counters, hamming-distance
    /// histogram, a `verified` flight event, and an automatic flight
    /// dump on a [`Verdict::Desynced`] outcome). The report and the RNG
    /// stream are identical with any `obs`; a disabled one adds a
    /// handful of untaken branches.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors other than the response-shape mapping
    /// described in the module docs (e.g. [`CoreError::CounterDesync`]
    /// when issuing a UTRP challenge over an untrusted mirror).
    fn run_round_observed<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        server: &mut MonitorServer,
        floor: &mut TagPopulation,
        executor: &RoundExecutor,
        scratch: &mut E,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<MonitorReport, CoreError>;
}

/// Records one verification outcome into the registry and flight
/// ring. A desynced verdict is a dump trigger: the mirror disagreed
/// with the field, and the event window leading up to it is exactly
/// what a postmortem needs.
fn record_report(obs: &Obs, report: &MonitorReport) {
    if !obs.enabled() {
        return;
    }
    match &report.verdict {
        Verdict::Intact => obs.inc(obs.m.verify_intact),
        Verdict::NotIntact => obs.inc(obs.m.verify_alarm),
        Verdict::Desynced { .. } => obs.inc(obs.m.verify_desynced),
    }
    // Verification re-walks the mirror frame slot by slot, so the
    // phase's deterministic cost is the frame size; it issues no
    // scan-engine probes.
    obs.span_phase(tagwatch_obs::Phase::Verify, report.frame_size, 0);
    obs.observe(obs.m.hamming_distance, report.mismatched_slots as f64);
    obs.emit(ObsEvent::Verified {
        proto: report.protocol.obs_kind(),
        verdict: report.verdict.obs_kind(),
        mismatched: report.mismatched_slots as u64,
        late: report.late,
    });
    if report.verdict.is_desynced() {
        obs.capture_dump("desync");
    }
}

/// A malformed response (wrong bitstring length) is an alarm, not an
/// error: the fail-safe mapping described in the module docs.
fn alarm_on_shape_mismatch(
    result: Result<MonitorReport, CoreError>,
    protocol: ProtocolKind,
    frame_size: u64,
) -> Result<MonitorReport, CoreError> {
    match result {
        Err(CoreError::ResponseShapeMismatch { .. }) => Ok(MonitorReport {
            protocol,
            verdict: Verdict::NotIntact,
            frame_size,
            mismatched_slots: 0,
            late: false,
            elapsed: None,
        }),
        other => other,
    }
}

/// The Trusted Reader Protocol (paper §4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Trp;

impl Protocol for Trp {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Trp
    }

    fn run_round_observed<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        server: &mut MonitorServer,
        floor: &mut TagPopulation,
        executor: &RoundExecutor,
        _scratch: &mut E,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<MonitorReport, CoreError> {
        // The round span brackets challenge, field round and verify so
        // phase costs inside attribute to it; close on error paths too.
        obs.span_open(tagwatch_obs::SpanKind::Round);
        let result = (|| {
            let challenge = server.issue_trp_challenge(rng)?;
            let f = challenge.frame_size().get();
            let bs = executor.run_trp(floor, &challenge, rng, obs)?;
            let report =
                alarm_on_shape_mismatch(server.verify_trp(challenge, &bs), ProtocolKind::Trp, f)?;
            record_report(obs, &report);
            Ok(report)
        })();
        obs.span_close();
        result
    }
}

/// The Untrusted Reader Protocol (paper §5), with an honest reader in
/// the field (the adversarial-reader analysis lives in `tagwatch-attack`
/// and the Monte-Carlo harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Utrp;

impl Protocol for Utrp {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Utrp
    }

    fn run_round_observed<E: RoundEngine, R: Rng + ?Sized>(
        &self,
        server: &mut MonitorServer,
        floor: &mut TagPopulation,
        executor: &RoundExecutor,
        scratch: &mut E,
        rng: &mut R,
        obs: &Obs,
    ) -> Result<MonitorReport, CoreError> {
        obs.span_open(tagwatch_obs::SpanKind::Round);
        let result = (|| {
            let timing = server.config().timing;
            let challenge = server.issue_utrp_challenge(rng)?;
            let f = challenge.frame_size().get();
            let response = executor
                .run_utrp_scratch_observed(floor, &challenge, &timing, rng, scratch, obs)?;
            let report = alarm_on_shape_mismatch(
                server.verify_utrp_with(challenge, &response, scratch),
                ProtocolKind::Utrp,
                f,
            )?;
            record_report(obs, &report);
            Ok(report)
        })();
        obs.span_close();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstring::Bitstring;
    use crate::engine::RoundScratch;
    use crate::nonce::NonceSequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::{Channel, Counter, FaultPlan, FrameSize, TagId};

    /// A [`RoundScratch`] that counts which entry point each round
    /// came in through.
    #[derive(Default)]
    struct Counting {
        inner: RoundScratch,
        runs: u32,
        observed_runs: u32,
    }

    impl RoundEngine for Counting {
        fn load<I: IntoIterator<Item = (TagId, Counter, bool)>>(&mut self, parts: I) {
            self.inner.load(parts);
        }

        fn run(&mut self, f: FrameSize, nonces: &NonceSequence) -> Result<u64, CoreError> {
            self.runs += 1;
            self.inner.run(f, nonces)
        }

        fn run_observed(
            &mut self,
            f: FrameSize,
            nonces: &NonceSequence,
            obs: &Obs,
        ) -> Result<u64, CoreError> {
            self.observed_runs += 1;
            self.inner.run_observed(f, nonces, obs)
        }

        fn bitstring(&self) -> &Bitstring {
            self.inner.bitstring()
        }

        fn take_bitstring(&mut self) -> Bitstring {
            self.inner.take_bitstring()
        }

        fn announcements(&self) -> u64 {
            self.inner.announcements()
        }
    }

    fn setup(n: usize, m: u64) -> (MonitorServer, TagPopulation) {
        let floor = TagPopulation::with_sequential_ids(n);
        let server = MonitorServer::new(floor.ids(), m, 0.95).unwrap();
        (server, floor)
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(Trp.kind(), ProtocolKind::Trp);
        assert_eq!(Utrp.kind(), ProtocolKind::Utrp);
    }

    #[test]
    fn trp_round_over_ideal_executor_matches_manual_flow() {
        let (mut manual_server, floor) = setup(120, 4);
        let (mut protocol_server, mut protocol_floor) = setup(120, 4);

        // Manual flow (the pre-refactor call sequence)...
        let mut rng_a = StdRng::seed_from_u64(9);
        let challenge = manual_server.issue_trp_challenge(&mut rng_a).unwrap();
        let bs = crate::trp::observed_bitstring(&floor.ids(), &challenge);
        let manual = manual_server.verify_trp(challenge, &bs).unwrap();

        // ...and the protocol-generic flow under the same seed.
        let mut rng_b = StdRng::seed_from_u64(9);
        let generic = Trp
            .run_round(
                &mut protocol_server,
                &mut protocol_floor,
                &RoundExecutor::ideal(),
                &mut RoundScratch::new(),
                &mut rng_b,
            )
            .unwrap();
        assert_eq!(manual, generic);
        assert!(generic.verdict.is_intact());
    }

    #[test]
    fn observer_routing_picks_the_engine_entry_point() {
        // A disabled observer keeps the field round and the mirror on
        // the engine's plain `run`; an enabled one routes only the
        // field round through `run_observed`.
        let round = |obs: Option<&Obs>| {
            let (mut server, mut floor) = setup(90, 3);
            let mut rng = StdRng::seed_from_u64(12);
            let mut engine = Counting::default();
            let exec = RoundExecutor::ideal();
            let report = match obs {
                None => Utrp.run_round(&mut server, &mut floor, &exec, &mut engine, &mut rng),
                Some(obs) => Utrp.run_round_observed(
                    &mut server,
                    &mut floor,
                    &exec,
                    &mut engine,
                    &mut rng,
                    obs,
                ),
            }
            .unwrap();
            (
                report,
                rng.gen::<u64>(),
                (engine.runs, engine.observed_runs),
            )
        };
        let (plain, plain_rng, plain_calls) = round(None);
        assert!(plain.verdict.is_intact());
        assert_eq!(plain_calls, (2, 0));
        let (report, next, calls) = round(Some(&Obs::disabled()));
        assert_eq!((report, next, calls), (plain.clone(), plain_rng, (2, 0)));
        let (report, next, calls) = round(Some(&Obs::new()));
        assert_eq!((report, next, calls), (plain, plain_rng, (1, 1)));
    }

    #[test]
    fn utrp_round_maintains_the_mirror() {
        let (mut server, mut floor) = setup(80, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..3 {
            let report = Utrp
                .run_round(
                    &mut server,
                    &mut floor,
                    &RoundExecutor::ideal(),
                    &mut RoundScratch::new(),
                    &mut rng,
                )
                .unwrap();
            assert!(report.verdict.is_intact());
        }
        for tag in floor.iter() {
            assert_eq!(server.counter_of(tag.id()).unwrap(), tag.counter());
        }
    }

    #[test]
    fn truncated_response_is_an_alarm_not_an_error() {
        use crate::server::ServerConfig;
        let mut floor = TagPopulation::with_sequential_ids(50);
        // Diagnosis needs a window covering a whole lost round's
        // announcement advance (up to ~n).
        let config = ServerConfig {
            desync_window: 128,
            ..ServerConfig::default()
        };
        let mut server = MonitorServer::with_config(floor.ids(), 2, 0.95, config).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let executor = RoundExecutor::new(
            Channel::ideal(),
            Some(FaultPlan::new().truncate_response(8)),
        );
        let report = Utrp
            .run_round(
                &mut server,
                &mut floor,
                &executor,
                &mut RoundScratch::new(),
                &mut rng,
            )
            .unwrap();
        assert!(report.is_alarm());
        assert!(report.verdict.is_alarm());
        // The challenge was spent against the field but never verified:
        // the field advanced while the mirror did not, so the *next*
        // clean round is diagnosed as a uniform mirror lag.
        let next = Utrp
            .run_round(
                &mut server,
                &mut floor,
                &RoundExecutor::ideal(),
                &mut RoundScratch::new(),
                &mut rng,
            )
            .unwrap();
        assert!(
            matches!(&next.verdict, Verdict::Desynced { suspects } if suspects.is_empty()),
            "{next:?}"
        );

        let trp_report = Trp
            .run_round(
                &mut server,
                &mut floor,
                &executor,
                &mut RoundScratch::new(),
                &mut rng,
            )
            .unwrap();
        assert!(trp_report.is_alarm(), "TRP truncation must alarm too");
    }

    #[test]
    fn theft_beyond_tolerance_alarms() {
        let (mut server, mut floor) = setup(200, 3);
        let mut rng = StdRng::seed_from_u64(2);
        floor.remove_random(4, &mut rng).unwrap();
        let report = Trp
            .run_round(
                &mut server,
                &mut floor,
                &RoundExecutor::ideal(),
                &mut RoundScratch::new(),
                &mut rng,
            )
            .unwrap();
        assert!(report.is_alarm());
    }
}
