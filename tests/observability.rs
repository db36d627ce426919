//! Integration tests for the observability subsystem's export
//! discipline: same seed and plan must yield byte-identical JSONL
//! event traces and metrics snapshots at every layer — the observed
//! protocol rounds, the pooled round engine at every shard count, and
//! the soak driver (including its automatic flight dump on an invariant
//! violation).

use rand::rngs::StdRng;
use rand::SeedableRng;

use tagwatch::analytics::soak::{run_soak_observed_threads, SoakConfig};
use tagwatch::analytics::{worker_threads, PooledEngine, TickProtocol};
use tagwatch::core::utrp::{UtrpChallenge, UtrpParticipant};
use tagwatch::core::{
    Bitstring, MonitorServer, Protocol, RoundEngine, RoundExecutor, RoundScratch, Trp, Utrp,
};
use tagwatch::obs::Obs;
use tagwatch::sim::{Channel, Counter, FrameSize, TagId, TagPopulation, TimingModel};

/// Drives `rounds` observed rounds of `protocol` through `engine`
/// against a fresh server/floor pair and returns the export artifacts.
fn run_observed_rounds_with<P: Protocol, E: RoundEngine>(
    protocol: &P,
    seed: u64,
    rounds: usize,
    engine: &mut E,
) -> (String, String, u64) {
    let n = 150usize;
    let floor_src = TagPopulation::with_sequential_ids(n);
    let mut floor = floor_src.clone();
    let mut server = MonitorServer::new(floor_src.ids(), 4, 0.95).expect("valid params");
    let executor = RoundExecutor::new(Channel::ideal(), None);
    let mut rng = StdRng::seed_from_u64(seed);
    let obs = Obs::new();
    for _ in 0..rounds {
        let report = protocol
            .run_round_observed(&mut server, &mut floor, &executor, engine, &mut rng, &obs)
            .expect("round runs");
        assert!(report.verdict.is_intact(), "nothing is missing");
    }
    (
        obs.flight_jsonl(),
        obs.snapshot_json(),
        obs.snapshot_digest(),
    )
}

/// [`run_observed_rounds_with`] through the scalar scratch engine.
fn run_observed_rounds<P: Protocol>(
    protocol: &P,
    seed: u64,
    rounds: usize,
) -> (String, String, u64) {
    run_observed_rounds_with(protocol, seed, rounds, &mut RoundScratch::new())
}

#[test]
fn trp_exports_are_byte_identical_across_same_seed_runs() {
    let (trace_a, metrics_a, digest_a) = run_observed_rounds(&Trp, 17, 6);
    let (trace_b, metrics_b, digest_b) = run_observed_rounds(&Trp, 17, 6);
    assert!(!trace_a.is_empty(), "rounds must emit flight events");
    assert_eq!(trace_a, trace_b, "TRP trace must be byte-stable");
    assert_eq!(metrics_a, metrics_b, "TRP snapshot must be byte-stable");
    assert_eq!(digest_a, digest_b);
    assert!(trace_a.contains("\"type\":\"round_completed\",\"proto\":\"trp\""));
    assert!(metrics_a.contains("\"schema\": \"tagwatch-obs-metrics-v1\""));
}

#[test]
fn utrp_exports_are_byte_identical_across_same_seed_runs() {
    let (trace_a, metrics_a, digest_a) = run_observed_rounds(&Utrp, 23, 6);
    let (trace_b, metrics_b, digest_b) = run_observed_rounds(&Utrp, 23, 6);
    assert_eq!(trace_a, trace_b, "UTRP trace must be byte-stable");
    assert_eq!(metrics_a, metrics_b, "UTRP snapshot must be byte-stable");
    assert_eq!(digest_a, digest_b);
    assert!(trace_a.contains("\"type\":\"round_completed\",\"proto\":\"utrp\""));
    assert!(trace_a.contains("\"type\":\"verified\""));
}

/// Pulls one counter's export line out of a metrics snapshot.
fn counter_line(snapshot: &str, key: &str) -> String {
    snapshot
        .lines()
        .find(|l| l.contains(key))
        .unwrap_or_else(|| panic!("snapshot lacks {key}"))
        .to_owned()
}

/// The pooled round engine, forced into its sharded path (threshold
/// lowered below the 150-tag population), must reproduce the scalar
/// engine's observable behavior at every thread count: the flight
/// trace (bitstrings, announcements, verdicts, re-seed counts —
/// including UTRP's mid-round retirements) byte for byte, and the
/// probe total exactly. `probes_filtered` is the one deliberate
/// exception: the candidate-filter warm-up is per-shard, so its count
/// is strategy-dependent — full snapshot byte-equality is therefore
/// only owed at one thread, where the pooled engine *is* the scalar
/// engine.
#[test]
fn pooled_exports_are_thread_invariant_for_trp_and_utrp() {
    let thread_counts = [1, 2, 3, worker_threads()];
    let scalar_trp = run_observed_rounds(&Trp, 17, 6);
    let scalar_utrp = run_observed_rounds(&Utrp, 23, 6);
    for t in thread_counts {
        // TRP never touches the engine, so everything matches.
        let mut engine = PooledEngine::with_threshold(t, 64);
        let pooled = run_observed_rounds_with(&Trp, 17, 6, &mut engine);
        assert_eq!(
            pooled, scalar_trp,
            "TRP exports must be thread-invariant (t={t})"
        );

        let mut engine = PooledEngine::with_threshold(t, 64);
        let (trace, snapshot, digest) = run_observed_rounds_with(&Utrp, 23, 6, &mut engine);
        assert_eq!(
            trace, scalar_utrp.0,
            "UTRP flight trace must be thread-invariant (t={t})"
        );
        assert_eq!(
            counter_line(&snapshot, "\"probes_total\""),
            counter_line(&scalar_utrp.1, "\"probes_total\""),
            "probe accounting must be thread-invariant (t={t})"
        );
        if t == 1 {
            assert_eq!((snapshot, digest), (scalar_utrp.1.clone(), scalar_utrp.2));
        }
    }
}

#[test]
fn different_seeds_produce_different_digests() {
    let (_, _, digest_a) = run_observed_rounds(&Utrp, 23, 6);
    let (_, _, digest_b) = run_observed_rounds(&Utrp, 24, 6);
    assert_ne!(digest_a, digest_b, "the digest must track the content");
}

/// One observed round of `load` through `engine`: announcements,
/// bitstring, probe total, and the metrics snapshot.
fn observed_round<E: RoundEngine>(
    engine: &mut E,
    load: &[UtrpParticipant],
    ch: &UtrpChallenge,
) -> (u64, Bitstring, u64, String) {
    let obs = Obs::new();
    engine.load_participants(load);
    let announcements = engine
        .run_observed(ch.frame_size(), ch.nonces(), &obs)
        .expect("round runs");
    (
        announcements,
        engine.bitstring().clone(),
        obs.counter(obs.m.probes_total),
        obs.snapshot_json(),
    )
}

/// The pooled engine forced through its workers at awkward shard
/// counts: per-configuration exports are byte-stable, and the
/// announcements, bitstring and probe total (unlike the per-shard
/// filter warm-up counts) equal the scalar engine's — including a
/// 5-tag load over 7 shards (one-tag and empty shards) and an empty
/// load.
#[test]
fn pooled_exports_are_deterministic_at_every_shard_count() {
    let frame = FrameSize::new(96).expect("positive frame");
    let mut rng = StdRng::seed_from_u64(41);
    let ch = UtrpChallenge::generate(frame, &TimingModel::gen2(), &mut rng);
    let population: Vec<UtrpParticipant> = (1..=200u64)
        .map(|i| UtrpParticipant::new(TagId::from(i), Counter::new(i % 3)))
        .collect();

    let cases: [(&[UtrpParticipant], usize, usize); 5] = [
        (&population, 2, 1),
        (&population, 3, 1),
        (&population, 7, 1),
        (&population[..5], 7, 1),
        (&[], 7, 0),
    ];
    for (load, threads, threshold) in cases {
        let label = format!("n={} t={threads}", load.len());
        let want = observed_round(&mut RoundScratch::new(), load, &ch);
        assert_eq!(want.2 > 0, !load.is_empty(), "{label}: probes counted");
        let mut engine = PooledEngine::with_threshold(threads, threshold);
        let (ann_a, bs_a, probes_a, snap_a) = observed_round(&mut engine, load, &ch);
        assert_eq!(
            (engine.threads(), engine.scalar_fallbacks()),
            (threads, 0),
            "{label}: the round must run on the workers"
        );
        let (_, _, _, snap_b) = observed_round(
            &mut PooledEngine::with_threshold(threads, threshold),
            load,
            &ch,
        );
        assert_eq!(snap_a, snap_b, "{label}: snapshot must be byte-stable");
        assert_eq!(
            (ann_a, bs_a, probes_a),
            (want.0, want.1, want.2),
            "{label}: announcements, bitstring and probes must match the scalar engine"
        );
    }
}

/// Acceptance: a soak invariant violation latches the flight recorder,
/// and the dump is byte-identical across two same-seed runs.
#[test]
fn soak_violation_flight_dump_is_byte_identical_across_runs() {
    // An impossible one-tick detection deadline with unreliable
    // detection (small frames from the low confidence requirement)
    // deterministically violates invariant I1. TRP keeps counters —
    // and therefore earlier desync/quarantine dump triggers — out of
    // the picture, so the violation owns the first-wins latch.
    let config = SoakConfig {
        seed: 1,
        ticks: 100,
        alpha: 0.5,
        protocol: TickProtocol::Trp,
        burst_period: 0,
        theft_period: 10,
        detection_deadline: 1,
        ..SoakConfig::default()
    };
    let run = || {
        let obs = Obs::new();
        let report = run_soak_observed_threads(&config, &obs, 1).expect("soak runs to completion");
        (report, obs.snapshot_json())
    };
    let (report_a, snapshot_a) = run();
    let (report_b, snapshot_b) = run();

    assert!(!report_a.is_clean(), "the schedule must violate I1");
    let dump_a = report_a.flight_dump.expect("violation latches a dump");
    let dump_b = report_b.flight_dump.expect("violation latches a dump");
    assert_eq!(dump_a.reason, "invariant_violation");
    assert_eq!(dump_a, dump_b, "flight dumps must be byte-identical");
    assert!(dump_a.jsonl.contains("\"type\":\"invariant_violated\""));
    assert_eq!(snapshot_a, snapshot_b, "snapshots must be byte-identical");
    assert_eq!(report_a.log, report_b.log);
}
