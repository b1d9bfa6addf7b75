//! Differential harness: the sharded discrete-event engine
//! ([`genio_pon::engine`]) against the legacy object-per-ONU stepper
//! ([`genio_pon::reference`]).
//!
//! The engine rewrite is only trustworthy if it is provably
//! behavior-preserving under the security experiments stacked on top
//! of it. These tests pin, over randomized fleets (testkit shrinking,
//! `GENIO_TEST_SEED` replay):
//!
//! * identical event logs — activation sequences, TDMA grant-schedule
//!   digests, attack events — record for record;
//! * identical aggregate stats, including bitwise-equal fairness sums;
//! * shard-count invariance: 1, 2 and 8 workers produce byte-identical
//!   merged logs and telemetry counter totals;
//! * the M3/M4 verdict matrix, pinned case by case on both paths;
//! * the batched struct-of-arrays DBA against the per-call map DBA.

use genio_pon::engine::{self, EngineOptions, EventKind, FleetSimConfig};
use genio_pon::reference;
use genio_pon::tdma::{
    compute_grants_into, compute_map, BandwidthRequest, BatchGrants, DbaConfig, ServiceClass,
};
use genio_telemetry::Telemetry;
use genio_testkit::prelude::*;

fn arb_config() -> impl Strategy<Value = FleetSimConfig> {
    (
        (1u32..5, 0u32..14, 0u32..10, 0u64..1_000_000),
        (0u8..2, 0u8..2, 0u8..2, 0u32..5, 0u32..4),
    )
        .prop_map(
            |((trees, onus, cycles, seed), (enc, cert, rogue, replay_every, greedy_every))| {
                FleetSimConfig {
                    trees,
                    onus_per_tree: onus,
                    cycles,
                    seed,
                    encrypt: enc == 1,
                    certificate_admission: cert == 1,
                    replay_every,
                    rogue_per_tree: rogue == 1,
                    greedy_every,
                }
            },
        )
}

property! {
    /// The engine's merged log and stats equal the legacy stepper's on
    /// randomized fleets, at one worker and at a worker count that does
    /// not divide the tree count.
    fn engine_equals_reference(cfg in arb_config()) {
        let legacy = reference::run(&cfg);
        let one = engine::run_with(&cfg, &EngineOptions { workers: 1 }, &Telemetry::disabled());
        let three = engine::run_with(&cfg, &EngineOptions { workers: 3 }, &Telemetry::disabled());
        prop_assert_eq!(&legacy.log, &one.log, "engine(1) diverged from reference");
        prop_assert_eq!(&legacy.stats, &one.stats);
        prop_assert_eq!(&one.log, &three.log, "worker count changed the log");
        prop_assert_eq!(&one.stats, &three.stats);
        prop_assert_eq!(legacy.log.digest(), three.log.digest());
    }
}

property! {
    /// Activation sequencing, in isolation: every subscriber activates
    /// exactly once, in announce-time order with announce-order tie
    /// breaking, with the equalization delay of the farthest ONU zero.
    fn activation_sequences_are_exact(trees in 1u32..4, onus in 1u32..14, seed in 0u64..100_000) {
        let cfg = FleetSimConfig {
            trees,
            onus_per_tree: onus,
            cycles: 0,
            seed,
            rogue_per_tree: false,
            ..FleetSimConfig::default()
        };
        let result = engine::run(&cfg);
        prop_assert_eq!(result.stats.activated, u64::from(trees) * u64::from(onus));
        for tree in 0..trees {
            let acts: Vec<_> = result
                .log
                .records
                .iter()
                .filter(|r| r.tree == tree && r.kind == EventKind::Activation)
                .collect();
            prop_assert_eq!(acts.len() as u32, onus);
            // Expected order: sort (announce_time, onu) exactly as the
            // legacy controller would process announcements.
            let mut expected: Vec<(u64, u32)> = (0..onus)
                .map(|onu| (engine::announce_ns(seed, tree, onu), onu))
                .collect();
            expected.sort_unstable();
            let got: Vec<(u64, u32)> = acts
                .iter()
                .map(|r| (r.time_ns, u32::try_from(r.a).unwrap_or(u32::MAX)))
                .collect();
            prop_assert_eq!(got, expected);
            prop_assert!(acts.iter().any(|r| r.c == 0), "farthest ONU gets zero delay");
        }
    }
}

property! {
    /// The batched struct-of-arrays DBA grants exactly what the
    /// per-call map DBA grants, for arbitrary demands and classes.
    fn batched_dba_equals_map_dba(reqs in vec((0u64..2_000_000, 0u8..3), 0..40)) {
        let requests: Vec<BandwidthRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(bytes, class))| BandwidthRequest {
                onu: u32::try_from(i).unwrap_or(u32::MAX) + 1,
                queued_bytes: bytes,
                class: match class {
                    0 => ServiceClass::Fixed,
                    1 => ServiceClass::Assured,
                    _ => ServiceClass::BestEffort,
                },
            })
            .collect();
        let dba = DbaConfig::default();
        let map = compute_map(&dba, &requests);
        let mut batch = BatchGrants::new();
        compute_grants_into(&dba, &requests, &mut batch);
        let from_map: Vec<_> = map
            .grants()
            .map(|g| (g.onu, g.bytes, g.start_ns, g.duration_ns))
            .collect();
        let from_batch: Vec<_> = batch.iter().collect();
        prop_assert_eq!(from_map, from_batch);
        prop_assert_eq!(map.total_bytes(), batch.total_bytes());
    }
}

/// The ISSUE's headline determinism gate: the same fleet at 1, 2 and 8
/// workers produces byte-identical merged event logs and identical
/// telemetry counter totals.
#[test]
fn shard_count_invariance_1_2_8_workers() {
    let cfg = FleetSimConfig {
        trees: 11,
        onus_per_tree: 12,
        cycles: 7,
        seed: 1234,
        encrypt: true,
        certificate_admission: false,
        replay_every: 3,
        rogue_per_tree: true,
        greedy_every: 5,
    };
    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let telemetry = Telemetry::enabled();
        let result = engine::run_with(&cfg, &EngineOptions { workers }, &telemetry);
        let snapshot = telemetry.snapshot();
        runs.push((
            workers,
            result,
            snapshot.counter("pon.fleet.events"),
            snapshot.counter("pon.fleet.frames"),
        ));
    }
    let (_, first, first_events, first_frames) = &runs[0];
    for (workers, result, events, frames) in &runs[1..] {
        assert_eq!(
            first.log, result.log,
            "event log changed at {workers} workers"
        );
        assert_eq!(
            first.log.digest(),
            result.log.digest(),
            "digest changed at {workers} workers"
        );
        assert_eq!(first.stats, result.stats);
        assert_eq!(
            first_events, events,
            "telemetry event totals changed at {workers} workers"
        );
        assert_eq!(
            first_frames, frames,
            "telemetry frame totals changed at {workers} workers"
        );
    }
    assert_eq!(
        *first_events,
        Some(first.stats.events),
        "telemetry counted every delivered event"
    );
}

/// The M3/M4 mitigation matrix, case by case on both paths: M3 alone
/// blinds the tap and defeats replay, M4 alone keeps the rogue out, and
/// neither depends on the other (encryption without admission still
/// blinds the tap but admits the rogue).
#[test]
fn verdict_matrix_holds_on_reference_and_engine() {
    for (encrypt, cert) in [(false, false), (false, true), (true, false), (true, true)] {
        let cfg = FleetSimConfig {
            trees: 1,
            onus_per_tree: 8,
            cycles: 20,
            seed: 42,
            encrypt,
            certificate_admission: cert,
            replay_every: 10,
            rogue_per_tree: true,
            greedy_every: 0,
        };
        for (path, stats) in [
            ("reference", reference::run(&cfg).stats),
            ("engine", engine::run(&cfg).stats),
        ] {
            let v = stats.verdicts();
            let case = format!("{path} at encrypt={encrypt} cert={cert}");
            assert!(stats.replays_attempted > 0, "no replay attempted: {case}");
            assert_eq!(v.eavesdropping_succeeded, !encrypt, "eavesdropping: {case}");
            assert_eq!(v.replay_succeeded, !encrypt, "replay: {case}");
            assert_eq!(v.impersonation_succeeded, !cert, "impersonation: {case}");
        }
    }
}

/// M3 without M4 on both paths: encryption alone still blinds the tap,
/// but without certificate admission the rogue gets in.
#[test]
fn encryption_without_admission_blinds_the_tap_but_admits_the_rogue() {
    let cfg = FleetSimConfig {
        trees: 2,
        onus_per_tree: 8,
        cycles: 20,
        seed: 42,
        encrypt: true,
        certificate_admission: false,
        replay_every: 10,
        rogue_per_tree: true,
        greedy_every: 0,
    };
    for (path, stats) in [
        ("reference", reference::run(&cfg).stats),
        ("engine", engine::run(&cfg).stats),
    ] {
        assert!(stats.frames_sent > 0, "{path}: no traffic");
        assert_eq!(
            stats.attacker_observed, stats.frames_sent,
            "{path}: broadcast medium"
        );
        assert_eq!(
            stats.attacker_readable, 0,
            "{path}: M3 alone still blinds the tap"
        );
        assert_eq!(
            stats.rogues_admitted, stats.rogues_attempted,
            "{path}: M4's absence admits every rogue"
        );
        assert!(stats.rogues_admitted > 0, "{path}: no rogue attempted");
    }
}

/// The reference stepper really is the legacy machinery: its per-tree
/// grant digests change when demand changes, and its event counts
/// follow the closed form.
#[test]
fn event_counts_follow_the_closed_form() {
    let cfg = FleetSimConfig {
        trees: 6,
        onus_per_tree: 9,
        cycles: 8,
        seed: 7,
        encrypt: true,
        certificate_admission: true,
        replay_every: 3,
        rogue_per_tree: true,
        greedy_every: 0,
    };
    let result = engine::run(&cfg);
    // Per tree: onus activations + 1 rogue attempt + cycles grant
    // events + ceil(cycles / replay_every) replay events.
    let replays_per_tree = (cfg.cycles + cfg.replay_every - 1) / cfg.replay_every;
    let per_tree =
        u64::from(cfg.onus_per_tree) + 1 + u64::from(cfg.cycles) + u64::from(replays_per_tree);
    assert_eq!(result.stats.events, u64::from(cfg.trees) * per_tree);
    assert_eq!(result.log.len() as u64, result.stats.events);
}
