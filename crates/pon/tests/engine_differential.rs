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
//! * the batched struct-of-arrays DBA against the per-call map DBA, and
//!   its demand-reading core's reads: each demand at most once, none
//!   after the cycle is full.

use genio_pon::engine::{self, EngineOptions, EventKind, FleetSimConfig};
use genio_pon::reference;
use genio_pon::tdma::{
    compute_grants_into, compute_grants_lazy, compute_map, BandwidthRequest, BatchGrants,
    DbaConfig, ServiceClass,
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
    /// randomized fleets: at one worker, where the merge passes the one
    /// shard log through, and at 2, 3 and 8 workers, where it k-way
    /// merges the shard logs (3 does not divide most tree counts, and 8
    /// is clamped to one shard per tree).
    fn engine_equals_reference(cfg in arb_config()) {
        let legacy = reference::run(&cfg);
        for workers in [1usize, 2, 3, 8] {
            let fast = engine::run_with(&cfg, &EngineOptions { workers }, &Telemetry::disabled());
            prop_assert_eq!(&legacy.log, &fast.log, "engine({}) diverged from reference", workers);
            prop_assert_eq!(&legacy.stats, &fast.stats, "engine({}) stats diverged", workers);
            prop_assert_eq!(legacy.log.digest(), fast.log.digest());
        }
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

fn class_of(c: u8) -> ServiceClass {
    match c {
        0 => ServiceClass::Fixed,
        1 => ServiceClass::Assured,
        _ => ServiceClass::BestEffort,
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
                class: class_of(class),
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

/// A DBA input of one of three kinds, each ONU a `(class, demand)`:
/// kind 0, the Fixed pass fills the cycle; kind 1, Fixed leaves room
/// and the Assured pass fills it; kind 2, neither fills it, so the
/// best-effort water-fill runs. Three filler ONUs of the filling class
/// (best effort for kind 2), each asking for at least 60,000 of the
/// cycle's 156,250 bytes, go in at drawn places; the classes served
/// before the filling one ask for under 3,000 bytes each.
fn arb_dba_case() -> impl Strategy<Value = (u8, Vec<(ServiceClass, u64)>)> {
    (
        0u8..3,
        vec((0u8..3, 0u64..2_000_000), 0..40),
        vec((index(), 60_000u64..2_000_000), 3..4),
    )
        .prop_map(|(kind, drawn, fillers)| {
            let mut onus: Vec<(ServiceClass, u64)> = drawn
                .into_iter()
                .map(|(c, demand)| {
                    let class = class_of(c);
                    let served_before = match kind {
                        0 => false,
                        1 => class == ServiceClass::Fixed,
                        _ => class != ServiceClass::BestEffort,
                    };
                    (
                        class,
                        if served_before {
                            demand % 3_000
                        } else {
                            demand
                        },
                    )
                })
                .collect();
            for (at, demand) in fillers {
                onus.insert(at.index(onus.len() + 1), (class_of(kind), demand));
            }
            (kind, onus)
        })
}

property! {
    /// The demand-reading core of the batched DBA grants exactly what
    /// the map DBA grants, whichever pass fills the cycle. Counted in
    /// its demand closure, it reads each demand at most once, none once
    /// the Fixed and Assured grants of the demands read before it have
    /// filled the cycle, and every demand when the cycle never fills.
    fn lazy_dba_reads_each_demand_once_and_none_after_the_cycle_fills(case in arb_dba_case()) {
        let (kind, onus) = case;
        let dba = DbaConfig::default();
        let capacity = (dba.cycle_ns as f64 * dba.bytes_per_ns) as u64;
        let id = |i: usize| u32::try_from(i).unwrap_or(u32::MAX) + 1;
        let requests: Vec<BandwidthRequest> = onus
            .iter()
            .enumerate()
            .map(|(i, &(class, queued_bytes))| BandwidthRequest { onu: id(i), queued_bytes, class })
            .collect();
        let map = compute_map(&dba, &requests);
        let mut reads: Vec<usize> = Vec::new();
        let mut batch = BatchGrants::new();
        compute_grants_lazy(
            &dba,
            onus.len(),
            |i| (id(i), onus[i].0),
            |i| {
                reads.push(i);
                onus[i].1
            },
            &mut batch,
        );
        let from_map: Vec<_> = map
            .grants()
            .map(|g| (g.onu, g.bytes, g.start_ns, g.duration_ns))
            .collect();
        prop_assert_eq!(from_map, batch.iter().collect::<Vec<_>>());

        let granted = |i: usize| map.grant(id(i)).map_or(0, |g| g.bytes);
        let granted_to = |class: ServiceClass| -> u64 {
            (0..onus.len()).filter(|&i| onus[i].0 == class).map(granted).sum()
        };
        let (fixed, assured) = (granted_to(ServiceClass::Fixed), granted_to(ServiceClass::Assured));
        match kind {
            0 => prop_assert_eq!(fixed, capacity),
            1 => {
                prop_assert!(fixed < capacity);
                prop_assert_eq!(fixed + assured, capacity);
            }
            _ => {
                prop_assert!(fixed + assured < capacity);
                prop_assert_eq!(reads.len(), onus.len(), "an unfilled cycle reads every demand");
            }
        }

        let mut distinct = reads.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), reads.len(), "a demand was read twice: {:?}", reads);
        // Fixed and Assured ONUs get their whole grant in their own pass,
        // and best-effort demands are all read before any best-effort
        // grant, so the capacity spent when a demand is read is the
        // Fixed and Assured grants of the demands read before it.
        let mut spent = 0u64;
        for &i in &reads {
            prop_assert!(spent < capacity, "demand {} read after the cycle filled", i);
            if onus[i].0 != ServiceClass::BestEffort {
                spent += granted(i);
            }
        }
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

/// Same-nanosecond announcements: the engine's one sort of the
/// activation window must break ties as the reference does, by ONU
/// index with the rogue after the subscribers. Randomized fleets almost
/// never tie, so the seeds come from a scan: the first whose 64-ONU
/// tree 0 has two subscribers announcing in the same nanosecond, and
/// the first whose rogue announces with one of them.
#[test]
fn engine_equals_reference_when_announces_tie() {
    const ONUS: u32 = 64;
    let subscribers_tie = |seed: u64| {
        let mut times: Vec<u64> = (0..ONUS)
            .map(|onu| engine::announce_ns(seed, 0, onu))
            .collect();
        times.sort_unstable();
        times.windows(2).any(|w| w[0] == w[1])
    };
    let rogue_ties = |seed: u64| {
        let rogue = engine::rogue_announce_ns(seed, 0);
        (0..ONUS).any(|onu| engine::announce_ns(seed, 0, onu) == rogue)
    };
    let ties: [&dyn Fn(u64) -> bool; 2] = [&subscribers_tie, &rogue_ties];
    for tie in ties {
        let seed = (0..1_000_000u64)
            .find(|&seed| tie(seed))
            .expect("some seed below one million ties");
        let cfg = FleetSimConfig {
            trees: 2,
            onus_per_tree: ONUS,
            cycles: 5,
            seed,
            ..FleetSimConfig::default()
        };
        let legacy = reference::run(&cfg);
        let fast = engine::run_with(&cfg, &EngineOptions { workers: 1 }, &Telemetry::disabled());
        assert_eq!(
            legacy.log, fast.log,
            "engine diverged from reference at seed {seed}"
        );
        assert_eq!(legacy.stats, fast.stats, "stats diverged at seed {seed}");
    }
}
