//! E-S2 — **fleet-scale PON simulation**: the sharded discrete-event
//! engine driving one million ONUs.
//!
//! The paper's operator runs security mitigations across an access
//! network of thousands of PON trees, not the single tree of E-S1.
//! This target measures `genio_pon::engine` at fleet scale and asserts
//! the E-S2 acceptance properties:
//!
//! * the timed fleet must contain at least [`MIN_FLEET_ONUS`]
//!   subscriber ONUs, every one of which activates;
//! * the run is deterministic: before timing, the same fleet is run at
//!   1, 2 and 8 workers and the merged event-log digests must be
//!   byte-identical (the full differential suite lives in
//!   `crates/pon/tests/engine_differential.rs`);
//! * mitigations hold at scale: with GEM encryption and certificate
//!   admission on, eavesdropping, replay and impersonation verdicts
//!   all come back blocked.
//!
//! Two rows time the same fleet: `fleet_sim/engine` with one shard
//! worker per CPU (the k-way merge path) and `fleet_sim/engine_1worker`
//! with one worker, the path genio-perf's `fleet_1m` runs (one shard,
//! whose log the merge passes through). Throughput is reported in
//! downstream frames per second; the printed table also gives ONUs
//! simulated and events processed. On a single-CPU host the shard
//! workers still run (determinism is asserted), but no parallel
//! speedup is claimed.

use std::num::NonZeroUsize;
use std::sync::Once;

use genio_bench::print_experiment_once;
use genio_pon::engine::{self, EngineOptions, FleetSimConfig};
use genio_telemetry::Telemetry;
use genio_testkit::bench::{BenchmarkId, Criterion, Throughput};

static PRINTED: Once = Once::new();

/// Acceptance bound: the timed fleet must simulate at least this many
/// subscriber ONUs.
const MIN_FLEET_ONUS: u64 = 1_000_000;

const TREES: u32 = 16_384;
const ONUS_PER_TREE: u32 = 64;
const CYCLES: u32 = 3;

fn fleet_config() -> FleetSimConfig {
    FleetSimConfig {
        trees: TREES,
        onus_per_tree: ONUS_PER_TREE,
        cycles: CYCLES,
        seed: 42,
        encrypt: true,
        certificate_admission: true,
        replay_every: 4,
        rogue_per_tree: true,
        greedy_every: 8,
    }
}

fn bench(c: &mut Criterion) {
    c.experiment_id("E-S2");
    let cpus = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);

    // --- Pre-flight, outside timing: determinism, scale, verdicts. ---
    let small = FleetSimConfig {
        trees: 24,
        onus_per_tree: 16,
        cycles: 6,
        ..fleet_config()
    };
    let digests: Vec<u64> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            engine::run_with(&small, &EngineOptions { workers }, &Telemetry::disabled())
                .log
                .digest()
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "shard count changed the merged event log: {digests:?}"
    );

    let cfg = fleet_config();
    let fleet_onus = u64::from(cfg.trees) * u64::from(cfg.onus_per_tree);
    assert!(
        fleet_onus >= MIN_FLEET_ONUS,
        "E-S2 fleet too small: {fleet_onus} ONUs (required >= {MIN_FLEET_ONUS})"
    );
    let probe = engine::run(&cfg);
    assert_eq!(
        probe.stats.activated, fleet_onus,
        "every subscriber ONU must activate"
    );
    let verdicts = probe.stats.verdicts();
    assert!(
        !verdicts.eavesdropping_succeeded
            && !verdicts.replay_succeeded
            && !verdicts.impersonation_succeeded,
        "mitigations must hold at fleet scale"
    );
    let frames = probe.stats.frames_sent;
    let events = probe.stats.events;

    // --- Timed section: the full fleet, event scheduling through
    // merged log, with telemetry disabled (E-O1 covers the overhead).
    let mut group = c.benchmark_group("fleet_sim");
    group.throughput(Throughput::Elements(frames));
    group.bench_with_input(BenchmarkId::from_parameter("engine"), &cfg, |b, cfg| {
        b.iter(|| std::hint::black_box(engine::run(cfg)))
    });
    let one_worker = EngineOptions { workers: 1 };
    group.bench_with_input(
        BenchmarkId::from_parameter("engine_1worker"),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                std::hint::black_box(engine::run_with(cfg, &one_worker, &Telemetry::disabled()))
            })
        },
    );
    group.finish();

    let rows = [
        ("fleet_sim/engine", format!("{cpus} workers")),
        ("fleet_sim/engine_1worker", "1 worker".to_string()),
    ];
    let mut table = String::new();
    for (name, label) in rows {
        let Some(ns) = c
            .records()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
        else {
            continue;
        };
        table.push_str(&format!(
            "  {:<14} {:>9.2} ms {:>12.2}M/s {:>12.2}M/s\n",
            label,
            ns / 1e6,
            frames as f64 / (ns / 1e9) / 1e6,
            events as f64 / (ns / 1e9) / 1e6,
        ));
    }
    if table.is_empty() {
        // A `--filter` run can skip both rows; no table then.
        return;
    }

    let body = format!(
        "fleet: {} trees x {} ONUs = {} ONUs, {} TDMA cycles\n\
         activated: {} ONUs; events: {}; downstream frames: {}\n\n\
         \x20 {:<14} {:>12} {:>14} {:>14}\n\
         {}\n\
         host CPUs: {}; scale bound: >= {} ONUs (asserted); \
         shard determinism at 1/2/8 workers (asserted)\n",
        cfg.trees,
        cfg.onus_per_tree,
        fleet_onus,
        cfg.cycles,
        probe.stats.activated,
        events,
        frames,
        "configuration",
        "median",
        "frames/s",
        "events/s",
        table,
        cpus,
        MIN_FLEET_ONUS,
    );
    print_experiment_once(
        &PRINTED,
        "E-S2 / fleet-scale PON simulation — 1M ONUs on the sharded event engine",
        &body,
    );
}

genio_testkit::bench_main!(bench);
