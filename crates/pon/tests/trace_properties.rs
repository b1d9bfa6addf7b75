//! Causal-trace properties of the sharded fleet engine: over randomized
//! fleets and worker counts, the span events the engine emits must form
//! one well-formed tree per run — a single trace id, every parent
//! present, no cycles — and the canonical flight-recorder export must
//! not depend on how shard threads interleaved.

use genio_pon::engine::{self, trace_root, EngineOptions, FleetSimConfig};
use genio_telemetry::{chrome_trace, validate_tree, Clock, ManualClock, Telemetry};
use genio_testkit::prelude::*;

fn traced_telemetry() -> Telemetry {
    // Large ring so no event is ever dropped mid-property.
    Telemetry::with_clock(Clock::manual(&ManualClock::new()), 16_384)
}

property! {
    /// Every traced fleet run exports a single-root span forest with no
    /// orphan parents and no cycles, under any worker count, and every
    /// traced event carries the run's trace id.
    fn fleet_spans_form_one_tree(
        trees in 1u32..5,
        onus in 0u32..10,
        cycles in 0u32..6,
        seed in 0u64..1_000_000,
        workers in 1usize..5
    ) {
        let cfg = FleetSimConfig {
            trees,
            onus_per_tree: onus,
            cycles,
            seed,
            ..FleetSimConfig::default()
        };
        let telemetry = traced_telemetry();
        engine::run_with(&cfg, &EngineOptions { workers }, &telemetry);
        let events = telemetry.drain_trace();
        let stats = match validate_tree(&events) {
            Ok(stats) => stats,
            Err(e) => return Err(PropError::fail(format!("malformed span forest: {e}"))),
        };
        prop_assert!(stats.events > 0, "engine emitted no span events");
        prop_assert_eq!(stats.traced, stats.events, "engine spans must all carry a context");
        prop_assert_eq!(stats.roots, 1, "one run must form one tree");
        let trace_id = trace_root(cfg.seed).trace_id;
        for e in &events {
            prop_assert_eq!(e.trace_id, trace_id, "event {} off-trace", e.name);
        }
    }
}

/// Four shard workers: on hosts with fewer CPUs, workers are descheduled
/// mid-run and contend for the trace ring.
const RERUN_WORKERS: usize = 4;

property! {
    /// The canonical export is identical across same-seed reruns with
    /// four shard workers, and no run loses a span: how shard threads
    /// interleaved on the trace ring must be invisible in
    /// `genio-trace/v1` bytes.
    fn export_is_rerun_invariant(
        trees in 4u32..8,
        onus in 0u32..8,
        cycles in 0u32..5,
        seed in 0u64..1_000_000
    ) {
        let cfg = FleetSimConfig {
            trees,
            onus_per_tree: onus,
            cycles,
            seed,
            ..FleetSimConfig::default()
        };
        let mut exports = Vec::new();
        for _ in 0..3 {
            let telemetry = traced_telemetry();
            engine::run_with(&cfg, &EngineOptions { workers: RERUN_WORKERS }, &telemetry);
            let dropped = telemetry.ring().map_or(0, |ring| ring.stats().dropped);
            prop_assert_eq!(dropped, 0, "the trace ring lost spans");
            exports.push(chrome_trace(&telemetry.drain_trace()));
        }
        prop_assert_eq!(&exports[0], &exports[1], "same-seed rerun diverged");
        prop_assert_eq!(&exports[0], &exports[2], "same-seed rerun diverged");
    }
}
