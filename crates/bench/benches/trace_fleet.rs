//! E-O2 — **causal tracing at fleet scale**: telemetry v2 must keep the
//! traced fleet engine inside the E-O1 overhead envelope.
//!
//! Two row families:
//! - `trace_fleet/span_primitives`: `span` vs `span_at` vs cached
//!   reopen, isolating the cost of carrying a [`TraceContext`].
//! - `trace_fleet/fleet_engine`: the sharded PON engine with causal
//!   tracing enabled vs fully disabled; ratio asserted `< MAX_RATIO`.

use std::sync::Once;

use genio_bench::print_experiment_once;
use genio_pon::engine::{run_with, trace_root, EngineOptions, FleetSimConfig};
use genio_telemetry::Telemetry;
use genio_testkit::bench::{BenchmarkId, Criterion, Throughput};

static PRINTED: Once = Once::new();

/// Acceptance bound: traced/untraced fleet-engine ratio (same envelope
/// as E-O1).
const MAX_RATIO: f64 = 1.15;

fn fleet_config() -> FleetSimConfig {
    FleetSimConfig {
        trees: 48,
        onus_per_tree: 24,
        cycles: 4,
        ..FleetSimConfig::default()
    }
}

fn bench(c: &mut Criterion) {
    c.experiment_id("E-O2");

    // --- Span primitives: context-free, traced, and cached reopen. ---
    let on = Telemetry::enabled();
    let root = trace_root(7);
    let mut group = c.benchmark_group("trace_fleet/span_primitives");
    group.throughput(Throughput::Elements(1));
    group.bench_with_input(BenchmarkId::from_parameter("span"), &on, |b, t| {
        b.iter(|| std::hint::black_box(t.span("bench.trace.span")))
    });
    group.bench_with_input(BenchmarkId::from_parameter("span_at"), &on, |b, t| {
        b.iter(|| std::hint::black_box(t.span_at("bench.trace.span_at", root.child(1))))
    });
    // Same name reopened every iteration: after the first open this is
    // a pure thread-cache hit, the `format!("{name}_ns")` registry path
    // must not run again.
    group.bench_with_input(BenchmarkId::from_parameter("span_reopen"), &on, |b, t| {
        b.iter(|| std::hint::black_box(t.span_at("bench.trace.reopen", root)))
    });
    group.finish();

    // --- Traced fleet engine vs fully disabled telemetry. ---
    let cfg = fleet_config();
    let frames = run_with(&cfg, &EngineOptions::default(), &Telemetry::disabled())
        .stats
        .frames_sent;
    let mut group = c.benchmark_group("trace_fleet/fleet_engine");
    group.throughput(Throughput::Elements(frames));
    group.bench_with_input(BenchmarkId::from_parameter("untraced"), &cfg, |b, cfg| {
        let t = Telemetry::disabled();
        b.iter(|| std::hint::black_box(run_with(cfg, &EngineOptions::default(), &t)))
    });
    group.bench_with_input(BenchmarkId::from_parameter("traced"), &cfg, |b, cfg| {
        // Enabled telemetry now threads a TraceContext through every
        // shard worker and wheel batch.
        let t = Telemetry::enabled();
        b.iter(|| std::hint::black_box(run_with(cfg, &EngineOptions::default(), &t)))
    });
    group.finish();

    // --- E-O2 verdict. ---
    let median = |name: &str| {
        c.records()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    };
    let mut body = String::new();
    if let (Some(off_ns), Some(on_ns)) = (
        median("trace_fleet/fleet_engine/untraced"),
        median("trace_fleet/fleet_engine/traced"),
    ) {
        let ratio = on_ns / off_ns;
        body.push_str(&format!(
            "fleet engine ({frames} frames): untraced {:.1} us, traced {:.1} us, \
             ratio {ratio:.3}x (bound {MAX_RATIO:.2}x)\n",
            off_ns / 1_000.0,
            on_ns / 1_000.0,
        ));
        assert!(
            ratio < MAX_RATIO,
            "E-O2 bound violated: traced/untraced fleet ratio {ratio:.3} >= {MAX_RATIO}"
        );
    }
    print_experiment_once(
        &PRINTED,
        "E-O2 / Observability — causal tracing at fleet scale",
        &body,
    );
}

genio_testkit::bench_main!(bench);
