//! E-O1 — **observability overhead**: the telemetry spine must stay
//! within a bounded overhead envelope on the hot paths it instruments.
//!
//! Expected shape: disabled-mode primitives cost a branch (sub-ns to a
//! few ns), enabled-mode primitives stay in the tens of ns, and the three
//! end-to-end workloads (sharded PON fleet engine with causal tracing,
//! batched AES-GCM data plane, runtime detection pipeline) run within
//! `MAX_RATIO` of their uninstrumented baselines.
//! The ratio is asserted here so a regression fails `cargo bench`. Each
//! workload's two sides are sampled in lockstep pairs, alternating which
//! goes first, and the bound applies to the median of the per-pair
//! ratios, so a co-tenant slowing one stretch of the run moves both
//! halves of a pair rather than one side's median.

use std::sync::Once;

use genio_bench::{gcm_round_trip, print_experiment_once};
use genio_crypto::gcm::{AesGcm, Input};
use genio_pon::engine::{run_with, trace_root, EngineOptions, FleetSimConfig};
use genio_runtime::events::mixed_trace;
use genio_runtime::falco::{Engine, RuleSetTier};
use genio_telemetry::Telemetry;
use genio_testkit::bench::{BenchmarkId, Criterion, Throughput};

static PRINTED: Once = Once::new();

/// Acceptance bound: enabled/disabled throughput ratio per workload.
const MAX_RATIO: f64 = 1.15;

fn bench(c: &mut Criterion) {
    c.experiment_id("E-O1");

    // --- Primitive costs: one branch when disabled, atomics when on. ---
    let off = Telemetry::disabled();
    let on = Telemetry::enabled();
    let mut group = c.benchmark_group("telemetry/primitives");
    group.throughput(Throughput::Elements(1));
    for (label, t) in [("disabled", &off), ("enabled", &on)] {
        let counter = t.counter("bench.counter");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("counter_incr/{label}")),
            &counter,
            |b, ctr| b.iter(|| std::hint::black_box(ctr).incr(1)),
        );
        let histogram = t.histogram("bench.histogram");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("histogram_observe/{label}")),
            &histogram,
            |b, h| b.iter(|| std::hint::black_box(h).observe(1_234)),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("span_guard/{label}")),
            t,
            |b, t| b.iter(|| std::hint::black_box(t.span("bench.span"))),
        );
    }
    // Causal spans: a traced child, and one name reopened every
    // iteration (a span-cell cache hit, no registry lookup).
    let root = trace_root(7);
    group.bench_with_input(BenchmarkId::from_parameter("span_at"), &on, |b, t| {
        b.iter(|| std::hint::black_box(t.span_at("bench.trace.span_at", root.child(1))))
    });
    group.bench_with_input(BenchmarkId::from_parameter("span_reopen"), &on, |b, t| {
        b.iter(|| std::hint::black_box(t.span_at("bench.trace.reopen", root)))
    });
    group.finish();

    // --- Workload 1: sharded fleet engine (E-S2 hot loop): causal
    // spans through every shard worker and wheel batch, batch counters. ---
    let fleet_cfg = FleetSimConfig {
        trees: 48,
        onus_per_tree: 24,
        cycles: 4,
        ..FleetSimConfig::default()
    };
    let fleet_frames = run_with(
        &fleet_cfg,
        &EngineOptions::default(),
        &Telemetry::disabled(),
    )
    .stats
    .frames_sent;
    let mut ratios: Vec<(&str, u64, Vec<f64>)> = Vec::new();
    let mut group = c.benchmark_group("telemetry_overhead/fleet_engine");
    group.throughput(Throughput::Elements(fleet_frames));
    let (off, on) = (Telemetry::disabled(), Telemetry::enabled());
    let pairs = group.bench_paired(
        "disabled",
        || run_with(&fleet_cfg, &EngineOptions::default(), &off),
        "enabled",
        || run_with(&fleet_cfg, &EngineOptions::default(), &on),
    );
    ratios.push(("fleet_engine", fleet_frames, pairs));
    group.finish();

    // --- Workload 2: batched AES-GCM data plane. The seal_many/open_many
    // spans and frame/byte counters amortize across a whole burst, so the
    // instrumented batch must stay within the same bound. ---
    const GCM_BURST: usize = 32;
    let payload = vec![0xabu8; 1500];
    let gcm_inputs: Vec<Input> = (0..GCM_BURST as u64)
        .map(|i| {
            let mut nonce = [0u8; 12];
            nonce[..8].copy_from_slice(&i.to_be_bytes());
            Input {
                nonce,
                aad: b"hdr",
                text: &payload,
            }
        })
        .collect();
    let mut group = c.benchmark_group("telemetry_overhead/gcm_batch");
    group.throughput(Throughput::Elements(GCM_BURST as u64));
    let [gcm_off, gcm_on] = [Telemetry::disabled(), Telemetry::enabled()]
        .map(|telemetry| AesGcm::new(&[0x42u8; 16]).unwrap().instrument(&telemetry));
    let pairs = group.bench_paired(
        "disabled",
        || gcm_round_trip(&gcm_off, &gcm_inputs),
        "enabled",
        || gcm_round_trip(&gcm_on, &gcm_inputs),
    );
    ratios.push(("gcm_batch", GCM_BURST as u64, pairs));
    group.finish();

    // --- Workload 3: runtime detection pipeline over a mixed trace. ---
    let trace = mixed_trace("tenant-a", 1_000, 5);
    let mut group = c.benchmark_group("telemetry_overhead/runtime_pipeline");
    group.throughput(Throughput::Elements(trace.len() as u64));
    let engine_off = Engine::with_tier(RuleSetTier::Default).unwrap();
    let engine_on = Engine::with_tier(RuleSetTier::Default)
        .unwrap()
        .instrument(&Telemetry::enabled());
    let pairs = group.bench_paired(
        "disabled",
        || engine_off.process_all(&trace),
        "enabled",
        || engine_on.process_all(&trace),
    );
    ratios.push(("runtime_pipeline", trace.len() as u64, pairs));
    group.finish();

    // --- E-O1 verdict: per-event overhead and throughput ratio. ---
    let median = |name: &str| {
        c.records()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    };
    let mut body = String::new();
    body.push_str(&format!(
        "bounded-overhead proof (median of paired enabled/disabled ratios must stay \
         < {MAX_RATIO:.2}x):\n"
    ));
    body.push_str(&format!(
        "  {:<18} {:>10} {:>14} {:>14} {:>14} {:>7}\n",
        "workload", "events", "disabled", "enabled", "per-event", "ratio"
    ));
    let mut checked = 0usize;
    for (workload, events, mut pairs) in ratios {
        let (off_ns, on_ns) = match (
            median(&format!("telemetry_overhead/{workload}/disabled")),
            median(&format!("telemetry_overhead/{workload}/enabled")),
        ) {
            (Some(a), Some(b)) if !pairs.is_empty() => (a, b),
            // A `--filter` run can skip the pair; no verdict then.
            _ => continue,
        };
        pairs.sort_by(f64::total_cmp);
        let ratio = pairs[pairs.len() / 2];
        let per_event = (on_ns - off_ns) / events as f64;
        body.push_str(&format!(
            "  {:<18} {:>10} {:>11.1} us {:>11.1} us {:>11.1} ns {:>6.3}x\n",
            workload,
            events,
            off_ns / 1_000.0,
            on_ns / 1_000.0,
            per_event,
            ratio
        ));
        assert!(
            ratio < MAX_RATIO,
            "E-O1 bound violated: {workload} median paired enabled/disabled ratio \
             {ratio:.3} >= {MAX_RATIO}"
        );
        checked += 1;
    }
    body.push_str(&format!(
        "\n{checked}/3 workloads checked against the {MAX_RATIO:.2}x bound \
         (per-event = (enabled - disabled) / events)\n"
    ));
    print_experiment_once(
        &PRINTED,
        "E-O1 / Observability — telemetry spine bounded-overhead proof",
        &body,
    );
}

genio_testkit::bench_main!(bench);
