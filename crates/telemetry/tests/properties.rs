//! Property-based tests over the telemetry spine: the accounting and
//! ordering invariants the exporters and the E-O1 overhead proof rely
//! on, and the flight recorder's canonical export.

use std::sync::{Arc, Barrier};
use std::thread;

use genio_testkit::json;
use genio_testkit::prelude::*;

use genio_telemetry::flight::{chrome_trace, validate_tree};
use genio_telemetry::{HistogramCore, ManualClock, Telemetry, TraceContext, TraceEvent, TraceRing};

property! {
    /// Ring accounting under contention: however many writers race and
    /// however small the capacity, every recorded event is either
    /// delivered (drained or still buffered) or counted as dropped —
    /// nothing is lost silently and nothing is double-counted. Drops come
    /// only from overflow, so exactly the excess over capacity is lost.
    fn ring_accounting_under_contention(capacity in 1usize..64,
                                        per_writer in 1usize..200,
                                        writers in 1usize..5) {
        let ring = Arc::new(TraceRing::new(capacity));
        thread::scope(|scope| {
            for w in 0..writers {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..per_writer {
                        ring.push(TraceEvent::untraced(
                            "prop.event",
                            (w * per_writer + i) as u64,
                            1,
                        ));
                    }
                });
            }
        });
        let delivered = ring.drain().len() as u64;
        let stats = ring.stats();
        prop_assert_eq!(stats.recorded, (writers * per_writer) as u64);
        prop_assert_eq!(stats.buffered, 0);
        prop_assert_eq!(stats.drained, delivered);
        prop_assert_eq!(stats.recorded, stats.dropped + delivered);
        prop_assert_eq!(stats.dropped, stats.recorded.saturating_sub(capacity as u64));
    }
}

/// Writers released together on a barrier, each pushing enough to
/// overlap the others, into a ring with room for every event: contention
/// must cost waiting, never a span.
#[test]
fn ring_is_lossless_under_contention_below_capacity() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 5_000;
    let ring = TraceRing::new(WRITERS * PER_WRITER);
    let start = Barrier::new(WRITERS);
    thread::scope(|scope| {
        for w in 0..WRITERS {
            let (ring, start) = (&ring, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..PER_WRITER {
                    ring.push(TraceEvent::untraced("prop.race", (w * PER_WRITER + i) as u64, 1));
                }
            });
        }
    });
    let stats = ring.stats();
    assert_eq!(stats.recorded, (WRITERS * PER_WRITER) as u64);
    assert_eq!(stats.dropped, 0, "a ring with room for every push lost spans to contention");
    assert_eq!(ring.drain().len(), WRITERS * PER_WRITER);
}

property! {
    /// Drop-oldest never exceeds capacity: after any single-threaded
    /// burst the buffer holds at most `capacity` events, and they are
    /// the most recent ones.
    fn ring_drops_oldest(capacity in 1usize..32, burst in 0usize..128) {
        let ring = TraceRing::new(capacity);
        for i in 0..burst {
            ring.push(TraceEvent::untraced("prop.burst", i as u64, 0));
        }
        let events = ring.drain();
        prop_assert!(events.len() <= capacity);
        prop_assert_eq!(events.len(), burst.min(capacity));
        if let Some(last) = events.last() {
            // The newest event always survives a drop-oldest policy.
            prop_assert_eq!(last.start_ns, (burst - 1) as u64);
        }
    }
}

property! {
    /// Histogram quantiles are monotone in the quantile and bracketed by
    /// the observed extremes' bucket bounds, for any observation set.
    fn histogram_quantile_monotonicity(values in vec(0u64..1_000_000, 1..64)) {
        let h = HistogramCore::default();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let qs = [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0];
        let mut prev = 0u64;
        for q in qs {
            let est = h.quantile(q);
            prop_assert!(est >= prev, "quantile must be monotone in q");
            prev = est;
        }
        // Every estimate is at least the true minimum and the last one
        // at least the upper bound of the bucket holding the maximum.
        let min = *values.iter().min().unwrap();
        prop_assert!(h.quantile(0.01) >= min);
        prop_assert!(prev >= h.max());
    }
}

property! {
    /// Exporter round-trip: the `genio-telemetry/v1` JSON document
    /// re-parsed through the testkit parser reproduces every counter,
    /// histogram count and ring statistic in the snapshot.
    fn exporter_json_roundtrip(counts in vec(1u64..10_000, 1..6),
                               durations in vec(1u64..1_000_000, 1..16)) {
        let clock = ManualClock::new();
        let telemetry = Telemetry::with_manual_clock(&clock);
        for (i, &c) in counts.iter().enumerate() {
            telemetry.counter(&format!("prop.counter_{i}")).incr(c);
        }
        telemetry.gauge("prop.gauge").set(-42);
        let h = telemetry.histogram("prop.latency_ns");
        for &d in &durations {
            h.observe(d);
        }
        for &d in durations.iter().take(4) {
            let _span = telemetry.span("prop.span");
            clock.advance(d);
        }

        let snapshot = telemetry.snapshot();
        let doc = json::parse(&snapshot.to_json().to_string()).expect("valid JSON");
        prop_assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("genio-telemetry/v1")
        );
        let counters = doc.get("counters").expect("counters object");
        for (name, value) in &snapshot.counters {
            prop_assert_eq!(
                counters.get(name).and_then(|v| v.as_f64()),
                Some(*value as f64),
                "counter {} must survive the round-trip", name
            );
        }
        prop_assert_eq!(
            doc.get("gauges").and_then(|g| g.get("prop.gauge")).and_then(|v| v.as_f64()),
            Some(-42.0)
        );
        let histograms = doc.get("histograms").and_then(|v| v.as_arr()).expect("histogram array");
        prop_assert_eq!(histograms.len(), snapshot.histograms.len());
        for hs in &snapshot.histograms {
            let row = histograms
                .iter()
                .find(|row| row.get("name").and_then(|v| v.as_str()) == Some(&hs.name))
                .expect("histogram row");
            prop_assert_eq!(row.get("count").and_then(|v| v.as_f64()), Some(hs.count as f64));
            prop_assert_eq!(row.get("sum").and_then(|v| v.as_f64()), Some(hs.sum as f64));
        }
        let ring = doc.get("ring").expect("ring object");
        prop_assert_eq!(
            ring.get("recorded").and_then(|v| v.as_f64()),
            Some(snapshot.ring.recorded as f64)
        );
        // The Prometheus view carries the same series names.
        let prom = snapshot.to_prometheus();
        prop_assert!(prom.contains("prop_gauge"));
        prop_assert!(prom.contains("prop_latency_ns_count"));
    }
}

property! {
    /// Flight-recorder canonical form: however the recorded events are
    /// permuted (different thread/drain interleavings), the exported
    /// document is byte-identical, parses as JSON, and the derived span
    /// forest validates with every parent present.
    fn trace_export_is_canonical_and_forest_valid(
        spans_per_shard in vec(1usize..8, 1..5),
        seed in 0u64..1_000
    ) {
        let clock = ManualClock::new();
        let telemetry = Telemetry::with_manual_clock(&clock);
        let root = TraceContext::root(seed);
        {
            let _run = telemetry.span_at("prop.run", root);
            for (shard, &n) in spans_per_shard.iter().enumerate() {
                let shard_ctx = root.child(shard as u64).with_shard(shard as u32);
                let _shard = telemetry.span_at("prop.shard", shard_ctx);
                for batch in 0..n {
                    clock.advance(5);
                    let _batch = telemetry.span_at("prop.batch", shard_ctx.child(batch as u64));
                }
            }
        }
        let events = telemetry.drain_trace();
        let expected = 1 + spans_per_shard.len() + spans_per_shard.iter().sum::<usize>();
        prop_assert_eq!(events.len(), expected, "nothing may drop at this volume");

        let stats = validate_tree(&events).expect("span forest must validate");
        prop_assert_eq!(stats.traced, expected);
        prop_assert_eq!(stats.roots, 1);
        prop_assert_eq!(stats.max_depth, 3);

        // Any permutation exports the same bytes.
        let doc = chrome_trace(&events);
        let mut reversed = events.clone();
        reversed.reverse();
        prop_assert_eq!(&chrome_trace(&reversed), &doc);
        let mut rotated = events.clone();
        rotated.rotate_left(events.len() / 2);
        prop_assert_eq!(&chrome_trace(&rotated), &doc);
        prop_assert!(json::parse(&doc).is_ok(), "export must be valid JSON");
    }
}
