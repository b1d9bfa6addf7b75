//! genio-telemetry: the zero-dependency observability spine.
//!
//! The paper's Lesson 8 accepts runtime security monitoring only while
//! "per-event overhead stays bounded"; this crate is the executable form
//! of that bound. It provides:
//!
//! - a **metrics registry** of two instruments, counters that count and
//!   spans that time: atomic [`Counter`]s and one log-bucketed duration
//!   histogram per span name with p50/p95/p99 extraction, one shared
//!   cell per metric (see [`metrics`]);
//! - a **causal span API** — RAII guards ([`Span`], the [`span!`]
//!   macro) timed by a pluggable [`Clock`] (deterministic
//!   [`ManualClock`] in tests, monotonic in benches), recording into the
//!   span's `<name>_ns` histogram and carrying a
//!   [`TraceContext`] (trace/span/parent IDs derived deterministically
//!   from run seeds) so a fleet campaign yields a reconstructable
//!   cross-thread span tree;
//! - a **bounded trace ring** ([`TraceRing`]) behind one lock: a span
//!   is lost only when the ring is full (drops-oldest), and every drop
//!   is counted;
//! - a **flight recorder** ([`flight`]) — drained trace events exported
//!   as Chrome-trace/Perfetto JSON (`genio-trace/v1`), canonically
//!   sorted so same-seed runs export byte-identical trees, with a
//!   panic-hook dump and a span-tree validator;
//! - two **metric exporters** — `genio-telemetry/v1` JSON (testkit JSON
//!   values) and Prometheus exposition text, both rendered from one
//!   [`Snapshot`].
//!
//! Everything hangs off a cloneable [`Telemetry`] handle. The default is
//! [`Telemetry::disabled`]: handles it creates carry `None` and every
//! operation is a single branch, so instrumented code paths cost nothing
//! when observability is off — which is why every pre-existing test in
//! the workspace passes unchanged. Experiment E-O1 (bench
//! `telemetry_overhead`) pins the enabled/disabled throughput ratio of
//! the instrumented hot paths, causal tracing included, under 1.15×.

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod ring;
pub mod span;
pub mod trace;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use export::{HistogramSnapshot, Snapshot, QUANTILES};
pub use flight::{
    chrome_trace, install_panic_dump, validate_tree, TraceTreeError, TraceTreeStats, TRACE_SCHEMA,
};
pub use metrics::{Counter, HistogramCore, HISTOGRAM_BUCKETS};
pub use ring::{RingStats, TraceEvent, TraceRing};
pub use span::Span;
pub use trace::TraceContext;

use metrics::Registry;

/// Trace ring capacity of [`Telemetry::enabled`] and
/// [`Telemetry::with_manual_clock`] handles.
pub const DEFAULT_RING_CAPACITY: usize = 4_096;

/// The observability handle threaded through instrumented constructors.
/// Cloning is cheap (an `Option<Arc>`); the [`Default`] is disabled, so
/// code that never asks for telemetry pays one branch per instrumented
/// operation and nothing else.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    /// Process-unique handle identity — the span-cell cache key. A
    /// dedicated counter (not the `Arc` address) so a freed and
    /// reallocated `Inner` can never alias a stale cache entry.
    id: u64,
    clock: Clock,
    registry: Registry,
    ring: Arc<TraceRing>,
}

static NEXT_INNER_ID: AtomicU64 = AtomicU64::new(1);

/// Per-thread span-cell cache: (handle id, span-name address) →
/// histogram cell. Span names are `&'static str` literals, so the
/// address is a stable identity and re-opening a known span takes no
/// lock and allocates nothing. Bounded: the cache resets if it ever
/// grows past `SPAN_CACHE_MAX` entries (only reachable by creating many
/// enabled handles on one thread, e.g. in tests).
const SPAN_CACHE_MAX: usize = 256;

thread_local! {
    static SPAN_CELLS: RefCell<Vec<((u64, usize), Arc<HistogramCore>)>> =
        const { RefCell::new(Vec::new()) };
}

impl Telemetry {
    /// The zero-cost no-op handle (same as `Telemetry::default()`).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// An enabled handle on the OS monotonic clock — what benches and
    /// examples use.
    pub fn enabled() -> Telemetry {
        Telemetry::with_clock(Clock::monotonic(), DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle on a deterministic manual clock — what tests
    /// use. Keep the `ManualClock` to advance time.
    pub fn with_manual_clock(source: &ManualClock) -> Telemetry {
        Telemetry::with_clock(Clock::manual(source), DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle with an explicit clock and trace ring capacity.
    pub fn with_clock(clock: Clock, ring_capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                id: NEXT_INNER_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                registry: Registry::default(),
                ring: Arc::new(TraceRing::new(ring_capacity)),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (creating on first use) the counter `name`. Resolve once
    /// at construction time and keep the handle: the lookup takes the
    /// registry lock, the returned handle's `incr` does not.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => Counter::enabled(inner.registry.counter_cell(name)),
            None => Counter::disabled(),
        }
    }

    /// Opens an untraced timing span (no causal identity). On drop it
    /// records into the histogram `<name>_ns` and offers a
    /// [`TraceEvent`] to the ring. Spans belong at call, burst or phase
    /// granularity; inside a per-item loop count with a pre-resolved
    /// [`Counter`] and time the loop with one span around it.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_at(name, TraceContext::default())
    }

    /// Opens a timing span carrying the causal context `ctx` — its
    /// trace/span/parent IDs ride on the recorded [`TraceEvent`], which
    /// is what the flight recorder reassembles into a span tree.
    /// Re-opening a known span name is lock-free and allocation-free
    /// (per-thread span-cell cache).
    pub fn span_at(&self, name: &'static str, ctx: TraceContext) -> Span {
        match &self.inner {
            Some(inner) => {
                let histogram = span_cell_for(inner, name);
                Span::enabled(name, ctx, inner.clock.clone(), histogram, Arc::clone(&inner.ring))
            }
            None => Span::disabled(),
        }
    }

    /// The trace ring, if enabled.
    pub fn ring(&self) -> Option<&TraceRing> {
        self.inner.as_ref().map(|i| i.ring.as_ref())
    }

    /// Drains the trace ring, if enabled (flight-recorder input).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.ring().map(TraceRing::drain).unwrap_or_default()
    }

    /// Freezes the current state for export. Disabled handles yield an
    /// empty snapshot. Span-duration cells appear as `<name>_ns`
    /// histograms.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let mut histograms: Vec<HistogramSnapshot> = inner
            .registry
            .span_cells()
            .iter()
            .map(|(name, cell)| HistogramSnapshot::of(format!("{name}_ns"), cell))
            .collect();
        // The registry keeps span-name order, but exports list rendered
        // names in order, and the two differ: `a.b_ns` < `a_ns`.
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot {
            counters: inner.registry.counter_values(),
            histograms,
            ring: inner.ring.stats(),
        }
    }
}

/// Cached span-cell lookup: hit is a thread-local vector scan keyed by
/// (handle id, name address); miss takes the registry lock once per
/// (thread, handle, name).
fn span_cell_for(inner: &Inner, name: &'static str) -> Arc<HistogramCore> {
    let key = (inner.id, name.as_ptr() as usize);
    let hit = SPAN_CELLS.with(|cache| {
        cache
            .borrow()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, cell)| Arc::clone(cell))
    });
    match hit {
        Some(cell) => cell,
        None => {
            let cell = inner.registry.span_cell(name);
            SPAN_CELLS.with(|cache| {
                let mut cache = cache.borrow_mut();
                if cache.len() >= SPAN_CACHE_MAX {
                    cache.clear();
                }
                cache.push((key, Arc::clone(&cell)));
            });
            cell
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_default_and_inert() {
        let t = Telemetry::default();
        assert!(!t.is_enabled());
        t.counter("x").incr(1);
        drop(t.span("nothing"));
        let snap = t.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(t.ring().is_none());
    }

    #[test]
    fn span_records_histogram_and_ring_event() {
        let source = ManualClock::new();
        let t = Telemetry::with_manual_clock(&source);
        {
            let _span = span!(t, "pon.tick");
            source.advance(500);
        }
        let snap = t.snapshot();
        let hist = snap.histogram("pon.tick_ns").map(|h| (h.count, h.max));
        assert_eq!(hist, Some((1, 500)));
        let events = t.ring().map(|r| r.drain()).unwrap_or_default();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "pon.tick");
        assert_eq!(events[0].dur_ns, 500);
        // Untraced span: zero causal identity.
        assert_eq!(events[0].span_id, 0);
    }

    #[test]
    fn span_at_carries_trace_context_onto_the_event() {
        let source = ManualClock::new();
        let t = Telemetry::with_manual_clock(&source);
        let root = TraceContext::root(42).with_shard(3);
        {
            let span = span!(t, "fleet.run", root);
            assert_eq!(span.context(), Some(root));
            source.advance(100);
            let _child = t.span_at("fleet.shard", root.child(0));
        }
        let mut events = t.drain_trace();
        events.sort_by_key(|e| e.name);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "fleet.run");
        assert_eq!(events[0].span_id, root.span_id);
        assert_eq!(events[0].parent_id, 0);
        assert_eq!(events[0].shard, 3);
        assert_eq!(events[1].name, "fleet.shard");
        assert_eq!(events[1].parent_id, root.span_id);
        assert_eq!(events[1].trace_id, root.trace_id);
    }

    #[test]
    fn span_reopen_hits_the_thread_cache_and_shares_the_cell() {
        let source = ManualClock::new();
        let t = Telemetry::with_manual_clock(&source);
        for _ in 0..10 {
            let _span = t.span("cache.probe");
            source.advance(10);
        }
        let snap = t.snapshot();
        assert_eq!(snap.histogram("cache.probe_ns").map(|h| h.count), Some(10));
        // A second handle must not alias the first handle's cells.
        let t2 = Telemetry::with_manual_clock(&source);
        drop(t2.span("cache.probe"));
        assert_eq!(t2.snapshot().histogram("cache.probe_ns").map(|h| h.count), Some(1));
        assert_eq!(t.snapshot().histogram("cache.probe_ns").map(|h| h.count), Some(10));
    }

    #[test]
    fn snapshot_lists_histograms_by_rendered_name() {
        let source = ManualClock::new();
        let t = Telemetry::with_manual_clock(&source);
        drop(t.span("a"));
        drop(t.span("a.b"));
        let names: Vec<String> = t.snapshot().histograms.into_iter().map(|h| h.name).collect();
        // Span-name order puts `a` first, but `.` sorts before `_`.
        assert_eq!(names, ["a.b_ns", "a_ns"]);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.counter("shared").incr(2);
        t2.counter("shared").incr(3);
        assert_eq!(t.snapshot().counter("shared"), Some(5));
    }

    #[test]
    fn ring_capacity_is_the_constructor_argument() {
        let source = ManualClock::new();
        let t = Telemetry::with_clock(Clock::manual(&source), 8);
        assert_eq!(t.ring().map(TraceRing::capacity), Some(8));
        let default = Telemetry::with_manual_clock(&source);
        assert_eq!(default.ring().map(TraceRing::capacity), Some(DEFAULT_RING_CAPACITY));
    }

    #[test]
    fn snapshot_round_trips_through_testkit_json() {
        let source = ManualClock::new();
        let t = Telemetry::with_manual_clock(&source);
        t.counter("a.b").incr(9);
        {
            let _span = t.span("h");
            source.advance(2_000);
        }
        let rendered = t.snapshot().to_json().to_string();
        let parsed = genio_testkit::json::parse(&rendered).unwrap_or(
            genio_testkit::json::Value::Null,
        );
        assert_eq!(parsed, t.snapshot().to_json());
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("a.b")).and_then(|v| v.as_f64()),
            Some(9.0)
        );
    }
}
