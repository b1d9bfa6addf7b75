//! Metrics primitives: atomic counters, gauges, and log-bucketed
//! histograms with quantile extraction.
//!
//! Handles are cheap clones around `Option<Arc<...>>`. A handle obtained
//! from a disabled [`crate::Telemetry`] carries `None` and every
//! operation on it is a branch on a `None` — no allocation, no lock, no
//! atomic traffic. Enabled handles are resolved once by name against the
//! registry (one `BTreeMap` lookup under a mutex) and from then on each
//! update is a handful of relaxed atomic operations on the metric's one
//! shared cell, which is what keeps the E-O1 overhead bound honest.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// Number of power-of-two histogram buckets. Bucket `i` holds values
/// whose highest set bit is `i`, i.e. the range `[2^i, 2^(i+1))`, with
/// 0 landing in bucket 0. 64 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    pub(crate) fn enabled(cell: Arc<AtomicU64>) -> Counter {
        Counter { cell: Some(cell) }
    }

    /// A no-op counter (what a disabled `Telemetry` hands out).
    pub fn disabled() -> Counter {
        Counter::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn incr(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A value that can move both ways (queue depths, open sessions).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    pub(crate) fn enabled(cell: Arc<AtomicI64>) -> Gauge {
        Gauge { cell: Some(cell) }
    }

    /// A no-op gauge.
    pub fn disabled() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared histogram state: total count/sum/max plus one atomic slot per
/// power-of-two bucket. Lock-free on the record path.
#[derive(Debug)]
pub struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Index of the power-of-two bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    // `v | 1` maps 0 into bucket 0 without a branch.
    (63 - (v | 1).leading_zeros()) as usize
}

/// Quantile estimate over a bucket array for `q` in `[0, 1]`: walks the
/// cumulative counts and returns the **upper bound** of the bucket
/// containing the q-th observation (`2^(i+1) - 1`, saturating at
/// `u64::MAX`). Upper bounds grow with the bucket index, so the estimate
/// is monotone in `q` by construction — the property the testkit harness
/// pins. `max` is the fallback when the walk exhausts (can only happen
/// if `total` overstates the bucket sum). Shared by single cores and
/// merged snapshots so both paths agree bit-for-bit.
pub fn quantile_from_buckets(
    buckets: &[u64; HISTOGRAM_BUCKETS],
    total: u64,
    max: u64,
    q: f64,
) -> u64 {
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    // Rank of the target observation, 1-based.
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (i, bucket) in buckets.iter().enumerate() {
        cumulative += bucket;
        if cumulative >= rank {
            return if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
        }
    }
    max
}

impl HistogramCore {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Bucketed quantile estimate (see [`quantile_from_buckets`]).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.bucket_counts(), self.count(), self.max(), q)
    }

    /// Per-bucket counts (index = power-of-two exponent).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// A named distribution, usually of durations in nanoseconds. Cloning is
/// cheap; disabled histograms are no-ops.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    core: Option<(Arc<HistogramCore>, Clock)>,
}

impl Histogram {
    pub(crate) fn enabled(core: Arc<HistogramCore>, clock: Clock) -> Histogram {
        Histogram { core: Some((core, clock)) }
    }

    /// A no-op histogram.
    pub fn disabled() -> Histogram {
        Histogram::default()
    }

    /// Records one observation (e.g. a duration in ns).
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some((core, _)) = &self.core {
            core.record(v);
        }
    }

    /// Starts a timer; the elapsed nanoseconds are recorded when the
    /// returned guard drops. On a disabled histogram the guard is inert.
    #[inline]
    pub fn start(&self) -> Timer {
        Timer {
            inner: self.core.as_ref().map(|(core, clock)| {
                let start_ns = clock.now_ns();
                (Arc::clone(core), clock.clone(), start_ns)
            }),
        }
    }

    /// Number of observations (0 when disabled).
    pub fn count(&self) -> u64 {
        self.core.as_ref().map_or(0, |(c, _)| c.count())
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        self.core.as_ref().map_or(0.0, |(c, _)| c.mean())
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.core.as_ref().map_or(0, |(c, _)| c.max())
    }

    /// Bucketed quantile estimate (see [`quantile_from_buckets`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.core.as_ref().map_or(0, |(c, _)| c.quantile(q))
    }
}

/// RAII duration recorder returned by [`Histogram::start`].
#[derive(Debug)]
pub struct Timer {
    inner: Option<(Arc<HistogramCore>, Clock, u64)>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((core, clock, start_ns)) = self.inner.take() {
            core.record(clock.now_ns().saturating_sub(start_ns));
        }
    }
}

/// Name → metric store behind an enabled `Telemetry`. The mutex is taken
/// only when a handle is created or a snapshot is read, never on the
/// per-event update path. Span-duration histograms live in their own
/// map keyed by the `&'static str` span name, so `Telemetry::span` never
/// allocates a `String` to find its cell.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    spans: Mutex<BTreeMap<&'static str, Arc<HistogramCore>>>,
}

/// Recover the guard from a poisoned mutex: metrics are monotone atomics,
/// so observing a store mid-update from a panicked thread is harmless.
fn relock<'a, T>(
    r: Result<std::sync::MutexGuard<'a, T>, std::sync::PoisonError<std::sync::MutexGuard<'a, T>>>,
) -> std::sync::MutexGuard<'a, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

/// The cell named `name`, created zeroed on first use. A hit borrows
/// `name` and allocates nothing.
fn resolve<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = relock(map.lock());
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    let cell = Arc::<T>::default();
    map.insert(name.to_string(), Arc::clone(&cell));
    cell
}

impl Registry {
    pub(crate) fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        resolve(&self.counters, name)
    }

    pub(crate) fn gauge_cell(&self, name: &str) -> Arc<AtomicI64> {
        resolve(&self.gauges, name)
    }

    pub(crate) fn histogram_cell(&self, name: &str) -> Arc<HistogramCore> {
        resolve(&self.histograms, name)
    }

    /// Span-duration cell for the span `name`, keyed by the static name
    /// itself — no allocation on the open path. The snapshot renders it
    /// under `<name>_ns` alongside plain histograms.
    pub(crate) fn span_cell(&self, name: &'static str) -> Arc<HistogramCore> {
        Arc::clone(relock(self.spans.lock()).entry(name).or_default())
    }

    /// Sorted (name, value) view of all counters.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        relock(self.counters.lock())
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sorted (name, value) view of all gauges.
    pub fn gauge_values(&self) -> Vec<(String, i64)> {
        relock(self.gauges.lock())
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sorted (name, cell) view of all plain histograms.
    pub fn histogram_cells(&self) -> Vec<(String, Arc<HistogramCore>)> {
        relock(self.histograms.lock())
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Sorted (span name, cell) view of all span-duration histograms.
    pub fn span_cells(&self) -> Vec<(&'static str, Arc<HistogramCore>)> {
        relock(self.spans.lock())
            .iter()
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::default();
        let c = Counter::enabled(reg.counter_cell("x"));
        c.incr(3);
        c.incr(4);
        assert_eq!(c.get(), 7);
        // Same name resolves to the same cell.
        let c2 = Counter::enabled(reg.counter_cell("x"));
        assert_eq!(c2.get(), 7);

        let g = Gauge::enabled(reg.gauge_cell("depth"));
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::disabled();
        c.incr(5);
        assert_eq!(c.get(), 0);
        let h = Histogram::disabled();
        h.observe(100);
        drop(h.start());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_timer_uses_manual_clock() {
        let source = ManualClock::new();
        let reg = Registry::default();
        let h = Histogram::enabled(reg.histogram_cell("t"), Clock::manual(&source));
        {
            let _t = h.start();
            source.advance(1_000);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1_000);
        // 1000 lands in bucket 9 ([512, 1024)); upper bound 1023.
        assert_eq!(h.quantile(0.5), 1_023);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let core = HistogramCore::default();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1_000_000] {
            core.record(v);
        }
        // p50 of ten observations (nine 1s) is in bucket 0: upper bound 1.
        assert_eq!(core.quantile(0.5), 1);
        // p99 falls on the outlier's bucket (2^19..2^20): upper bound 2^20-1.
        assert_eq!(core.quantile(0.99), (1u64 << 20) - 1);
        // Degenerate quantiles stay in range.
        assert_eq!(core.quantile(0.0), 1);
        assert!(core.quantile(1.0) >= core.quantile(0.0));
    }

    #[test]
    fn concurrent_updates_to_one_cell_are_exact() {
        let reg = Registry::default();
        let counter = Counter::enabled(reg.counter_cell("shared"));
        let hist = reg.histogram_cell("lat");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (counter, hist) = (counter.clone(), Arc::clone(&hist));
                scope.spawn(move || {
                    for i in 0..100 {
                        counter.incr(1);
                        hist.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 400);
        assert_eq!(hist.count(), 400);
        assert_eq!(hist.bucket_counts().iter().sum::<u64>(), 400);
        assert_eq!(hist.max(), 3 * 1_000 + 99);
    }
}
