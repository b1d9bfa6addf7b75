//! Span guards: RAII timing scopes that feed both a per-name duration
//! histogram and the trace ring.
//!
//! A span is opened with [`crate::Telemetry::span`] /
//! [`crate::Telemetry::span_at`] (or the [`crate::span!`] macro) and
//! records on drop: the elapsed nanoseconds go into the histogram
//! `<name>_ns` and a [`TraceEvent`] — carrying the span's
//! [`TraceContext`] — is offered to the ring. The histogram cell is
//! resolved from a per-thread cache when the span opens, so dropping
//! costs two atomic clock reads, a histogram record, and one ring lock.

use std::sync::Arc;

use crate::clock::Clock;
use crate::metrics::HistogramCore;
use crate::ring::{TraceEvent, TraceRing};
use crate::trace::TraceContext;

/// Active timing scope; records on drop. Inert when obtained from a
/// disabled `Telemetry`.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: &'static str,
    ctx: TraceContext,
    start_ns: u64,
    clock: Clock,
    histogram: Arc<HistogramCore>,
    ring: Arc<TraceRing>,
}

impl Span {
    pub(crate) fn enabled(
        name: &'static str,
        ctx: TraceContext,
        clock: Clock,
        histogram: Arc<HistogramCore>,
        ring: Arc<TraceRing>,
    ) -> Span {
        let start_ns = clock.now_ns();
        Span { inner: Some(SpanInner { name, ctx, start_ns, clock, histogram, ring }) }
    }

    /// An inert span (what a disabled `Telemetry` hands out).
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Span label, if enabled.
    pub fn name(&self) -> Option<&'static str> {
        self.inner.as_ref().map(|s| s.name)
    }

    /// This span's causal context, if enabled — derive child contexts
    /// from it with [`TraceContext::child`].
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|s| s.ctx)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_ns = inner.clock.now_ns().saturating_sub(inner.start_ns);
            inner.histogram.record(dur_ns);
            inner.ring.push(TraceEvent {
                name: inner.name,
                start_ns: inner.start_ns,
                dur_ns,
                trace_id: inner.ctx.trace_id,
                span_id: inner.ctx.span_id,
                parent_id: inner.ctx.parent_id,
                shard: inner.ctx.shard,
            });
        }
    }
}

/// Opens a span on a telemetry handle: `span!(telemetry, "pon.tick")`,
/// or with a causal context: `span!(telemetry, "pon.tick", ctx)`.
/// Bind the result (`let _span = ...`) so the guard lives to the end of
/// the scope being measured.
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:literal) => {
        $telemetry.span($name)
    };
    ($telemetry:expr, $name:literal, $ctx:expr) => {
        $telemetry.span_at($name, $ctx)
    };
}
