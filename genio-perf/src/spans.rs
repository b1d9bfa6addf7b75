//! Benchmark-owned spans around every call into a layer, and the
//! per-layer self-time they yield.
//!
//! The harness times each layer from outside: a unit span (one cycle,
//! session or fleet run) encloses one child span per call into `pon`,
//! `netsec`, `runtime` or `telemetry`. Spans live in a plain `Vec` (not
//! the telemetry ring, which drops under pressure) and are rendered as
//! `genio-trace/v1` only when asked.

use genio_telemetry::{chrome_trace, Clock, TraceContext, TraceEvent};

/// Every layer the harness times, named after the crate and the call.
pub const LAYERS: [&str; 17] = [
    "pon.dba",
    "pon.gem.seal",
    "pon.gem.open",
    "netsec.macsec.protect",
    "netsec.macsec.validate",
    "runtime.detect",
    "runtime.correlate",
    "netsec.handshake.client_start",
    "netsec.handshake.server_respond",
    "netsec.handshake.client_finish",
    "netsec.handshake.server_finish",
    "pon.activation",
    "pon.gem.establish_key",
    "pon.engine.run_shards",
    "pon.engine.merge_shards",
    "pon.engine.digest",
    "telemetry.export",
];

/// The row for traced wall time that no layer span covers: harness glue.
pub const UNATTRIBUTED: &str = "bench.unattributed";

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unit kind (for roots) or layer name (for children).
    pub name: &'static str,
    /// Index of the enclosing span; `None` for a unit.
    pub parent: Option<usize>,
    /// Start, clock nanoseconds.
    pub start_ns: u64,
    /// End, clock nanoseconds.
    pub end_ns: u64,
}

/// An open unit of work.
#[derive(Debug)]
pub struct Unit {
    start_ns: u64,
    index: Option<usize>,
}

/// Times units always, and layer calls only when tracing.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    traced: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder on the monotonic clock; `traced` turns layer spans on.
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            clock: Clock::monotonic(),
            traced,
            spans: Vec::new(),
        }
    }

    /// Current clock reading, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Opens a unit span.
    pub fn begin(&mut self, name: &'static str) -> Unit {
        let start_ns = self.clock.now_ns();
        let index = if self.traced {
            self.spans.push(Span {
                name,
                parent: None,
                start_ns,
                end_ns: start_ns,
            });
            Some(self.spans.len() - 1)
        } else {
            None
        };
        Unit { start_ns, index }
    }

    /// Closes a unit and returns its duration. `keep == false` discards
    /// the unit's spans (warm-up units are traced but not reported).
    pub fn end(&mut self, unit: Unit, keep: bool) -> u64 {
        let end_ns = self.clock.now_ns();
        if let Some(index) = unit.index {
            if keep {
                if let Some(span) = self.spans.get_mut(index) {
                    span.end_ns = end_ns;
                }
            } else {
                self.spans.truncate(index);
            }
        }
        end_ns.saturating_sub(unit.start_ns)
    }

    /// Runs one call into `layer` inside `unit`, timing it when traced.
    pub fn call<T>(&mut self, unit: &Unit, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(parent) = unit.index else {
            return f();
        };
        let start_ns = self.clock.now_ns();
        let out = f();
        let end_ns = self.clock.now_ns();
        self.spans.push(Span {
            name: layer,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self-time of every span: its duration minus the union of its
/// children's intervals (clipped to the span), so overlapping children
/// are never subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(kids) = span.parent.and_then(|p| children.get_mut(p)) {
            kids.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            duration.saturating_sub(covered(kids, span.start_ns, span.end_ns))
        })
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Where the traced wall time went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Sum of unit durations.
    pub wall_ns: u64,
    /// Wall time outside every layer span.
    pub unattributed_ns: u64,
    /// `(self_ns, calls)` per entry of [`LAYERS`].
    pub layers: [(u64, u64); LAYERS.len()],
}

/// Folds spans into per-layer self-time. Layer self-times plus
/// `unattributed_ns` add up to `wall_ns` exactly.
pub fn profile(spans: &[Span]) -> Profile {
    let mut out = Profile {
        wall_ns: 0,
        unattributed_ns: 0,
        layers: [(0, 0); LAYERS.len()],
    };
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let slot = LAYERS.iter().position(|l| *l == span.name);
        match (span.parent, slot.and_then(|i| out.layers.get_mut(i))) {
            (None, _) => {
                out.wall_ns += span.end_ns.saturating_sub(span.start_ns);
                out.unattributed_ns += self_ns;
            }
            (Some(_), Some(layer)) => {
                layer.0 += self_ns;
                layer.1 += 1;
            }
            (Some(_), None) => out.unattributed_ns += self_ns,
        }
    }
    out
}

/// Span IDs in the shape the flight recorder expects: each unit is the
/// root of its own trace, each layer call a child of its unit.
pub fn trace_events(spans: &[Span], seed: u64) -> Vec<TraceEvent> {
    let mut contexts: Vec<TraceContext> = Vec::with_capacity(spans.len());
    let mut events = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let slot = i as u64;
        let ctx = match span.parent.and_then(|p| contexts.get(p)) {
            Some(parent) => parent.child(slot),
            None => TraceContext::root(seed ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        };
        contexts.push(ctx);
        events.push(TraceEvent {
            name: span.name,
            start_ns: span.start_ns,
            dur_ns: span.end_ns.saturating_sub(span.start_ns),
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            shard: 0,
        });
    }
    events
}

/// The recorded spans as a `genio-trace/v1` document.
pub fn chrome_document(spans: &[Span], seed: u64) -> String {
    chrome_trace(&trace_events(spans, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = [
            span("bench.cycle", None, 0, 100),
            span("pon.gem.seal", Some(0), 10, 40),
            span("pon.gem.open", Some(0), 30, 60),
            span("pon.gem.open", Some(0), 55, 70),
            span("pon.dba", Some(0), 90, 130),
        ];
        let own = self_times(&spans);
        // Children cover [10, 70) and [90, 100) within the unit.
        assert_eq!(own[0], 100 - 60 - 10);
        assert_eq!(&own[1..], &[30, 30, 15, 40]);
    }

    #[test]
    fn nested_and_disjoint_children() {
        let spans = [
            span("bench.cycle", None, 0, 50),
            span("pon.gem.seal", Some(0), 5, 45),
            span("pon.gem.seal", Some(0), 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![10, 40, 10]);
    }

    #[test]
    fn profile_adds_up_to_wall_time() {
        let spans = [
            span("bench.cycle", None, 0, 100),
            span("pon.dba", Some(0), 0, 20),
            span("pon.gem.seal", Some(0), 20, 70),
            span("bench.cycle", None, 100, 150),
            span("pon.dba", Some(3), 110, 120),
        ];
        let p = profile(&spans);
        assert_eq!(p.wall_ns, 150);
        assert_eq!(p.layers[0], (30, 2));
        assert_eq!(p.layers[1], (50, 1));
        let layered: u64 = p.layers.iter().map(|l| l.0).sum();
        assert_eq!(layered + p.unattributed_ns, p.wall_ns);
    }

    #[test]
    fn warm_up_units_are_discarded() {
        let mut rec = Recorder::new(true);
        let unit = rec.begin("bench.cycle");
        rec.call(&unit, "pon.dba", || ());
        rec.end(unit, false);
        assert!(rec.spans().is_empty());
        let unit = rec.begin("bench.cycle");
        rec.call(&unit, "pon.dba", || ());
        rec.end(unit, true);
        assert_eq!(rec.spans().len(), 2);
    }

    #[test]
    fn untraced_recorder_keeps_no_spans_but_times_units() {
        let mut rec = Recorder::new(false);
        let unit = rec.begin("bench.cycle");
        let v = rec.call(&unit, "pon.dba", || 7);
        rec.end(unit, true);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn exported_trace_is_a_valid_forest() {
        let spans = [
            span("bench.cycle", None, 0, 100),
            span("pon.dba", Some(0), 0, 20),
            span("bench.cycle", None, 100, 150),
            span("pon.dba", Some(2), 110, 120),
        ];
        let events = trace_events(&spans, 7);
        let stats = genio_telemetry::validate_tree(&events).expect("forest");
        assert_eq!(stats.roots, 2);
        assert_eq!(stats.max_depth, 2);
        assert!(chrome_document(&spans, 7).contains("genio-trace/v1"));
    }
}
