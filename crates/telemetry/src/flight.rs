//! Flight recorder: drained trace events rendered as a Chrome-trace /
//! Perfetto JSON document (`genio-trace/v1`), plus a span-tree validator
//! and a panic-hook dump.
//!
//! The exporter is **canonical**: events are sorted by
//! `(start_ns, trace_id, parent_id, span_id, name, dur_ns)` before
//! rendering, so the output bytes depend only on what was recorded,
//! never on which OS thread carried an event or when it reached the
//! ring. Under `ManualClock` two same-seed fleet runs therefore export
//! byte-identical documents — the verify.sh trace-determinism gate
//! `cmp`s exactly this.
//!
//! The document loads directly into `chrome://tracing` / Perfetto:
//! every span is a complete (`"ph":"X"`) event, the shard index becomes
//! the `tid` so per-shard tracks line up, and the causal IDs ride in
//! `args` as hex strings (JSON numbers are f64 and would corrupt 64-bit
//! IDs).

use std::sync::Mutex;

use crate::ring::TraceEvent;
use crate::Telemetry;

/// Schema marker embedded in every exported trace document.
pub const TRACE_SCHEMA: &str = "genio-trace/v1";

/// Sorts events into canonical export order. Deterministic span IDs
/// break ties between events sharing a `ManualClock` timestamp.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| {
        (a.start_ns, a.trace_id, a.parent_id, a.span_id, a.name, a.dur_ns)
            .cmp(&(b.start_ns, b.trace_id, b.parent_id, b.span_id, b.name, b.dur_ns))
    });
}

/// Escapes a string for embedding in a JSON literal. Span names are
/// code literals, so this almost never rewrites anything.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds rendered as a microsecond decimal (`ts`/`dur` are in µs
/// in the trace-event format). Integer math keeps it exact and
/// deterministic.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders events as a `genio-trace/v1` Chrome-trace JSON document.
/// Events are canonically sorted first; the input order never shows in
/// the output bytes.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut sorted = events.to_vec();
    sort_events(&mut sorted);
    let mut out = String::with_capacity(128 + sorted.len() * 160);
    out.push_str("{\"schema\":\"");
    out.push_str(TRACE_SCHEMA);
    out.push_str("\",\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        out.push_str(&escape(e.name));
        out.push_str("\",\"cat\":\"genio\",\"ph\":\"X\",\"ts\":");
        out.push_str(&micros(e.start_ns));
        out.push_str(",\"dur\":");
        out.push_str(&micros(e.dur_ns));
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&e.shard.to_string());
        out.push_str(&format!(
            ",\"args\":{{\"trace_id\":\"{:#018x}\",\"span_id\":\"{:#018x}\",\"parent_id\":\"{:#018x}\"}}}}",
            e.trace_id, e.span_id, e.parent_id
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Summary of a validated span tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceTreeStats {
    /// Total events examined.
    pub events: usize,
    /// Events carrying a causal identity (`span_id != 0`).
    pub traced: usize,
    /// Traced events with no parent (tree roots).
    pub roots: usize,
    /// Longest parent chain among traced events (roots have depth 1).
    pub max_depth: usize,
}

/// Why a span tree failed to reconstruct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceTreeError {
    /// An event names a parent span that no exported event carries.
    OrphanParent { span_id: u64, parent_id: u64 },
    /// Following parent links from this span never reaches a root.
    Cycle { span_id: u64 },
}

impl std::fmt::Display for TraceTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceTreeError::OrphanParent { span_id, parent_id } => write!(
                f,
                "span {span_id:#x} names parent {parent_id:#x}, which no exported event carries"
            ),
            TraceTreeError::Cycle { span_id } => {
                write!(f, "parent chain from span {span_id:#x} never reaches a root")
            }
        }
    }
}

/// Checks that the traced events form a forest: every nonzero
/// `parent_id` is some event's `span_id`, and no parent chain loops.
/// Untraced events (`span_id == 0`) are counted but not tree-checked.
pub fn validate_tree(events: &[TraceEvent]) -> Result<TraceTreeStats, TraceTreeError> {
    let mut stats = TraceTreeStats { events: events.len(), ..TraceTreeStats::default() };
    let mut parent_of: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for e in events {
        if e.span_id == 0 {
            continue;
        }
        stats.traced += 1;
        if e.parent_id == 0 {
            stats.roots += 1;
        }
        parent_of.entry(e.span_id).or_insert(e.parent_id);
    }
    for e in events {
        if e.span_id == 0 {
            continue;
        }
        // Walk to the root; more steps than distinct spans means a loop.
        let mut cursor = e.span_id;
        let mut depth = 1usize;
        let mut steps = 0usize;
        while let Some(&parent) = parent_of.get(&cursor) {
            if parent == 0 {
                break;
            }
            if !parent_of.contains_key(&parent) {
                return Err(TraceTreeError::OrphanParent { span_id: cursor, parent_id: parent });
            }
            cursor = parent;
            depth += 1;
            steps += 1;
            if steps > parent_of.len() {
                return Err(TraceTreeError::Cycle { span_id: e.span_id });
            }
        }
        stats.max_depth = stats.max_depth.max(depth);
    }
    Ok(stats)
}

/// Installs (once per process) a panic hook that drains the handle's
/// trace ring and writes the flight-recorder document to `path` before
/// the previous hook runs — so a panicking fleet campaign leaves its
/// span tree behind as evidence. Repeated installs replace the recorded
/// handle/path rather than chaining hooks.
pub fn install_panic_dump(telemetry: &Telemetry, path: &str) {
    let slot = panic_dump_slot();
    if let Ok(mut guard) = slot.lock() {
        let first = guard.is_none();
        *guard = Some((telemetry.clone(), path.to_string()));
        drop(guard);
        if first {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if let Ok(guard) = panic_dump_slot().lock() {
                    if let Some((telemetry, path)) = guard.as_ref() {
                        let doc = chrome_trace(&telemetry.drain_trace());
                        if std::fs::write(path, &doc).is_ok() {
                            eprintln!("flight recorder: wrote {path}");
                        }
                    }
                }
                previous(info);
            }));
        }
    }
}

/// Target of the panic dump, shared with the installed hook.
fn panic_dump_slot() -> &'static Mutex<Option<(Telemetry, String)>> {
    static SLOT: Mutex<Option<(Telemetry, String)>> = Mutex::new(None);
    &SLOT
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    fn traced(name: &'static str, start_ns: u64, ctx: TraceContext) -> TraceEvent {
        TraceEvent {
            name,
            start_ns,
            dur_ns: 10,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            shard: ctx.shard,
        }
    }

    #[test]
    fn export_is_input_order_independent() {
        let root = TraceContext::root(1);
        let a = traced("a", 0, root);
        let b = traced("b", 5, root.child(0));
        let c = traced("c", 5, root.child(1));
        let forward = chrome_trace(&[a, b, c]);
        let backward = chrome_trace(&[c, b, a]);
        assert_eq!(forward, backward);
        assert!(forward.contains("genio-trace/v1"));
        assert!(forward.contains("\"ph\":\"X\""));
    }

    #[test]
    fn export_parses_as_json_and_carries_ids_as_hex() {
        let root = TraceContext::root(9).with_shard(2);
        let doc = chrome_trace(&[traced("pon.shard.step", 1_500, root)]);
        let parsed = genio_testkit::json::parse(&doc);
        assert!(parsed.is_ok(), "exporter must emit valid JSON: {doc}");
        assert!(doc.contains("\"tid\":2"));
        assert!(doc.contains(&format!("{:#018x}", root.span_id)));
        // 1500 ns = 1.500 µs.
        assert!(doc.contains("\"ts\":1.500"));
    }

    #[test]
    fn validate_accepts_forest_and_counts_depth() {
        let root = TraceContext::root(3);
        let shard = root.child(0);
        let batch = shard.child(7);
        let events =
            [traced("r", 0, root), traced("s", 1, shard), traced("b", 2, batch),
             TraceEvent::untraced("plain", 5, 1)];
        let stats = validate_tree(&events).expect("valid forest");
        assert_eq!(stats.events, 4);
        assert_eq!(stats.traced, 3);
        assert_eq!(stats.roots, 1);
        assert_eq!(stats.max_depth, 3);
    }

    #[test]
    fn validate_rejects_orphans_and_cycles() {
        let root = TraceContext::root(4);
        let ghost_child = TraceContext { parent_id: 0xDEAD, ..root.child(0) };
        let orphan = validate_tree(&[traced("r", 0, root), traced("x", 1, ghost_child)]);
        assert_eq!(
            orphan,
            Err(TraceTreeError::OrphanParent { span_id: ghost_child.span_id, parent_id: 0xDEAD })
        );

        let looped = [
            TraceEvent { name: "a", start_ns: 0, dur_ns: 1, trace_id: 1, span_id: 10, parent_id: 20, shard: 0 },
            TraceEvent { name: "b", start_ns: 1, dur_ns: 1, trace_id: 1, span_id: 20, parent_id: 10, shard: 0 },
        ];
        assert!(matches!(validate_tree(&looped), Err(TraceTreeError::Cycle { .. })));
    }
}
