//! Bounded ring buffer of trace events with explicit drop accounting.
//!
//! One mutex guards the buffer and its counts. `push` waits for the lock
//! rather than giving up on contention, so an event is lost only when the
//! ring is full: the oldest event is evicted (drops-oldest) and the drop
//! counter says so. Because the counts move under the same lock as the
//! buffer, `recorded == dropped + drained + buffered` holds in every
//! [`TraceRing::stats`] view, not only at quiescence.
//!
//! The panic-dump hook ([`crate::install_panic_dump`]) drains this ring,
//! so nothing may panic while the lock is held: the buffer is allocated
//! at full capacity up front and `push` evicts before it appends, so the
//! critical section never allocates.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One completed span occurrence, carrying its causal identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (static: span names are compile-time labels).
    pub name: &'static str,
    /// Start time in clock nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace identity shared by the whole span tree (0 = untraced).
    pub trace_id: u64,
    /// This span's identity (0 = untraced).
    pub span_id: u64,
    /// Opening span's identity (0 = root or untraced).
    pub parent_id: u64,
    /// Shard / worker index that carried the span.
    pub shard: u32,
}

impl TraceEvent {
    /// An event with no causal identity — what pre-v2 spans recorded,
    /// and what `Telemetry::span` (as opposed to `span_at`) still emits.
    pub fn untraced(name: &'static str, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent { name, start_ns, dur_ns, trace_id: 0, span_id: 0, parent_id: 0, shard: 0 }
    }
}

/// Point-in-time accounting view of the ring.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Events offered to the ring.
    pub recorded: u64,
    /// Events evicted, oldest first, because the ring was full.
    pub dropped: u64,
    /// Events handed out via [`TraceRing::drain`].
    pub drained: u64,
    /// Events currently buffered.
    pub buffered: u64,
}

/// The buffer and its counts, all guarded by the ring's one lock.
#[derive(Debug)]
struct RingState {
    events: VecDeque<TraceEvent>,
    recorded: u64,
    dropped: u64,
    drained: u64,
}

/// Bounded trace event buffer behind a single lock.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    state: Mutex<RingState>,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            capacity,
            state: Mutex::new(RingState {
                events: VecDeque::with_capacity(capacity),
                recorded: 0,
                dropped: 0,
                drained: 0,
            }),
        }
    }

    /// Maximum number of buffered events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nothing panics while the lock is held, so a poisoned lock still
    /// guards consistent state.
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers an event. Waits for the lock; a full ring evicts its
    /// oldest event (counted as dropped) to make room.
    pub fn push(&self, event: TraceEvent) {
        let mut state = self.lock();
        state.recorded += 1;
        if state.events.len() >= self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(event);
    }

    /// Removes and returns all buffered events, oldest first. The
    /// flight recorder sorts canonically before export, so the order in
    /// which concurrent pushes won the lock never reaches exported bytes.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut state = self.lock();
        let out: Vec<TraceEvent> = state.events.drain(..).collect();
        state.drained += out.len() as u64;
        out
    }

    /// Accounting snapshot, consistent with the buffer it describes.
    pub fn stats(&self) -> RingStats {
        let state = self.lock();
        RingStats {
            recorded: state.recorded,
            dropped: state.dropped,
            drained: state.drained,
            buffered: state.events.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start_ns: u64) -> TraceEvent {
        TraceEvent::untraced(name, start_ns, 1)
    }

    #[test]
    fn drops_oldest_when_full_and_counts_it() {
        let ring = TraceRing::new(2);
        ring.push(ev("a", 0));
        ring.push(ev("b", 1));
        ring.push(ev("c", 2)); // evicts "a"
        let stats = ring.stats();
        assert_eq!(stats.recorded, 3);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.buffered, 2);
        let drained = ring.drain();
        assert_eq!(drained.iter().map(|e| e.name).collect::<Vec<_>>(), ["b", "c"]);
        let stats = ring.stats();
        assert_eq!(stats.drained, 2);
        assert_eq!(stats.recorded, stats.dropped + stats.drained + stats.buffered);
    }

    #[test]
    fn accounting_balances_across_interleaved_drains() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.push(ev("x", i));
            if i % 3 == 0 {
                ring.drain();
            }
        }
        let stats = ring.stats();
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.recorded, stats.dropped + stats.drained + stats.buffered);
    }
}
