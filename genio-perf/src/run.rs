//! What a run is asked to do, and what each of its replicas produced.
//!
//! A run drives one or more replicas of the same workload in lockstep:
//! unit `k` runs on every replica, one after the other, before unit
//! `k + 1` starts. A traced run uses two replicas, untraced and traced,
//! so host drift falls on both alike and their difference is the
//! tracing overhead.

use std::collections::BTreeMap;

use genio_telemetry::{chrome_trace, validate_tree, Clock, RingStats, Telemetry, TraceRing};

use crate::stats::Digest;

/// Share of the time budget whose units are warm-up.
const WARMUP_SHARE: f64 = 0.02;

/// Hard stop for a run, well inside its time limit.
const MAX_RUN_NS: u64 = 120_000_000_000;

/// Instructions for a run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Time budget: units run until this much time has passed, set-up
    /// done between units excluded.
    pub seconds: f64,
    /// Keep going past the budget until this many samples are counted.
    pub min_samples: usize,
    /// Times set-up is repeated before the first unit.
    pub setups: usize,
    /// Reduced sizes and a fixed unit count instead of a time budget.
    pub smoke: bool,
}

/// Decides when a run stops and which units are warm-up, from the first
/// replica's outcome.
#[derive(Debug)]
pub struct Pacer {
    clock: Clock,
    start_ns: u64,
    paused_ns: u64,
    budget_ns: u64,
    units: Option<usize>,
    min_samples: usize,
}

impl Pacer {
    /// Starts the run clock. A smoke run runs exactly `smoke_units`
    /// units, the first of them warm-up.
    pub fn start(plan: &Plan, smoke_units: usize) -> Pacer {
        let clock = Clock::monotonic();
        Pacer {
            start_ns: clock.now_ns(),
            clock,
            paused_ns: 0,
            budget_ns: (plan.seconds.max(0.0) * 1e9) as u64,
            units: plan.smoke.then_some(smoke_units),
            min_samples: plan.min_samples,
        }
    }

    /// Excludes `ns` of set-up work done between units from the budget.
    pub fn pause(&mut self, ns: u64) {
        self.paused_ns += ns;
    }

    fn elapsed(&self) -> u64 {
        self.clock
            .now_ns()
            .saturating_sub(self.start_ns)
            .saturating_sub(self.paused_ns)
    }

    /// Whether another unit (or group of units) should run.
    pub fn more(&self, outs: &[Outcome]) -> bool {
        let Some(lead) = outs.first() else {
            return false;
        };
        if self.clock.now_ns().saturating_sub(self.start_ns) > MAX_RUN_NS {
            return false;
        }
        match self.units {
            Some(n) => lead.units < n,
            None => self.elapsed() < self.budget_ns || lead.samples_ns.len() < self.min_samples,
        }
    }

    /// Whether the next unit is warm-up: the first one, and any that start
    /// within the first 2% of the budget.
    pub fn is_warmup(&self, outs: &[Outcome]) -> bool {
        outs.first().is_none_or(|lead| {
            lead.units == 0
                || (self.units.is_none()
                    && (self.elapsed() as f64) < WARMUP_SHARE * self.budget_ns as f64)
        })
    }
}

/// Orders the replicas for unit `k`, alternating which goes first so
/// that neither always runs on what the other just left in caches and
/// the allocator.
pub fn alternate<T>(k: usize, replicas: impl Iterator<Item = T>) -> Vec<T> {
    let mut order: Vec<T> = replicas.collect();
    if k % 2 == 1 {
        order.reverse();
    }
    order
}

/// What one replica produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units run, warm-up included.
    pub units: usize,
    /// Leading units left out of every metric.
    pub warmup: usize,
    /// Latency of each counted, successful legitimate unit.
    pub samples_ns: Vec<u64>,
    /// Time of every counted unit, refused sessions included.
    pub unit_ns: Vec<u64>,
    /// Legitimate items (frames, sessions, ONUs) completed in counted
    /// units.
    pub items: u64,
    /// Legitimate operations attempted, warm-up included.
    pub attempted: u64,
    /// Legitimate operations that ended in a typed error.
    pub failed: u64,
    /// Wrong outputs seen (the first few are kept in `wrong`).
    pub wrong_count: u64,
    /// Descriptions of the first wrong outputs.
    pub wrong: Vec<String>,
    /// Digest of every unit's outputs, warm-up included.
    pub digest: Digest,
    /// Duration of each set-up.
    pub setup_ns: Vec<u64>,
    /// Per-layer counts taken from results and public fields.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Accounts one finished unit.
    pub fn unit(&mut self, warm: bool, dur_ns: u64) {
        self.units += 1;
        if warm {
            self.warmup += 1;
        } else {
            self.unit_ns.push(dur_ns);
        }
    }

    /// Records a wrong output.
    pub fn wrong(&mut self, what: String) {
        self.wrong_count += 1;
        if self.wrong.len() < 8 {
            self.wrong.push(what);
        }
    }

    /// Adds `n` to a per-layer counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Checks a flight-recorder export. The span tree must validate
    /// unless the telemetry ring dropped spans.
    pub fn check_export(&mut self, export: &Export) {
        if export.document_bytes == 0 || export.prometheus_bytes == 0 {
            self.wrong("flight-recorder export is empty".to_string());
        }
        if !export.tree_ok && export.dropped == 0 {
            self.wrong("exported span tree does not validate".to_string());
        }
        self.count("telemetry.trace_recorded", export.recorded);
        self.count("telemetry.trace_dropped", export.dropped);
    }
}

/// What one flight-recorder export produced.
#[derive(Debug, Clone, Copy)]
pub struct Export {
    /// Bytes of the `genio-trace/v1` document.
    pub document_bytes: usize,
    /// Whether the drained spans form a valid forest.
    pub tree_ok: bool,
    /// Bytes of the Prometheus exposition.
    pub prometheus_bytes: usize,
    /// Spans offered to the ring since the previous export.
    pub recorded: u64,
    /// Spans the ring lost since the previous export.
    pub dropped: u64,
}

/// One flight-recorder export: drain the trace ring, render it as
/// `genio-trace/v1`, validate the span tree, render Prometheus text.
/// `since` is the ring accounting at the previous export.
pub fn export(telemetry: &Telemetry, since: RingStats) -> (Export, RingStats) {
    let events = telemetry.drain_trace();
    let document = chrome_trace(&events);
    let tree_ok = validate_tree(&events).is_ok();
    let prometheus = telemetry.snapshot().to_prometheus();
    let stats = telemetry.ring().map(TraceRing::stats).unwrap_or_default();
    let export = Export {
        document_bytes: document.len(),
        tree_ok,
        prometheus_bytes: prometheus.len(),
        recorded: stats.recorded.saturating_sub(since.recorded),
        dropped: stats.dropped.saturating_sub(since.dropped),
    };
    (export, stats)
}
