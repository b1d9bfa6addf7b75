//! Fleet-scale PON simulation: a sharded, struct-of-arrays
//! discrete-event engine.
//!
//! The object-per-ONU stepper in [`crate::reference`] is fine for one
//! tree with a handful of ONUs, but the paper's architecture serves
//! operator-scale fleets — thousands of PON trees, a million ONUs. This
//! module rebuilds the simulation core for that scale:
//!
//! * **Discrete events, not ticks.** A hierarchical timer wheel
//!   ([`crate::wheel`]) drives activation announcements, TDMA cycles
//!   and attack events at nanosecond timestamps; nothing iterates over
//!   idle ONUs.
//! * **Struct-of-arrays ONU state.** Activation phase, equalization
//!   delay and per-ONU grant/frame counters live in parallel flat
//!   `Vec`s indexed by `(tree, onu)` — no per-ONU heap objects.
//! * **Per-tree shards on worker threads.** Trees are independent, so
//!   contiguous tree ranges run on `std::thread` workers. Determinism
//!   is by construction: per-tree RNG streams are split from the seed
//!   ([`mix64`]), events carry a per-tree sequence number, and the
//!   merged log is canonically ordered by `(time, tree, seq)` — the
//!   same fleet at 1, 2 or 8 workers yields a byte-identical log.
//! * **Batched TDMA.** Each cycle computes one tree's whole grant
//!   schedule through [`compute_grants_into`] into reusable buffers.
//!
//! The engine is pinned to the legacy object-per-ONU semantics by
//! [`crate::reference`] and the differential harness in
//! `tests/engine_differential.rs`: identical activation sequences,
//! grant schedules and attack verdicts, event for event.

use std::thread;

use crate::tdma::{
    compute_grants_into, jain_fairness, BandwidthRequest, BatchGrants, DbaConfig, ServiceClass,
};
use crate::topology::propagation_delay_ns;
use crate::wheel::TimerWheel;
use genio_telemetry::{Telemetry, TraceContext};

/// Window (ns) within which every ONU announces itself for activation.
pub const ACTIVATION_WINDOW_NS: u64 = 1_000_000;

/// TDMA cycle period (ns). Matches `DbaConfig::default().cycle_ns`.
pub const CYCLE_NS: u64 = 125_000;

/// Offset (ns) after a cycle start at which the replay attacker
/// re-injects its captured frame.
pub const REPLAY_OFFSET_NS: u64 = 60_000;

/// Trunk fiber from OLT to splitter (m), uniform across the fleet.
pub const TRUNK_M: u32 = 10_000;

const TAG_ANNOUNCE: u64 = 0x414e_4e4f_554e_4345;
const TAG_ROGUE: u64 = 0x0052_4f47_5545_0000;
const TAG_FIBER: u64 = 0x0046_4942_4552_0000;
const TAG_DEMAND: u64 = 0x0044_454d_414e_4400;
const TAG_CLASS: u64 = 0x0043_4c41_5353_0000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64 finalizer: the engine's seed-split primitive. Each tree's
/// event stream is derived from `(seed, tree)` through this mix, so
/// shards need no shared RNG state and any tree partition produces the
/// same per-tree streams.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn h3(seed: u64, tag: u64, tree: u32, x: u64) -> u64 {
    mix64(seed ^ mix64(tag ^ mix64((u64::from(tree) << 32) ^ x)))
}

/// Trace-slot namespaces: shard spans, wheel-advance batches and the
/// platform merge each derive child span IDs from disjoint slot ranges,
/// so spans from different phases can never collide.
const TRACE_SLOT_SHARD: u64 = 0x5348_4152_4400_0000; // "SHARD"
const TRACE_SLOT_BATCH: u64 = 0x4241_5443_4800_0000; // "BATCH"

/// Root causal context for a fleet run keyed by `seed`. Deterministic:
/// same seed, same trace — which is what lets two runs of the same
/// campaign export byte-identical span trees, and lets
/// `genio_core::fleet` attach its merge span to the engine's tree
/// without any cross-thread handshake.
pub fn trace_root(seed: u64) -> TraceContext {
    TraceContext::root(seed)
}

/// Announcement time (ns, within [`ACTIVATION_WINDOW_NS`]) of a
/// legitimate ONU.
pub fn announce_ns(seed: u64, tree: u32, onu: u32) -> u64 {
    h3(seed, TAG_ANNOUNCE, tree, u64::from(onu)) % ACTIVATION_WINDOW_NS
}

/// Announcement time (ns) of the tree's rogue ONU.
pub fn rogue_announce_ns(seed: u64, tree: u32) -> u64 {
    h3(seed, TAG_ROGUE, tree, 0) % ACTIVATION_WINDOW_NS
}

/// Drop-fiber length (m) of an ONU: deterministic per `(tree, onu)`,
/// always within the standard's reach given [`TRUNK_M`].
pub fn drop_fiber_m(tree: u32, onu: u32) -> u32 {
    let m = 200 + h3(0, TAG_FIBER, tree, u64::from(onu)) % 29_800;
    u32::try_from(m).unwrap_or(29_999)
}

/// Upstream demand (bytes) of an ONU in a given cycle. When
/// `greedy_every > 0`, every `greedy_every`-th ONU asks for far more
/// than its fair share (the T8-style greed the DBA must bound).
pub fn demand_bytes(seed: u64, tree: u32, cycle: u32, onu: u32, greedy_every: u32) -> u64 {
    if greedy_every > 0 && onu % greedy_every == 0 {
        return 1_000_000;
    }
    let x = (u64::from(cycle) << 32) | u64::from(onu);
    1_000 + h3(seed, TAG_DEMAND, tree, x) % 8_000
}

/// Service class of an ONU's traffic contract.
pub fn service_class(seed: u64, tree: u32, onu: u32) -> ServiceClass {
    match h3(seed, TAG_CLASS, tree, u64::from(onu)) % 4 {
        0 => ServiceClass::Fixed,
        1 => ServiceClass::Assured,
        _ => ServiceClass::BestEffort,
    }
}

/// Vendor serial of a legitimate ONU, shared with the reference path.
pub fn onu_serial(tree: u32, onu: u32) -> String {
    format!("T{tree:05}-{onu:05}")
}

/// Absolute start time (ns) of TDMA cycle `k`.
pub fn cycle_start_ns(k: u32) -> u64 {
    ACTIVATION_WINDOW_NS + u64::from(k) * CYCLE_NS
}

/// Round-trip time (ns) from the OLT to `(tree, onu)`.
pub fn onu_rtt_ns(tree: u32, onu: u32) -> u64 {
    propagation_delay_ns(u64::from(drop_fiber_m(tree, onu)) + u64::from(TRUNK_M)) * 2
}

/// FNV-1a digest of a grant schedule, as produced by either the batched
/// engine path or the reference `compute_map` path.
pub fn grants_digest(grants: impl Iterator<Item = (u32, u64, u64, u64)>) -> u64 {
    let mut h = FNV_OFFSET;
    for (onu, bytes, start_ns, duration_ns) in grants {
        for v in [u64::from(onu), bytes, start_ns, duration_ns] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

/// Fleet simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSimConfig {
    /// Number of PON trees in the fleet.
    pub trees: u32,
    /// Legitimate subscriber ONUs per tree.
    pub onus_per_tree: u32,
    /// TDMA cycles to simulate after the activation window.
    pub cycles: u32,
    /// Master seed; split per tree via [`mix64`].
    pub seed: u64,
    /// Mitigation M3: encrypt GEM payloads.
    pub encrypt: bool,
    /// Mitigation M4: certificate-based admission (vs serial allowlist).
    pub certificate_admission: bool,
    /// Replay a captured frame every N cycles (0 = never).
    pub replay_every: u32,
    /// Whether each tree hosts a rogue ONU cloning a subscriber serial.
    pub rogue_per_tree: bool,
    /// Every N-th ONU is greedy (0 = none), exercising the DBA cap.
    pub greedy_every: u32,
}

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            trees: 4,
            onus_per_tree: 16,
            cycles: 8,
            seed: 42,
            encrypt: true,
            certificate_admission: true,
            replay_every: 4,
            rogue_per_tree: true,
            greedy_every: 0,
        }
    }
}

/// What happened at one point of the fleet timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An ONU (index in `a`) was admitted (`b == 0`) or denied
    /// (`b == 1`); `c` carries its equalization delay in ns.
    Activation,
    /// The tree's rogue ONU attempted admission: `b == 0` admitted with
    /// victim id in `c`, `b == 1` denied.
    RogueAttempt,
    /// TDMA cycle `a` granted: `b` is the grant-schedule digest, `c`
    /// the total bytes granted.
    CycleGrants,
    /// Replay of the frame captured in cycle `c` during cycle `a`:
    /// `b == 0` accepted by the victim, `b == 1` rejected.
    Replay,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Activation => 1,
            EventKind::RogueAttempt => 2,
            EventKind::CycleGrants => 3,
            EventKind::Replay => 4,
        }
    }
}

/// One event of the merged fleet log. Ordered by `(time_ns, tree,
/// seq)`; `seq` is per-tree and assigned in firing order, so the
/// ordering is total and shard-count invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Absolute simulation time (ns).
    pub time_ns: u64,
    /// PON tree index.
    pub tree: u32,
    /// Per-tree sequence number.
    pub seq: u32,
    /// Event class.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

/// The canonically ordered fleet event log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    /// Records sorted by `(time_ns, tree, seq)`.
    pub records: Vec<EventRecord>,
}

impl EventLog {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// FNV-1a digest over every field of every record — the byte-level
    /// identity the determinism gates compare.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in &self.records {
            for v in [
                r.time_ns,
                u64::from(r.tree),
                u64::from(r.seq),
                r.kind.code(),
                r.a,
                r.b,
                r.c,
            ] {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(FNV_PRIME);
                }
            }
        }
        h
    }
}

/// Aggregate counters of a fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStats {
    /// PON trees simulated.
    pub trees: u64,
    /// Legitimate ONUs attached.
    pub onus: u64,
    /// ONUs that completed activation.
    pub activated: u64,
    /// Rogue admission attempts.
    pub rogues_attempted: u64,
    /// Rogue admissions that succeeded (impersonation successes).
    pub rogues_admitted: u64,
    /// Downstream frames transmitted.
    pub frames_sent: u64,
    /// Frames delivered to their ONU.
    pub frames_delivered: u64,
    /// Frames observed by the fiber tap (broadcast: everything).
    pub attacker_observed: u64,
    /// Frames whose payload the tap could read.
    pub attacker_readable: u64,
    /// Replay attempts.
    pub replays_attempted: u64,
    /// Replays accepted by a victim ONU.
    pub replays_accepted: u64,
    /// Total upstream bytes granted.
    pub granted_bytes: u64,
    /// Sum of per-cycle Jain fairness indices (folded in tree order —
    /// bitwise shard-count invariant).
    pub fairness_sum: f64,
    /// Cycles contributing to `fairness_sum`.
    pub fairness_cycles: u64,
    /// Events in the merged log.
    pub events: u64,
}

impl FleetStats {
    /// Mean Jain fairness across all granted cycles (0 when none).
    pub fn mean_fairness(&self) -> f64 {
        if self.fairness_cycles > 0 {
            self.fairness_sum / self.fairness_cycles as f64
        } else {
            0.0
        }
    }

    /// T1 attack verdicts implied by the counters.
    pub fn verdicts(&self) -> FleetVerdicts {
        FleetVerdicts {
            eavesdropping_succeeded: self.attacker_readable > 0,
            replay_succeeded: self.replays_accepted > 0,
            impersonation_succeeded: self.rogues_admitted > 0,
        }
    }

    fn absorb(&mut self, other: &FleetStats) {
        self.trees += other.trees;
        self.onus += other.onus;
        self.activated += other.activated;
        self.rogues_attempted += other.rogues_attempted;
        self.rogues_admitted += other.rogues_admitted;
        self.frames_sent += other.frames_sent;
        self.frames_delivered += other.frames_delivered;
        self.attacker_observed += other.attacker_observed;
        self.attacker_readable += other.attacker_readable;
        self.replays_attempted += other.replays_attempted;
        self.replays_accepted += other.replays_accepted;
        self.granted_bytes += other.granted_bytes;
    }
}

/// Success flags of the paper's T1 attack set over one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetVerdicts {
    /// Did the fiber tap read any payload?
    pub eavesdropping_succeeded: bool,
    /// Was any replayed frame accepted?
    pub replay_succeeded: bool,
    /// Was any rogue ONU admitted?
    pub impersonation_succeeded: bool,
}

/// Worker-count knob for [`run_shards`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Shard worker threads; 0 means "one per available core". The
    /// result is identical for any value — only wall time changes.
    pub workers: usize,
}

/// Output of one shard: its slice of the event log (already ordered by
/// `(time, tree, seq)` — trees are contiguous per shard), its partial
/// counters, and per-tree fairness accumulators kept separate so the
/// merge can fold them in canonical tree order.
#[derive(Debug, Clone)]
pub struct ShardOutput {
    log: Vec<EventRecord>,
    stats: FleetStats,
    tree_fairness: Vec<(f64, u64)>,
}

/// A merged fleet run: canonical log plus aggregate stats.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunResult {
    /// The canonically ordered event log.
    pub log: EventLog,
    /// Aggregate counters.
    pub stats: FleetStats,
}

/// Runs the fleet with default options and telemetry off.
pub fn run(config: &FleetSimConfig) -> FleetRunResult {
    run_with(config, &EngineOptions::default(), &Telemetry::disabled())
}

/// Runs the fleet: shards the trees over worker threads, then merges
/// the shard logs into the canonical `(time, tree, seq)` order.
pub fn run_with(
    config: &FleetSimConfig,
    options: &EngineOptions,
    telemetry: &Telemetry,
) -> FleetRunResult {
    merge_shards(run_shards(config, options, telemetry))
}

/// Phase one: runs every shard and returns their outputs in tree order
/// (shard *i* owns a contiguous tree range below shard *i + 1*'s).
pub fn run_shards(
    config: &FleetSimConfig,
    options: &EngineOptions,
    telemetry: &Telemetry,
) -> Vec<ShardOutput> {
    let root = trace_root(config.seed);
    let _run_span = telemetry.span_at("pon.fleet.run", root);
    let auto = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let requested = if options.workers == 0 { auto } else { options.workers };
    let workers = u32::try_from(requested)
        .unwrap_or(u32::MAX)
        .clamp(1, config.trees.max(1));

    if workers <= 1 {
        let ctx = root.child(TRACE_SLOT_SHARD).with_shard(0);
        return vec![run_shard(config, 0, config.trees, telemetry, ctx)];
    }

    let base = config.trees / workers;
    let rem = config.trees % workers;
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers as usize);
        let mut start = 0u32;
        for w in 0..workers {
            let len = base + u32::from(w < rem);
            let (lo, hi) = (start, start + len);
            start = hi;
            let tele = telemetry.clone();
            let cfg = *config;
            let ctx = root.child(TRACE_SLOT_SHARD | u64::from(w)).with_shard(w);
            handles.push(scope.spawn(move || run_shard(&cfg, lo, hi, &tele, ctx)));
        }
        join_in_order(handles)
    })
}

/// Joins scoped workers in spawn order. A panicked worker's panic is
/// resumed on the caller, so a failed shard fails the whole run instead
/// of leaving its trees silently out of the result.
fn join_in_order<T>(handles: Vec<thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut outputs = Vec::with_capacity(handles.len());
    for handle in handles {
        match handle.join() {
            Ok(out) => outputs.push(out),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    outputs
}

/// Phase two: merges shard outputs (in tree order) into the canonical
/// log and aggregate stats. Per-tree fairness sums are folded
/// sequentially in tree order, so the f64 result is bitwise identical
/// for every shard count.
pub fn merge_shards(shards: Vec<ShardOutput>) -> FleetRunResult {
    let total: usize = shards.iter().map(|s| s.log.len()).sum();
    let mut records = Vec::with_capacity(total);
    let mut stats = FleetStats::default();
    for shard in shards {
        stats.absorb(&shard.stats);
        for (sum, cycles) in shard.tree_fairness {
            stats.fairness_sum += sum;
            stats.fairness_cycles += cycles;
        }
        records.extend(shard.log);
    }
    records.sort_unstable_by_key(|r| (r.time_ns, r.tree, r.seq));
    stats.events = records.len() as u64;
    FleetRunResult {
        log: EventLog { records },
        stats,
    }
}

/// Event payloads carried through the timer wheel.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Announce { tree: u32, onu: u32 },
    Rogue { tree: u32 },
    Cycle { tree: u32, k: u32 },
    Replay { tree: u32, k: u32 },
}

/// Events delivered per `pon.wheel.advance` span.
const ADVANCE_BATCH: usize = 4096;

fn emit(
    log: &mut Vec<EventRecord>,
    tree_seq: &mut [u32],
    tree_start: u32,
    tree: u32,
    time_ns: u64,
    kind: EventKind,
    a: u64,
    b: u64,
    c: u64,
) {
    let lt = (tree - tree_start) as usize;
    let seq = tree_seq.get(lt).copied().unwrap_or(0);
    if let Some(s) = tree_seq.get_mut(lt) {
        *s += 1;
    }
    log.push(EventRecord {
        time_ns,
        tree,
        seq,
        kind,
        a,
        b,
        c,
    });
}

fn run_shard(
    cfg: &FleetSimConfig,
    tree_start: u32,
    tree_end: u32,
    telemetry: &Telemetry,
    ctx: TraceContext,
) -> ShardOutput {
    let _shard_span = telemetry.span_at("pon.shard.step", ctx);
    let events_ctr = telemetry.counter("pon.fleet.events");
    let frames_ctr = telemetry.counter("pon.fleet.frames");

    let n = cfg.onus_per_tree;
    let n_us = n as usize;
    let shard_trees = (tree_end - tree_start) as usize;
    let cells = shard_trees * n_us;

    // Struct-of-arrays ONU state, indexed by `local_tree * n + onu`.
    let mut active = vec![false; cells];
    let mut eq_delay_ns = vec![0u64; cells];
    let mut granted_bytes = vec![0u64; cells];
    let mut frames_tx = vec![0u64; cells];
    // Per-tree state.
    let mut tree_seq = vec![0u32; shard_trees];
    let mut max_rtt = vec![0u64; shard_trees];
    let mut fairness = vec![(0.0f64, 0u64); shard_trees];

    let mut stats = FleetStats {
        trees: u64::from(tree_end - tree_start),
        onus: u64::from(tree_end - tree_start) * u64::from(n),
        ..FleetStats::default()
    };

    let mut wheel: TimerWheel<Ev> = TimerWheel::new();
    for tree in tree_start..tree_end {
        let lt = (tree - tree_start) as usize;
        if let Some(m) = max_rtt.get_mut(lt) {
            *m = (0..n).map(|onu| onu_rtt_ns(tree, onu)).max().unwrap_or(0);
        }
        for onu in 0..n {
            wheel.schedule(announce_ns(cfg.seed, tree, onu), Ev::Announce { tree, onu });
        }
        if cfg.rogue_per_tree {
            wheel.schedule(rogue_announce_ns(cfg.seed, tree), Ev::Rogue { tree });
        }
    }
    if cfg.cycles > 0 {
        for tree in tree_start..tree_end {
            wheel.schedule(cycle_start_ns(0), Ev::Cycle { tree, k: 0 });
        }
    }

    let dba = DbaConfig::default();
    let mut requests: Vec<BandwidthRequest> = Vec::with_capacity(n_us);
    let mut batch = BatchGrants::new();
    let mut log: Vec<EventRecord> = Vec::new();
    let mut batch_seq = 0u64;

    loop {
        let _advance_span =
            telemetry.span_at("pon.wheel.advance", ctx.child(TRACE_SLOT_BATCH | batch_seq));
        batch_seq += 1;
        let mut drained = 0usize;
        while drained < ADVANCE_BATCH {
            let Some((time_ns, ev)) = wheel.pop_next() else {
                break;
            };
            drained += 1;
            match ev {
                Ev::Announce { tree, onu } => {
                    let lt = (tree - tree_start) as usize;
                    let idx = lt * n_us + onu as usize;
                    if !active.get(idx).copied().unwrap_or(true) {
                        if let Some(slot) = active.get_mut(idx) {
                            *slot = true;
                        }
                        let rtt = onu_rtt_ns(tree, onu);
                        let eq = max_rtt.get(lt).copied().unwrap_or(rtt) - rtt;
                        if let Some(slot) = eq_delay_ns.get_mut(idx) {
                            *slot = eq;
                        }
                        stats.activated += 1;
                        emit(
                            &mut log,
                            &mut tree_seq,
                            tree_start,
                            tree,
                            time_ns,
                            EventKind::Activation,
                            u64::from(onu),
                            0,
                            eq,
                        );
                    }
                }
                Ev::Rogue { tree } => {
                    stats.rogues_attempted += 1;
                    // The rogue clones subscriber 0's serial with forged
                    // key evidence: a serial allowlist (M4 off) admits
                    // it as the victim; certificate admission rejects
                    // the forged chain. With no subscribers there is no
                    // serial to clone, so admission always fails.
                    let admitted = !cfg.certificate_admission && n > 0;
                    if admitted {
                        stats.rogues_admitted += 1;
                    }
                    emit(
                        &mut log,
                        &mut tree_seq,
                        tree_start,
                        tree,
                        time_ns,
                        EventKind::RogueAttempt,
                        u64::from(n),
                        if admitted { 0 } else { 1 },
                        if admitted { 1 } else { 0 },
                    );
                }
                Ev::Cycle { tree, k } => {
                    let lt = (tree - tree_start) as usize;
                    let base = lt * n_us;
                    requests.clear();
                    for onu in 0..n {
                        if active.get(base + onu as usize).copied().unwrap_or(false) {
                            requests.push(BandwidthRequest {
                                onu: onu + 1,
                                queued_bytes: demand_bytes(
                                    cfg.seed,
                                    tree,
                                    k,
                                    onu,
                                    cfg.greedy_every,
                                ),
                                class: service_class(cfg.seed, tree, onu),
                            });
                        }
                    }
                    let ops = requests.len() as u64;
                    compute_grants_into(&dba, &requests, &mut batch);
                    for (g_onu, g_bytes, _, _) in batch.iter() {
                        if let Some(slot) = granted_bytes.get_mut(base + (g_onu - 1) as usize) {
                            *slot += g_bytes;
                        }
                    }
                    for req in &requests {
                        if let Some(slot) = frames_tx.get_mut(base + (req.onu - 1) as usize) {
                            *slot += 1;
                        }
                    }
                    frames_ctr.incr(ops);
                    if let Some(f) = jain_fairness(batch.bytes.iter().copied()) {
                        if let Some(acc) = fairness.get_mut(lt) {
                            acc.0 += f;
                            acc.1 += 1;
                        }
                    }
                    emit(
                        &mut log,
                        &mut tree_seq,
                        tree_start,
                        tree,
                        time_ns,
                        EventKind::CycleGrants,
                        u64::from(k),
                        grants_digest(batch.iter()),
                        batch.total_bytes(),
                    );
                    if cfg.replay_every > 0 && k % cfg.replay_every == 0 && n > 0 {
                        wheel.schedule(
                            cycle_start_ns(k) + REPLAY_OFFSET_NS,
                            Ev::Replay { tree, k },
                        );
                    }
                    if k + 1 < cfg.cycles {
                        wheel.schedule(cycle_start_ns(k + 1), Ev::Cycle { tree, k: k + 1 });
                    }
                }
                Ev::Replay { tree, k } => {
                    stats.replays_attempted += 1;
                    // Replayed downstream frames carry an already-used
                    // counter: with encryption on, the victim's replay
                    // window rejects them; cleartext has no freshness
                    // check, so the replay lands.
                    let accepted = !cfg.encrypt;
                    if accepted {
                        stats.replays_accepted += 1;
                    }
                    emit(
                        &mut log,
                        &mut tree_seq,
                        tree_start,
                        tree,
                        time_ns,
                        EventKind::Replay,
                        u64::from(k),
                        if accepted { 0 } else { 1 },
                        u64::from(k),
                    );
                }
            }
        }
        events_ctr.incr(drained as u64);
        if drained < ADVANCE_BATCH {
            break;
        }
    }

    stats.frames_sent = frames_tx.iter().sum();
    stats.frames_delivered = stats.frames_sent;
    stats.attacker_observed = stats.frames_sent;
    stats.attacker_readable = if cfg.encrypt { 0 } else { stats.frames_sent };
    stats.granted_bytes = granted_bytes.iter().sum();

    ShardOutput {
        log,
        stats,
        tree_fairness: fairness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_period_matches_dba_default() {
        assert_eq!(CYCLE_NS, DbaConfig::default().cycle_ns);
    }

    #[test]
    fn model_functions_stay_in_range() {
        for tree in [0u32, 7, 4_000] {
            for onu in 0..64 {
                assert!(announce_ns(9, tree, onu) < ACTIVATION_WINDOW_NS);
                let fiber = drop_fiber_m(tree, onu);
                assert!((200..30_000).contains(&fiber));
                let d = demand_bytes(9, tree, 3, onu, 0);
                assert!((1_000..9_000).contains(&d));
            }
            assert!(rogue_announce_ns(9, tree) < ACTIVATION_WINDOW_NS);
        }
    }

    #[test]
    fn secure_fleet_blocks_all_three_attacks() {
        let result = run(&FleetSimConfig::default());
        let v = result.stats.verdicts();
        assert!(!v.eavesdropping_succeeded);
        assert!(!v.replay_succeeded);
        assert!(!v.impersonation_succeeded);
        assert_eq!(result.stats.activated, result.stats.onus);
        assert_eq!(result.stats.frames_delivered, result.stats.frames_sent);
        assert!(result.stats.replays_attempted > 0);
        assert_eq!(result.stats.rogues_attempted, result.stats.trees);
    }

    #[test]
    fn insecure_fleet_lets_all_three_attacks_through() {
        let cfg = FleetSimConfig {
            encrypt: false,
            certificate_admission: false,
            ..FleetSimConfig::default()
        };
        let v = run(&cfg).stats.verdicts();
        assert!(v.eavesdropping_succeeded);
        assert!(v.replay_succeeded);
        assert!(v.impersonation_succeeded);
    }

    #[test]
    fn log_is_canonically_ordered() {
        let result = run(&FleetSimConfig::default());
        let ordered = result
            .log
            .records
            .windows(2)
            .all(|w| (w[0].time_ns, w[0].tree, w[0].seq) < (w[1].time_ns, w[1].tree, w[1].seq));
        assert!(ordered);
        assert_eq!(result.stats.events, result.log.len() as u64);
    }

    #[test]
    fn worker_count_does_not_change_the_log() {
        let cfg = FleetSimConfig {
            trees: 5,
            onus_per_tree: 6,
            cycles: 5,
            ..FleetSimConfig::default()
        };
        let one = run_with(&cfg, &EngineOptions { workers: 1 }, &Telemetry::disabled());
        let three = run_with(&cfg, &EngineOptions { workers: 3 }, &Telemetry::disabled());
        assert_eq!(one.log, three.log);
        assert_eq!(one.stats, three.stats);
        assert_eq!(one.log.digest(), three.log.digest());
    }

    #[test]
    fn a_panicked_worker_fails_the_join() {
        let joined = std::panic::catch_unwind(|| {
            thread::scope(|scope| {
                let handles = vec![scope.spawn(|| 1u32), scope.spawn(|| panic!("shard failed"))];
                join_in_order(handles)
            })
        });
        assert!(joined.is_err());
        let in_order = thread::scope(|scope| {
            join_in_order((0..4u32).map(|w| scope.spawn(move || w)).collect())
        });
        assert_eq!(in_order, [0, 1, 2, 3]);
    }

    #[test]
    fn empty_fleet_is_fine() {
        let cfg = FleetSimConfig {
            trees: 0,
            onus_per_tree: 0,
            cycles: 0,
            ..FleetSimConfig::default()
        };
        let result = run(&cfg);
        assert!(result.log.is_empty());
        assert_eq!(result.stats.onus, 0);
    }
}
