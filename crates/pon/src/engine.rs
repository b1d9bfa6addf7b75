//! Fleet-scale PON simulation: a sharded discrete-event engine.
//!
//! The object-per-ONU stepper in [`crate::reference`] is fine for one
//! tree with a handful of ONUs, but the paper's architecture serves
//! operator-scale fleets — thousands of PON trees, a million ONUs. This
//! module rebuilds the simulation core for that scale:
//!
//! * **A timeline known up front.** Every event is a pure function of
//!   `(seed, tree, ONU, cycle)`: each announcement falls inside the
//!   activation window, which ends where cycle 0 starts, and each replay
//!   lands [`REPLAY_OFFSET_NS`] into its cycle, before the next one
//!   starts. So a shard steps its timeline in two phases instead of
//!   draining a timer queue. *Activation* packs each of the shard's
//!   announcements into one `u64` sort key — from the top, the announce
//!   time (20 bits), the announcement's position in `(tree, index)`
//!   order (25 bits), where the tree's rogue takes index `n`, after its
//!   subscribers, and the ONU's equalization delay (19 bits; the
//!   rogue's is 0) — sorts the keys once and emits them in that order.
//!   Positions are unique, so the delay never decides the order; it
//!   rides in the key so that each ONU's round trip is hashed once, in
//!   tree order, to find the tree's farthest ONU. *Cycles* loops over
//!   the TDMA cycles and emits every tree's grants at the cycle start,
//!   then, on a replay cycle, every tree's replay.
//! * **Per-tree state, and one class per ONU.** Every ONU is active
//!   from cycle 0 on, so a shard keeps no per-ONU activation state: per
//!   tree it keeps the event sequence number and the fairness partials.
//!   The one per-ONU table is each ONU's service class (one byte),
//!   hashed once for the whole run after the activation keys are freed.
//! * **Per-tree shards on worker threads.** Trees are independent, so
//!   contiguous tree ranges run on `std::thread` workers. Determinism
//!   is by construction: per-tree RNG streams are split from the seed
//!   ([`mix64`]), events carry a per-tree sequence number, and the
//!   merged log is canonically ordered by `(time, tree, seq)` — the
//!   same fleet at 1, 2 or 8 workers yields a byte-identical log. Both
//!   phases emit a shard's log already in that order, into a buffer
//!   sized once from the closed-form event count, so the merge never
//!   sorts: one shard's log becomes the result as it is, and several
//!   are k-way merged ([`merge_shards`]).
//! * **Batched TDMA.** Each cycle computes one tree's whole grant
//!   schedule through [`compute_grants_lazy`] into reusable buffers,
//!   and hashes an ONU's demand only when the DBA reads it: once the
//!   Fixed and Assured passes fill the cycle, the rest go unread.
//!
//! The engine is pinned to the legacy object-per-ONU semantics by
//! [`crate::reference`] and the differential harness in
//! `tests/engine_differential.rs`: identical activation sequences,
//! grant schedules and attack verdicts, event for event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::thread;

use crate::tdma::{compute_grants_lazy, jain_fairness, BatchGrants, DbaConfig, ServiceClass};
use crate::topology::propagation_delay_ns;
use genio_telemetry::{Telemetry, TraceContext};

/// Window (ns) within which every ONU announces itself for activation.
pub const ACTIVATION_WINDOW_NS: u64 = 1_000_000;

/// TDMA cycle period (ns). Matches `DbaConfig::default().cycle_ns`.
pub const CYCLE_NS: u64 = 125_000;

/// Offset (ns) after a cycle start at which the replay attacker
/// re-injects its captured frame.
pub const REPLAY_OFFSET_NS: u64 = 60_000;

// A shard emits a cycle's replays before the next cycle's grants.
const _: () = assert!(REPLAY_OFFSET_NS < CYCLE_NS);

/// Low bits of an activation sort key: the ONU's equalization delay
/// (ns). Every round trip the model builds is below 2^19 ns, and so is
/// every delay (pinned by a test over every drop-fiber length).
const DELAY_BITS: u32 = 19;
const DELAY_MASK: u64 = (1 << DELAY_BITS) - 1;

/// Middle bits of an activation sort key: the announcement's position in
/// the shard's `(tree, index)` order. The announce time takes the bits
/// above, so one shard sorts at most 2^25 announcements ([`shard_count`]
/// cuts the fleet to keep it there, and [`run_shards`] refuses a tree
/// that alone holds more).
const POSITION_BITS: u32 = 25;
const POSITION_MASK: u64 = (1 << POSITION_BITS) - 1;

// Every announce time fits the 20 bits above the position.
const _: () = assert!(ACTIVATION_WINDOW_NS <= 1 << 20);
const _: () = assert!(20 + POSITION_BITS + DELAY_BITS == u64::BITS);

/// Most announcements one shard may sort: its position field's range. A
/// tree's announcements never span two shards, so one tree may make no
/// more (a real PON tree serves at most a few hundred ONUs).
const MAX_SHARD_ANNOUNCES: u64 = 1 << POSITION_BITS;

/// An activation sort key: announce time, then position, then delay.
/// Clamping the delay keeps it out of the position bits; every delay the
/// model builds fits its field unclamped.
fn activation_key(time_ns: u64, position: u64, delay_ns: u64) -> u64 {
    (time_ns << (POSITION_BITS + DELAY_BITS)) | (position << DELAY_BITS) | delay_ns.min(DELAY_MASK)
}

/// Trunk fiber from OLT to splitter (m), uniform across the fleet.
pub const TRUNK_M: u32 = 10_000;

const TAG_ANNOUNCE: u64 = 0x414e_4e4f_554e_4345;
const TAG_ROGUE: u64 = 0x0052_4f47_5545_0000;
const TAG_FIBER: u64 = 0x0046_4942_4552_0000;
const TAG_DEMAND: u64 = 0x0044_454d_414e_4400;
const TAG_CLASS: u64 = 0x0043_4c41_5353_0000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`: what FNV-1a does to a hash over
/// `k` zero bytes.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds the eight little-endian bytes of `v` into the FNV-1a hash `h`,
/// bit-identical to folding them one at a time. A zero byte's step is
/// only `h *= FNV_PRIME`, so the bytes above `v`'s highest non-zero byte
/// fold into one multiply by a power of the prime. Log words are small
/// (times below 2^21, trees below 2^14), so most of a word's eight
/// steps collapse into that one multiply.
fn fnv_word(mut h: u64, v: u64) -> u64 {
    let zero_bytes = (v.leading_zeros() / 8) as usize;
    for b in v.to_le_bytes().into_iter().take(8 - zero_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h.wrapping_mul(PRIME_POW.get(zero_bytes).copied().unwrap_or(1))
}

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

/// Trace slots: shard spans, the two phase spans of a shard and the
/// platform merge each derive child span IDs from disjoint slots, so
/// spans from different phases can never collide.
const TRACE_SLOT_SHARD: u64 = 0x5348_4152_4400_0000; // "SHARD"
const TRACE_SLOT_ACTIVATION: u64 = 0x4143_5449_5600_0000; // "ACTIV"
const TRACE_SLOT_CYCLES: u64 = 0x4359_434c_4500_0000; // "CYCLE"

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
    rtt_over_drop_ns(drop_fiber_m(tree, onu))
}

/// Round-trip time (ns) over the trunk and a `drop_m`-metre drop fiber.
fn rtt_over_drop_ns(drop_m: u32) -> u64 {
    propagation_delay_ns(u64::from(drop_m) + u64::from(TRUNK_M)) * 2
}

/// FNV-1a digest of a grant schedule, as produced by either the batched
/// engine path or the reference `compute_map` path: the little-endian
/// bytes of each grant's `(onu, bytes, start_ns, duration_ns)`, in order.
pub fn grants_digest(grants: impl Iterator<Item = (u32, u64, u64, u64)>) -> u64 {
    grants.fold(FNV_OFFSET, |h, (onu, bytes, start_ns, duration_ns)| {
        [u64::from(onu), bytes, start_ns, duration_ns]
            .into_iter()
            .fold(h, fnv_word)
    })
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
    /// identity the determinism gates compare. Each record contributes
    /// the little-endian bytes of `(time_ns, tree, seq, kind, a, b, c)`
    /// as seven `u64` words; the zero bytes above a word's highest
    /// non-zero byte fold into one multiply.
    pub fn digest(&self) -> u64 {
        self.records.iter().fold(FNV_OFFSET, |h, r| {
            [
                r.time_ns,
                u64::from(r.tree),
                u64::from(r.seq),
                r.kind.code(),
                r.a,
                r.b,
                r.c,
            ]
            .into_iter()
            .fold(h, fnv_word)
        })
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
    /// result is identical for any value — only wall time changes. A
    /// shard sorts at most 2^25 announcements, so a fleet with more
    /// than that per worker runs more shards (threads) than workers.
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
/// There is one shard per worker, and more only for a fleet so large
/// that a shard would hold over 2^25 announcements: such a fleet runs
/// one thread per shard, more threads than workers.
///
/// # Panics
///
/// Panics if one tree makes more than 2^25 announcements (a tree of
/// over 33 million subscribers), which no shard can sort.
pub fn run_shards(
    config: &FleetSimConfig,
    options: &EngineOptions,
    telemetry: &Telemetry,
) -> Vec<ShardOutput> {
    assert!(
        announces_per_tree(config) <= MAX_SHARD_ANNOUNCES,
        "a tree of {} subscribers overflows the activation key",
        config.onus_per_tree
    );
    let root = trace_root(config.seed);
    let _run_span = telemetry.span_at("pon.fleet.run", root);
    let auto = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let requested = if options.workers == 0 { auto } else { options.workers };
    let workers = u32::try_from(requested).unwrap_or(u32::MAX);
    let shards = shard_count(config.trees, announces_per_tree(config), workers);

    if shards <= 1 {
        let ctx = root.child(TRACE_SLOT_SHARD).with_shard(0);
        return vec![run_shard(config, 0, config.trees, telemetry, ctx)];
    }

    let base = config.trees / shards;
    let rem = config.trees % shards;
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards as usize);
        let mut start = 0u32;
        for w in 0..shards {
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

/// Announcements per tree: its subscribers, plus its rogue if any.
fn announces_per_tree(cfg: &FleetSimConfig) -> u64 {
    u64::from(cfg.onus_per_tree) + u64::from(cfg.rogue_per_tree)
}

/// Shards `trees` trees of `per_tree` announcements each are cut into:
/// `workers`, or more where that many would leave a shard more than
/// 2^25 announcements to sort; at least one, and at most one per tree.
/// [`run_shards`] splits the trees as evenly as possible, so the largest
/// shard holds `⌈trees / shards⌉`: within the limit whenever one tree
/// is (`per_tree <= 2^25`, which [`run_shards`] checks).
fn shard_count(trees: u32, per_tree: u64, workers: u32) -> u32 {
    let trees_per_shard = (MAX_SHARD_ANNOUNCES / per_tree.max(1)).max(1);
    let needed = u64::from(trees).div_ceil(trees_per_shard);
    workers
        .max(u32::try_from(needed).unwrap_or(u32::MAX))
        .clamp(1, trees.max(1))
}

/// Events a shard of `trees` trees logs, in closed form: every
/// announcement, one grant event per tree and cycle, and one replay
/// per tree and replay cycle (`k % replay_every == 0`, trees with
/// subscribers only). `None` when the count overflows.
fn shard_events(cfg: &FleetSimConfig, trees: u32) -> Option<usize> {
    let trees = u64::from(trees);
    let announces = trees.checked_mul(announces_per_tree(cfg))?;
    let grants = trees.checked_mul(u64::from(cfg.cycles))?;
    let replays = if cfg.replay_every > 0 && cfg.onus_per_tree > 0 {
        trees.checked_mul(u64::from(cfg.cycles.div_ceil(cfg.replay_every)))?
    } else {
        0
    };
    usize::try_from(announces.checked_add(grants)?.checked_add(replays)?).ok()
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
/// log and aggregate stats. Every shard log is already in canonical
/// order and the shards own disjoint tree ranges, so nothing is sorted:
/// a single shard's log becomes the result as it is, and several are
/// k-way merged into one buffer of the exact size. Per-tree fairness
/// sums are folded sequentially in tree order, so the f64 result is
/// bitwise identical for every shard count.
pub fn merge_shards(shards: Vec<ShardOutput>) -> FleetRunResult {
    let mut stats = FleetStats::default();
    let mut logs = Vec::with_capacity(shards.len());
    for shard in shards {
        stats.absorb(&shard.stats);
        for (sum, cycles) in shard.tree_fairness {
            stats.fairness_sum += sum;
            stats.fairness_cycles += cycles;
        }
        logs.push(shard.log);
    }
    let records = merge_logs(logs);
    stats.events = records.len() as u64;
    FleetRunResult {
        log: EventLog { records },
        stats,
    }
}

/// A record's place in the canonical order: `(time_ns, tree, seq)`.
/// Unique per record: a tree belongs to one shard and numbers its own
/// events.
type OrderKey = (u64, u32, u32);

fn order_key(r: &EventRecord) -> OrderKey {
    (r.time_ns, r.tree, r.seq)
}

/// Merges canonically ordered logs into one: a heap holds each log's
/// next key, and the least one's record moves next.
fn merge_logs(mut logs: Vec<Vec<EventRecord>>) -> Vec<EventRecord> {
    if logs.len() <= 1 {
        return logs.pop().unwrap_or_default();
    }
    let mut records = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    let mut heads: Vec<&[EventRecord]> = logs.iter().map(Vec::as_slice).collect();
    let mut heap: BinaryHeap<Reverse<(OrderKey, usize)>> = heads
        .iter()
        .enumerate()
        .filter_map(|(i, head)| head.first().map(|r| Reverse((order_key(r), i))))
        .collect();
    while let Some(Reverse((_, i))) = heap.pop() {
        let Some(head) = heads.get_mut(i) else {
            continue;
        };
        let Some((first, rest)) = head.split_first() else {
            continue;
        };
        records.push(*first);
        *head = rest;
        if let Some(r) = rest.first() {
            heap.push(Reverse((order_key(r), i)));
        }
    }
    records
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
    let trees = tree_start..tree_end;
    // Per-tree state, indexed by `tree - tree_start`.
    let mut tree_seq = vec![0u32; trees.len()];
    let mut fairness = vec![(0.0f64, 0u64); trees.len()];
    let mut log: Vec<EventRecord> =
        Vec::with_capacity(shard_events(cfg, tree_end - tree_start).unwrap_or(0));
    let mut stats = FleetStats {
        trees: u64::from(tree_end - tree_start),
        onus: u64::from(tree_end - tree_start) * u64::from(n),
        ..FleetStats::default()
    };

    {
        let _phase_span =
            telemetry.span_at("pon.shard.activation", ctx.child(TRACE_SLOT_ACTIVATION));
        // One key per announcement: the time above its position in
        // (tree, index) order, above the ONU's equalization delay. The
        // rogue takes index `n`, so same-nanosecond announcements break
        // by tree, then by ONU index, with the rogue last. Each tree's
        // round trips are hashed once into `rtts` to find its farthest
        // ONU, the equalization reference.
        let per_tree = announces_per_tree(cfg);
        let mut announces: Vec<u64> = Vec::with_capacity(
            usize::try_from(per_tree * u64::from(tree_end - tree_start)).unwrap_or(0),
        );
        let mut rtts: Vec<u64> = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
        let mut position = 0u64;
        for tree in trees.clone() {
            rtts.clear();
            rtts.extend((0..n).map(|onu| onu_rtt_ns(tree, onu)));
            let farthest = rtts.iter().copied().max().unwrap_or(0);
            for (onu, &rtt) in (0..n).zip(&rtts) {
                let time_ns = announce_ns(cfg.seed, tree, onu);
                announces.push(activation_key(time_ns, position, farthest - rtt));
                position += 1;
            }
            if cfg.rogue_per_tree {
                let time_ns = rogue_announce_ns(cfg.seed, tree);
                announces.push(activation_key(time_ns, position, 0));
                position += 1;
            }
        }
        announces.sort_unstable();
        for key in announces {
            let time_ns = key >> (POSITION_BITS + DELAY_BITS);
            let position = (key >> DELAY_BITS) & POSITION_MASK;
            let (Some(lt), Some(index)) = (
                position.checked_div(per_tree),
                position.checked_rem(per_tree),
            ) else {
                continue;
            };
            let (Ok(lt), Ok(index)) = (u32::try_from(lt), u32::try_from(index)) else {
                continue;
            };
            let tree = tree_start + lt;
            let Some(seq) = usize::try_from(lt).ok().and_then(|lt| tree_seq.get_mut(lt)) else {
                continue;
            };
            let (kind, a, b, c) = if index < n {
                stats.activated += 1;
                (EventKind::Activation, u64::from(index), 0, key & DELAY_MASK)
            } else {
                stats.rogues_attempted += 1;
                // The rogue clones subscriber 0's serial with forged key
                // evidence: a serial allowlist (M4 off) admits it as the
                // victim; certificate admission rejects the forged chain.
                // With no subscribers there is no serial to clone, so
                // admission always fails.
                let admitted = !cfg.certificate_admission && n > 0;
                if admitted {
                    stats.rogues_admitted += 1;
                }
                let (b, c) = if admitted { (0, 1) } else { (1, 0) };
                (EventKind::RogueAttempt, u64::from(n), b, c)
            };
            log.push(EventRecord {
                time_ns,
                tree,
                seq: *seq,
                kind,
                a,
                b,
                c,
            });
            *seq += 1;
        }
        events_ctr.incr(log.len() as u64);
    }

    {
        let _phase_span = telemetry.span_at("pon.shard.cycles", ctx.child(TRACE_SLOT_CYCLES));
        let activation_events = log.len();
        let dba = DbaConfig::default();
        let mut batch = BatchGrants::new();
        // Every ONU's service class, hashed once for the whole run (one
        // byte per ONU, allocated after the activation keys are freed).
        let per_tree_onus = usize::try_from(n).unwrap_or(0);
        let mut classes: Vec<ServiceClass> = Vec::with_capacity(per_tree_onus * trees.len());
        for tree in trees.clone() {
            classes.extend((0..n).map(|onu| service_class(cfg.seed, tree, onu)));
        }
        // ONU `i` of a tree is ONU id `i + 1`, as in `reference`.
        let index = |i: usize| u32::try_from(i).unwrap_or(u32::MAX);
        for k in 0..cfg.cycles {
            let time_ns = cycle_start_ns(k);
            // Every ONU announced before cycle 0, so every ONU requests;
            // the DBA hashes a demand only when it reads it.
            let mut tree_classes = classes.as_slice();
            for ((tree, seq), acc) in trees.clone().zip(&mut tree_seq).zip(&mut fairness) {
                let (own, rest) = tree_classes
                    .split_at_checked(per_tree_onus)
                    .unwrap_or_default();
                tree_classes = rest;
                compute_grants_lazy(
                    &dba,
                    own.len(),
                    |i| {
                        let class = own.get(i).copied().unwrap_or(ServiceClass::BestEffort);
                        (index(i).saturating_add(1), class)
                    },
                    |i| demand_bytes(cfg.seed, tree, k, index(i), cfg.greedy_every),
                    &mut batch,
                );
                let granted = batch.total_bytes();
                stats.frames_sent += u64::from(n);
                stats.granted_bytes += granted;
                if let Some(f) = jain_fairness(batch.bytes.iter().copied()) {
                    acc.0 += f;
                    acc.1 += 1;
                }
                log.push(EventRecord {
                    time_ns,
                    tree,
                    seq: *seq,
                    kind: EventKind::CycleGrants,
                    a: u64::from(k),
                    b: grants_digest(batch.iter()),
                    c: granted,
                });
                *seq += 1;
            }
            if cfg.replay_every > 0 && k % cfg.replay_every == 0 && n > 0 {
                // Replayed downstream frames carry an already-used
                // counter: with encryption on, the victim's replay window
                // rejects them; cleartext has no freshness check, so the
                // replay lands.
                let accepted = !cfg.encrypt;
                for (tree, seq) in trees.clone().zip(&mut tree_seq) {
                    stats.replays_attempted += 1;
                    if accepted {
                        stats.replays_accepted += 1;
                    }
                    log.push(EventRecord {
                        time_ns: time_ns + REPLAY_OFFSET_NS,
                        tree,
                        seq: *seq,
                        kind: EventKind::Replay,
                        a: u64::from(k),
                        b: if accepted { 0 } else { 1 },
                        c: u64::from(k),
                    });
                    *seq += 1;
                }
            }
        }
        events_ctr.incr((log.len() - activation_events) as u64);
    }

    frames_ctr.incr(stats.frames_sent);
    stats.frames_delivered = stats.frames_sent;
    stats.attacker_observed = stats.frames_sent;
    stats.attacker_readable = if cfg.encrypt { 0 } else { stats.frames_sent };

    ShardOutput {
        log,
        stats,
        tree_fairness: fairness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genio_testkit::prelude::*;

    /// Byte-at-a-time FNV-1a over a word's little-endian bytes: the
    /// oracle for [`fnv_word`].
    fn fnv_bytes(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn fnv_word_matches_the_byte_oracle_on_edge_words() {
        let mut words = vec![0, 1, 0xff, 0x100, u64::MAX, 1 << 63];
        // One non-zero byte at every position.
        for pos in 0..8 {
            words.extend([1u64, 0x5a, 0xff].map(|b| b << (8 * pos)));
        }
        for h in [FNV_OFFSET, 0, 1, u64::MAX, mix64(3)] {
            for &v in &words {
                assert_eq!(fnv_word(h, v), fnv_bytes(h, v), "word {v:#x} from {h:#x}");
            }
        }
    }

    property! {
        /// Drawn words, shifted down so that every count of leading
        /// zero bytes occurs.
        fn fnv_word_matches_the_byte_oracle(h in any_u64(), v in any_u64(), shift in 0u32..64) {
            prop_assert_eq!(fnv_word(h, v), fnv_bytes(h, v));
            prop_assert_eq!(fnv_word(h, v >> shift), fnv_bytes(h, v >> shift));
        }
    }

    #[test]
    fn digests_equal_the_byte_oracle() {
        let result = run(&FleetSimConfig::default());
        let oracle = result.log.records.iter().fold(FNV_OFFSET, |h, r| {
            [
                r.time_ns,
                u64::from(r.tree),
                u64::from(r.seq),
                r.kind.code(),
                r.a,
                r.b,
                r.c,
            ]
            .into_iter()
            .fold(h, fnv_bytes)
        });
        assert_eq!(result.log.digest(), oracle);
        let grants = [
            (1, 0, 0, 0),
            (2, 9_000, 0, 7_200),
            (u32::MAX, u64::MAX, 1, 1 << 40),
        ];
        let oracle = grants
            .iter()
            .fold(FNV_OFFSET, |h, &(onu, bytes, start, dur)| {
                [u64::from(onu), bytes, start, dur]
                    .into_iter()
                    .fold(h, fnv_bytes)
            });
        assert_eq!(grants_digest(grants.into_iter()), oracle);
    }

    /// `(len, capacity, closed form)` of each shard's log.
    fn shard_log_sizes(cfg: &FleetSimConfig, workers: usize) -> Vec<(usize, usize, Option<usize>)> {
        run_shards(cfg, &EngineOptions { workers }, &Telemetry::disabled())
            .iter()
            .map(|shard| {
                let trees = u32::try_from(shard.stats.trees).unwrap_or(u32::MAX);
                (
                    shard.log.len(),
                    shard.log.capacity(),
                    shard_events(cfg, trees),
                )
            })
            .collect()
    }

    #[test]
    fn shard_logs_are_sized_once_at_the_edges() {
        let base = FleetSimConfig {
            trees: 3,
            onus_per_tree: 5,
            cycles: 6,
            ..FleetSimConfig::default()
        };
        let edges = [
            FleetSimConfig { cycles: 0, ..base },
            FleetSimConfig {
                replay_every: 0,
                ..base
            },
            FleetSimConfig {
                rogue_per_tree: false,
                ..base
            },
            FleetSimConfig {
                onus_per_tree: 0,
                ..base
            },
            FleetSimConfig {
                onus_per_tree: 0,
                rogue_per_tree: false,
                cycles: 0,
                ..base
            },
            FleetSimConfig { trees: 0, ..base },
            base,
        ];
        for cfg in edges {
            for workers in [1, 2, 3] {
                for (len, capacity, closed_form) in shard_log_sizes(&cfg, workers) {
                    assert_eq!(Some(len), closed_form, "{cfg:?} at {workers} workers");
                    assert_eq!(capacity, len, "{cfg:?} at {workers} workers");
                }
            }
        }
    }

    property! {
        /// Every shard's log ends exactly full: its length and capacity
        /// both equal the closed form it was sized from.
        fn shard_logs_are_sized_once(
            shape in (0u32..5, 0u32..6, 0u32..7, 0u32..4),
            flags in (any_bool(), any_bool(), 1usize..4)
        ) {
            let ((trees, onus_per_tree, cycles, replay_every), (rogue_per_tree, encrypt, workers)) =
                (shape, flags);
            let cfg = FleetSimConfig {
                trees,
                onus_per_tree,
                cycles,
                replay_every,
                rogue_per_tree,
                encrypt,
                ..FleetSimConfig::default()
            };
            for (len, capacity, closed_form) in shard_log_sizes(&cfg, workers) {
                prop_assert_eq!(Some(len), closed_form);
                prop_assert_eq!(capacity, len);
            }
        }
    }

    #[test]
    fn shard_count_keeps_every_shard_within_the_position_field() {
        const LIMIT: u64 = MAX_SHARD_ANNOUNCES;
        // Fleets that fit take the worker count, within 1..=trees.
        assert_eq!(shard_count(16_384, 65, 1), 1);
        assert_eq!(shard_count(16_384, 65, 2), 2);
        assert_eq!(shard_count(5, 7, 3), 3);
        assert_eq!(shard_count(2, 7, 8), 2);
        assert_eq!(shard_count(3, 0, 0), 1);
        assert_eq!(shard_count(0, 0, 4), 1);
        // Exactly 2^25 announcements fit one shard; one tree more does not.
        assert_eq!(shard_count(1 << 5, 1 << 20, 1), 1);
        assert_eq!(shard_count((1 << 5) + 1, 1 << 20, 1), 2);
        assert_eq!(shard_count((1 << 5) + 1, 1 << 20, 5), 5);
        assert_eq!(shard_count(1, LIMIT, 1), 1);
        assert_eq!(shard_count(2, LIMIT, 1), 2);
        // 2^20 trees of 65 announcements need three shards at one worker.
        assert_eq!(shard_count(1 << 20, 65, 1), 3);
        // The largest fleets: the largest shard holds ⌈trees / shards⌉
        // trees, and its announcements still fit the field, for every
        // tree size `run_shards` accepts.
        for trees in [u32::MAX, 1 << 31, 12_345_678] {
            for per_tree in [1u64, 65, 1 << 20, (1 << 20) + 1, LIMIT - 1, LIMIT] {
                for workers in [1, 2, 7, 1 << 20] {
                    let shards = shard_count(trees, per_tree, workers);
                    assert!(shards >= workers.min(trees) && shards <= trees);
                    let largest = u64::from(trees.div_ceil(shards)) * per_tree;
                    assert!(
                        largest <= LIMIT,
                        "{trees} trees x {per_tree}: {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn a_tree_too_large_for_the_key_is_refused() {
        let cfg = FleetSimConfig {
            trees: 1,
            onus_per_tree: 1 << POSITION_BITS,
            cycles: 0,
            ..FleetSimConfig::default()
        };
        let refused = std::panic::catch_unwind(|| {
            run_shards(&cfg, &EngineOptions { workers: 1 }, &Telemetry::disabled())
        });
        assert!(refused.is_err());
    }

    #[test]
    fn every_equalization_delay_fits_its_key_field() {
        // Every length `drop_fiber_m` can return (200..=29_999 m). A
        // delay is the farthest round trip minus one's own, so none
        // exceeds the largest round trip.
        let largest = (200..30_000)
            .map(rtt_over_drop_ns)
            .max()
            .unwrap_or(u64::MAX);
        assert_eq!(largest, 392_146);
        assert!(largest <= DELAY_MASK, "round trip {largest} ns");
        // The key keeps the largest delay whole, below the largest
        // position and announce time.
        let key = activation_key(ACTIVATION_WINDOW_NS - 1, POSITION_MASK, largest);
        assert_eq!(key & DELAY_MASK, largest);
        assert_eq!((key >> DELAY_BITS) & POSITION_MASK, POSITION_MASK);
        assert_eq!(
            key >> (POSITION_BITS + DELAY_BITS),
            ACTIVATION_WINDOW_NS - 1
        );
    }

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
            .all(|w| order_key(&w[0]) < order_key(&w[1]));
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
