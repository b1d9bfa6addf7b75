//! `subscriber_1500` and `subscriber_64`: secured subscriber traffic on
//! one 32-ONU tree, one TDMA cycle per unit.
//!
//! A cycle runs the DBA, seals the downstream burst at the OLT (GEM),
//! opens each ONU's frames at that ONU, carries the granted upstream
//! frames from the OLT to the edge over MACsec, and runs the cycle's
//! tenant syscall events through detection and correlation. An
//! attacker on the path replays one frame in 64 and flips a bit in one
//! frame in 256, in both directions.

use genio_netsec::macsec::{MacsecConfig, MacsecFrame, MacsecPeer};
use genio_netsec::NetsecError;
use genio_pon::frame::{DownstreamFrame, GemPort};
use genio_pon::security::GemCrypto;
use genio_pon::tdma::{
    compute_grants_into, BandwidthRequest, BatchGrants, DbaConfig, ServiceClass,
};
use genio_pon::topology::OnuId;
use genio_pon::PonError;
use genio_runtime::correlate::{correlate_traced, Incident};
use genio_runtime::events::{Event, EventKind};
use genio_runtime::falco::{Alert, Engine, RuleSetTier};
use genio_telemetry::{RingStats, Telemetry, TraceContext};

use crate::run::{alternate, export, Outcome, Pacer, Plan};
use crate::spans::{Recorder, Unit};
use crate::stats::{Digest, Rng};

/// Frame size and frames per ONU per direction.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Payload bytes per frame.
    pub frame: usize,
    /// Downstream frames per ONU per cycle; the upstream carries
    /// `min(per_onu, grant / frame)`.
    pub per_onu: usize,
}

/// Full-MTU frames: the AES-GCM byte kernels dominate.
pub const MTU: Shape = Shape {
    frame: 1500,
    per_onu: 2,
};

/// Minimum-size frames: per-frame fixed costs dominate.
pub const SMALL: Shape = Shape {
    frame: 64,
    per_onu: 16,
};

/// ONUs on the tree.
pub const ONUS: usize = 32;
/// Tenant syscall events per cycle.
pub const EVENTS: usize = 64;
/// Distinct cycle inputs, used round-robin.
const POOL: usize = 16;
/// Cycles of a smoke run.
const SMOKE_CYCLES: usize = 24;
const PORT_BASE: GemPort = 1024;
const REPLAY_EVERY: u64 = 64;
const TAMPER_EVERY: u64 = 256;
const CORRELATE_WINDOW_NS: u64 = 20_000;

fn port(j: usize) -> GemPort {
    PORT_BASE + j as GemPort
}

fn onu_id(j: usize) -> OnuId {
    j as OnuId + 1
}

/// Everything a cycle reads, generated from the seed during set-up.
struct Inputs {
    shape: Shape,
    requests: Vec<Vec<BandwidthRequest>>,
    payloads: Vec<u8>,
    events: Vec<Vec<Event>>,
    /// `(alerts, incidents)` each pool entry must produce.
    expected: Vec<(usize, usize)>,
}

impl Inputs {
    fn generate(seed: u64, shape: Shape) -> Result<Inputs, String> {
        let mut rng = Rng::new(seed, 0x5355_4253);
        let requests = (0..POOL)
            .map(|_| {
                (0..ONUS)
                    .map(|j| BandwidthRequest {
                        onu: onu_id(j),
                        // Every demand fits the cycle, so each ONU sends
                        // the same number of frames whatever the seed.
                        queued_bytes: 3_000 + rng.below(1_800),
                        class: match rng.below(4) {
                            0 => ServiceClass::Fixed,
                            1 => ServiceClass::Assured,
                            _ => ServiceClass::BestEffort,
                        },
                    })
                    .collect()
            })
            .collect();
        let mut payloads = vec![0u8; POOL * ONUS * shape.per_onu * shape.frame];
        rng.fill(&mut payloads);
        // Stamp each payload with its slot so no two are equal.
        for (slot, chunk) in payloads.chunks_mut(shape.frame).enumerate() {
            let stamp = (slot as u32).to_le_bytes();
            let n = stamp.len().min(chunk.len());
            chunk[..n].copy_from_slice(&stamp[..n]);
        }
        let events: Vec<Vec<Event>> = (0..POOL)
            .map(|p| tenant_events(&mut rng, p, p % 4 == 0))
            .collect();
        let oracle = Engine::with_tier(RuleSetTier::Default).map_err(|e| e.to_string())?;
        let mut expected = Vec::with_capacity(POOL);
        for batch in &events {
            let alerts = oracle.process_all(batch);
            let missed = batch
                .iter()
                .filter(|e| e.malicious_truth)
                .filter(|e| !alerts.iter().any(|a| a.event == **e))
                .count();
            if missed > 0 {
                return Err(format!("detection missed {missed} attack events"));
            }
            let incidents = correlate_traced(
                &alerts,
                CORRELATE_WINDOW_NS,
                &Telemetry::disabled(),
                TraceContext::default(),
            );
            expected.push((alerts.len(), incidents.len()));
        }
        Ok(Inputs {
            shape,
            requests,
            payloads,
            events,
            expected,
        })
    }

    fn payload(&self, p: usize, j: usize, f: usize) -> &[u8] {
        let slot = (p * ONUS + j) * self.shape.per_onu + f;
        let start = slot * self.shape.frame;
        self.payloads
            .get(start..start + self.shape.frame)
            .unwrap_or_default()
    }
}

/// 64 syscall events of one tenant: benign service activity, plus a
/// seven-step post-exploitation burst when `attack` is set.
fn tenant_events(rng: &mut Rng, p: usize, attack: bool) -> Vec<Event> {
    let tenant = format!("tenant-{}", p % 8);
    let ev = |ts: u64, process: &str, kind: EventKind, malicious: bool| Event {
        ts,
        process: process.to_string(),
        container: format!("{tenant}-c0"),
        tenant: tenant.clone(),
        kind,
        malicious_truth: malicious,
    };
    let burst_at = if attack {
        rng.below((EVENTS - 7) as u64) as usize
    } else {
        usize::MAX
    };
    let mut out = Vec::with_capacity(EVENTS);
    let mut ts = 0u64;
    while out.len() < EVENTS {
        ts += 1_000;
        if out.len() == burst_at {
            let burst: [(&str, EventKind); 7] = [
                (
                    "bash",
                    EventKind::Exec {
                        cmdline: "bash -i".into(),
                    },
                ),
                (
                    "bash",
                    EventKind::FileOpen {
                        path: "/etc/shadow".into(),
                        write: false,
                    },
                ),
                (
                    "bash",
                    EventKind::Connect {
                        addr: "203.0.113.66".into(),
                        port: 4444,
                    },
                ),
                ("bash", EventKind::SetUid { uid: 0 }),
                (
                    "insmod",
                    EventKind::ModuleLoad {
                        name: "rootkit".into(),
                    },
                ),
                ("gdb", EventKind::PtraceAttach { target_pid: 1 }),
                (
                    "bash",
                    EventKind::FileOpen {
                        path: "/usr/bin/sshd".into(),
                        write: true,
                    },
                ),
            ];
            for (step, (process, kind)) in burst.into_iter().enumerate() {
                out.push(ev(ts + step as u64, process, kind, true));
            }
            continue;
        }
        let benign = match rng.below(8) {
            0 => (
                "java",
                EventKind::Connect {
                    addr: "10.0.0.5".into(),
                    port: 5432,
                },
            ),
            1 | 2 => (
                "java",
                EventKind::FileOpen {
                    path: format!("/app/data/seg-{}.db", rng.below(64)),
                    write: false,
                },
            ),
            3 => (
                "java",
                EventKind::FileOpen {
                    path: "/app/logs/app.log".into(),
                    write: true,
                },
            ),
            4 => ("java", EventKind::Listen { port: 8443 }),
            5 => (
                "sh",
                EventKind::Exec {
                    cmdline: "sh -c /app/healthcheck.sh".into(),
                },
            ),
            6 => (
                "logrotate",
                EventKind::FileOpen {
                    path: "/etc/logrotate.d/app".into(),
                    write: true,
                },
            ),
            _ => (
                "java",
                EventKind::Connect {
                    addr: "10.0.0.9".into(),
                    port: 443,
                },
            ),
        };
        out.push(ev(ts, benign.0, benign.1, false));
    }
    out.truncate(EVENTS);
    out
}

/// Both ends of the tree and the edge, keyed from the seed.
struct World {
    telemetry: Telemetry,
    olt: GemCrypto,
    onus: Vec<GemCrypto>,
    uplink: MacsecPeer,
    edge: MacsecPeer,
    engine: Engine,
    dba: DbaConfig,
    grants: BatchGrants,
}

impl World {
    fn build(seed: u64) -> Result<World, String> {
        let mut rng = Rng::new(seed, 0x4b45_5953);
        let master = rng.bytes(32);
        let cak = rng.bytes(32);
        let telemetry = Telemetry::enabled();
        let mut olt = GemCrypto::new(&master);
        let mut onus = Vec::with_capacity(ONUS);
        for j in 0..ONUS {
            olt.establish_key(port(j), onu_id(j));
            let mut onu = GemCrypto::new(&master);
            onu.establish_key(port(j), onu_id(j));
            onus.push(onu);
        }
        let config = MacsecConfig::default();
        let uplink = MacsecPeer::new(0x0100, &config, &cak)
            .map_err(|e| e.to_string())?
            .with_telemetry(&telemetry);
        let edge = MacsecPeer::new(0x0200, &config, &cak)
            .map_err(|e| e.to_string())?
            .with_telemetry(&telemetry);
        let engine = Engine::with_tier(RuleSetTier::Default)
            .map_err(|e| e.to_string())?
            .instrument(&telemetry);
        Ok(World {
            telemetry,
            olt,
            onus,
            uplink,
            edge,
            engine,
            dba: DbaConfig::default(),
            grants: BatchGrants::new(),
        })
    }
}

/// The on-path attacker: replays one frame in 64 and flips a bit in one
/// in 256, at seed-chosen offsets that never coincide.
struct Attacker {
    next: u64,
    replay_at: u64,
    tamper_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Delivered as sent; indexes the sender's sealed frames.
    Deliver(usize),
    /// Bit-flipped in transit.
    Tampered,
    /// A second copy of the preceding frame.
    Replayed,
}

impl Attacker {
    fn new(rng: &mut Rng) -> Attacker {
        let replay_at = rng.below(REPLAY_EVERY);
        let tamper_at = (replay_at + REPLAY_EVERY / 2) % REPLAY_EVERY
            + REPLAY_EVERY * rng.below(TAMPER_EVERY / REPLAY_EVERY);
        Attacker {
            next: 0,
            replay_at,
            tamper_at,
        }
    }

    /// Sends one frame past the attacker: pushes it (and any replay)
    /// onto `wire` and their fates onto `fates`.
    fn pass<T: Clone>(
        &mut self,
        mut frame: T,
        sealed: usize,
        flip: impl FnOnce(&mut T),
        wire: &mut Vec<T>,
        fates: &mut Vec<Fate>,
    ) {
        let i = self.next;
        self.next += 1;
        if i % TAMPER_EVERY == self.tamper_at {
            flip(&mut frame);
            wire.push(frame);
            fates.push(Fate::Tampered);
        } else if i % REPLAY_EVERY == self.replay_at {
            wire.push(frame.clone());
            wire.push(frame);
            fates.push(Fate::Deliver(sealed));
            fates.push(Fate::Replayed);
        } else {
            wire.push(frame);
            fates.push(Fate::Deliver(sealed));
        }
    }
}

fn flip_first(bytes: &mut [u8]) {
    if let Some(b) = bytes.first_mut() {
        *b ^= 0x01;
    }
}

/// One direction of a cycle: what went on the wire and what came back,
/// kept for checking after the cycle's clock stops.
struct Leg<F, E> {
    /// Payloads `(onu, index)` of the frames the sender sealed, in order.
    src: Vec<(usize, usize)>,
    wire: Vec<F>,
    fates: Vec<Fate>,
    results: Vec<Result<Vec<u8>, E>>,
    /// Legitimate frames the sender failed to seal.
    seal_failures: u64,
}

impl<F, E> Leg<F, E> {
    fn with_capacity(frames: usize) -> Leg<F, E> {
        // Room for the attacker's replays without regrowing.
        let room = frames + frames / REPLAY_EVERY as usize + 2;
        Leg {
            src: Vec::with_capacity(frames),
            wire: Vec::with_capacity(room),
            fates: Vec::with_capacity(room),
            results: Vec::new(),
            seal_failures: 0,
        }
    }
}

/// Everything one cycle produced.
struct Cycle {
    pool: usize,
    down: Leg<DownstreamFrame, PonError>,
    up: Leg<MacsecFrame, NetsecError>,
    alerts: Vec<Alert>,
    incidents: Vec<Incident>,
}

/// One replica: inputs, both ends of the tree, and the attacker.
struct Replica {
    inputs: Inputs,
    world: World,
    down: Attacker,
    up: Attacker,
}

impl Replica {
    fn build(seed: u64, shape: Shape) -> Result<Replica, String> {
        let mut rng = Rng::new(seed, 0x4154_4b52);
        Ok(Replica {
            inputs: Inputs::generate(seed, shape)?,
            world: World::build(seed)?,
            down: Attacker::new(&mut rng),
            up: Attacker::new(&mut rng),
        })
    }
}

/// Runs `subscriber_1500` or `subscriber_64` on one replica per recorder.
pub fn run(
    seed: u64,
    shape: Shape,
    plan: &Plan,
    recs: &mut [Recorder],
) -> Result<Vec<Outcome>, String> {
    let mut outs = Vec::with_capacity(recs.len());
    let mut replicas = Vec::with_capacity(recs.len());
    for rec in recs.iter() {
        let mut out = Outcome::default();
        let mut replica = None;
        for _ in 0..plan.setups.max(1) {
            let t0 = rec.now_ns();
            let built = Replica::build(seed, shape)?;
            out.setup_ns.push(rec.now_ns().saturating_sub(t0));
            replica = Some(built);
        }
        replicas.push(replica.ok_or("no set-up ran")?);
        outs.push(out);
    }

    let pacer = Pacer::start(plan, SMOKE_CYCLES);
    while pacer.more(&outs) {
        let warm = pacer.is_warmup(&outs);
        let k = outs.first().map_or(0, |o| o.units);
        let order = alternate(
            k,
            recs.iter_mut()
                .zip(outs.iter_mut())
                .zip(replicas.iter_mut()),
        );
        for ((rec, out), r) in order {
            let unit = rec.begin("bench.cycle");
            let cycle = cycle(rec, &unit, r, k);
            let dur = rec.end(unit, !warm);
            out.unit(warm, dur);
            check(&r.inputs, &cycle, warm, dur, out);
        }
    }

    for ((rec, out), r) in recs.iter_mut().zip(outs.iter_mut()).zip(&replicas) {
        // The edge's own rejection counters must agree with the harness.
        let edge = &r.world.edge;
        for (name, field) in [
            ("netsec.macsec.rejected_replay", edge.rejected_replay),
            ("netsec.macsec.rejected_integrity", edge.rejected_integrity),
        ] {
            let seen = out.counters.get(name).copied().unwrap_or(0);
            if seen != field {
                out.wrong(format!("{name}: edge counted {field}, harness saw {seen}"));
            }
        }
        let unit = rec.begin("bench.export");
        let (export, _) = rec.call(&unit, "telemetry.export", || {
            export(&r.world.telemetry, RingStats::default())
        });
        rec.end(unit, true);
        out.check_export(&export);
    }
    Ok(outs)
}

fn cycle(rec: &mut Recorder, unit: &Unit, r: &mut Replica, k: usize) -> Cycle {
    let Replica {
        inputs,
        world: w,
        down: down_attacker,
        up: up_attacker,
    } = r;
    let shape = inputs.shape;
    let pool = k % POOL;
    let requests = inputs
        .requests
        .get(pool)
        .map(Vec::as_slice)
        .unwrap_or_default();
    rec.call(unit, "pon.dba", || {
        compute_grants_into(&w.dba, requests, &mut w.grants)
    });

    let mut down = Leg::with_capacity(ONUS * shape.per_onu);
    let mut items: Vec<(GemPort, OnuId, &[u8])> = Vec::with_capacity(ONUS * shape.per_onu);
    for j in 0..ONUS {
        for f in 0..shape.per_onu {
            down.src.push((j, f));
            items.push((port(j), onu_id(j), inputs.payload(pool, j, f)));
        }
    }
    let sealed = rec.call(unit, "pon.gem.seal", || {
        w.olt.encrypt_downstream_burst(&items)
    });
    // Each ONU's frames stay contiguous on the wire, replays included.
    let mut ends = [0usize; ONUS];
    let mut sealed = sealed.into_iter().enumerate();
    for end in ends.iter_mut() {
        for (i, result) in sealed.by_ref().take(shape.per_onu) {
            match result {
                Ok(frame) => down_attacker.pass(
                    frame,
                    i,
                    |fr| flip_first(&mut fr.payload),
                    &mut down.wire,
                    &mut down.fates,
                ),
                Err(_) => down.seal_failures += 1,
            }
        }
        *end = down.wire.len();
    }
    down.results.reserve(down.wire.len());
    let mut start = 0;
    for (onu, end) in w.onus.iter_mut().zip(ends) {
        let frames = down.wire.get(start..end).unwrap_or_default();
        let opened = rec.call(unit, "pon.gem.open", || onu.decrypt_many(frames));
        down.results.extend(opened);
        start = end;
    }

    let mut up = Leg::with_capacity(ONUS * shape.per_onu);
    let mut payloads: Vec<&[u8]> = Vec::with_capacity(ONUS * shape.per_onu);
    let up_pool = (pool + 1) % POOL;
    for (onu, bytes, _, _) in w.grants.iter() {
        let Some(j) = (onu as usize).checked_sub(1) else {
            continue;
        };
        for f in 0..shape.per_onu.min(bytes as usize / shape.frame) {
            up.src.push((j, f));
            payloads.push(inputs.payload(up_pool, j, f));
        }
    }
    match rec.call(unit, "netsec.macsec.protect", || {
        w.uplink.protect_many(&payloads)
    }) {
        Ok(frames) => {
            for (i, frame) in frames.into_iter().enumerate() {
                up_attacker.pass(
                    frame,
                    i,
                    |fr| flip_first(&mut fr.secure_data),
                    &mut up.wire,
                    &mut up.fates,
                );
            }
        }
        Err(_) => up.seal_failures += payloads.len() as u64,
    }
    up.results = rec.call(unit, "netsec.macsec.validate", || {
        w.edge.validate_many(&up.wire)
    });

    let events = inputs
        .events
        .get(pool)
        .map(Vec::as_slice)
        .unwrap_or_default();
    let alerts = rec.call(unit, "runtime.detect", || w.engine.process_all(events));
    let ctx = TraceContext::root(k as u64);
    let incidents = rec.call(unit, "runtime.correlate", || {
        correlate_traced(&alerts, CORRELATE_WINDOW_NS, &w.telemetry, ctx)
    });
    Cycle {
        pool,
        down,
        up,
        alerts,
        incidents,
    }
}

/// Checks one direction: every frame's outcome against its fate. Returns
/// how many legitimate frames arrived intact and whether none failed.
fn check_leg<'a, F, E: std::fmt::Debug>(
    leg: &Leg<F, E>,
    sent: impl Fn(usize, usize) -> &'a [u8],
    ciphertext: impl Fn(&F) -> &[u8],
    rejection: impl Fn(Fate, &E) -> Option<&'static str>,
    digest: &mut Digest,
    out: &mut Outcome,
) -> (u64, bool) {
    out.attempted += leg.seal_failures;
    out.failed += leg.seal_failures;
    let mut ok = leg.seal_failures == 0;
    if leg.results.len() != leg.fates.len() {
        out.wrong(format!(
            "{} results for {} frames",
            leg.results.len(),
            leg.fates.len()
        ));
        return (0, false);
    }
    let mut delivered = 0;
    for ((frame, fate), result) in leg.wire.iter().zip(&leg.fates).zip(&leg.results) {
        digest.tail(ciphertext(frame));
        match (*fate, result) {
            (Fate::Deliver(i), Ok(pt)) => {
                let expected = leg.src.get(i).map(|&(j, f)| sent(j, f));
                if expected == Some(pt.as_slice()) {
                    out.attempted += 1;
                    delivered += 1;
                } else {
                    out.wrong(format!("frame {i}: plaintext differs from what was sent"));
                }
            }
            (Fate::Deliver(_), Err(_)) => {
                out.attempted += 1;
                out.failed += 1;
                ok = false;
            }
            (fate, Err(e)) if rejection(fate, e).is_some() => {
                if let Some(counter) = rejection(fate, e) {
                    out.count(counter, 1);
                }
            }
            (fate, result) => out.wrong(format!("{fate:?} frame gave {result:?}")),
        }
    }
    (delivered, ok)
}

/// Checks every output of a cycle and folds it into the outcome.
fn check(inputs: &Inputs, c: &Cycle, warm: bool, dur_ns: u64, out: &mut Outcome) {
    let mut digest = Digest::default();
    let (down, down_ok) = check_leg(
        &c.down,
        |j, f| inputs.payload(c.pool, j, f),
        |frame| &frame.payload,
        |fate, e| match (fate, e) {
            (Fate::Tampered, PonError::DecryptFailed) => Some("pon.gem.rejected_tamper"),
            (Fate::Replayed, PonError::Replay) => Some("pon.gem.rejected_replay"),
            _ => None,
        },
        &mut digest,
        out,
    );
    let (up, up_ok) = check_leg(
        &c.up,
        |j, f| inputs.payload((c.pool + 1) % POOL, j, f),
        |frame| &frame.secure_data,
        |fate, e| match (fate, e) {
            (Fate::Tampered, NetsecError::IntegrityFailure) => {
                Some("netsec.macsec.rejected_integrity")
            }
            (Fate::Replayed, NetsecError::ReplayDetected { .. }) => {
                Some("netsec.macsec.rejected_replay")
            }
            _ => None,
        },
        &mut digest,
        out,
    );

    let expected = inputs.expected.get(c.pool).copied().unwrap_or_default();
    let got = (c.alerts.len(), c.incidents.len());
    if got != expected {
        out.wrong(format!(
            "detection gave {got:?} alerts/incidents, expected {expected:?}"
        ));
    }
    out.count("runtime.alerts", got.0 as u64);
    out.count("runtime.incidents", got.1 as u64);
    digest.word(got.0 as u64);
    digest.word(got.1 as u64);
    out.digest.word(digest.0);

    if !warm {
        out.items += down + up;
        if down_ok && up_ok {
            out.samples_ns.push(dur_ns);
        }
    }
}
