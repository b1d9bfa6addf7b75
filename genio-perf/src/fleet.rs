//! `fleet_1m`: one full 1,048,576-ONU fleet simulation per unit.
//!
//! A unit is what a simulation user waits for: the engine run, the
//! merge, the log digest and the flight-recorder export, with product
//! telemetry on. Set-up computes the reference digest with telemetry
//! off; every timed run must reproduce it.

use genio_pon::engine::{merge_shards, run_shards, EngineOptions, FleetSimConfig};
use genio_telemetry::{RingStats, Telemetry};

use crate::run::{alternate, export, Outcome, Pacer, Plan};
use crate::spans::Recorder;

/// Fleet size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// PON trees.
    pub trees: u32,
    /// ONUs per tree.
    pub onus_per_tree: u32,
    /// TDMA cycles after activation.
    pub cycles: u32,
}

/// 16,384 trees × 64 ONUs.
pub const FULL: Shape = Shape {
    trees: 16_384,
    onus_per_tree: 64,
    cycles: 3,
};

/// The smoke fleet.
pub const SMOKE: Shape = Shape {
    trees: 64,
    onus_per_tree: 64,
    cycles: 3,
};

/// Fleet runs in a smoke run.
const SMOKE_RUNS: usize = 3;

/// The engine runs on the generator thread. With a worker per CPU on a
/// small shared host, each run waited for whichever shard a co-tenant
/// had slowed, and run times spread by 18–27% between runs.
const ONE_WORKER: EngineOptions = EngineOptions { workers: 1 };

fn config(shape: Shape, seed: u64) -> FleetSimConfig {
    FleetSimConfig {
        trees: shape.trees,
        onus_per_tree: shape.onus_per_tree,
        cycles: shape.cycles,
        seed,
        encrypt: true,
        certificate_admission: true,
        replay_every: 4,
        rogue_per_tree: true,
        greedy_every: 8,
    }
}

/// Runs `fleet_1m` on one replica per recorder.
pub fn run(seed: u64, plan: &Plan, recs: &mut [Recorder]) -> Result<Vec<Outcome>, String> {
    let shape = if plan.smoke { SMOKE } else { FULL };
    let cfg = config(shape, seed);
    let mut outs = Vec::with_capacity(recs.len());
    let mut reference = None;
    for rec in recs.iter() {
        let mut out = Outcome::default();
        for _ in 0..plan.setups.max(1) {
            let t0 = rec.now_ns();
            let digest = merge_shards(run_shards(&cfg, &ONE_WORKER, &Telemetry::disabled()))
                .log
                .digest();
            out.setup_ns.push(rec.now_ns().saturating_sub(t0));
            if reference.is_some_and(|r| r != digest) {
                return Err("reference runs disagree".to_string());
            }
            reference = Some(digest);
        }
        outs.push(out);
    }
    let telemetry: Vec<Telemetry> = recs.iter().map(|_| Telemetry::enabled()).collect();
    let mut rings = vec![RingStats::default(); recs.len()];

    let pacer = Pacer::start(plan, SMOKE_RUNS);
    while pacer.more(&outs) {
        let warm = pacer.is_warmup(&outs);
        let k = outs.first().map_or(0, |o| o.units);
        let replicas = recs
            .iter_mut()
            .zip(outs.iter_mut())
            .zip(telemetry.iter().zip(rings.iter_mut()));
        for ((rec, out), (telemetry, ring)) in alternate(k, replicas) {
            let unit = rec.begin("bench.fleet_run");
            let shards = rec.call(&unit, "pon.engine.run_shards", || {
                run_shards(&cfg, &ONE_WORKER, telemetry)
            });
            let result = rec.call(&unit, "pon.engine.merge_shards", || merge_shards(shards));
            let digest = rec.call(&unit, "pon.engine.digest", || result.log.digest());
            let (exported, now) = rec.call(&unit, "telemetry.export", || export(telemetry, *ring));
            let dur = rec.end(unit, !warm);
            out.unit(warm, dur);
            *ring = now;

            out.attempted += 1;
            out.check_export(&exported);
            let verdicts = result.stats.verdicts();
            if Some(digest) != reference {
                out.wrong(format!(
                    "fleet digest {digest:#x} differs from the telemetry-off reference run"
                ));
            } else if verdicts.eavesdropping_succeeded
                || verdicts.replay_succeeded
                || verdicts.impersonation_succeeded
            {
                out.wrong(format!("a T1 attack succeeded: {verdicts:?}"));
            } else if result.stats.activated != result.stats.onus {
                out.wrong(format!(
                    "{} of {} ONUs activated",
                    result.stats.activated, result.stats.onus
                ));
            } else if !warm {
                out.items += result.stats.onus;
                out.samples_ns.push(dur);
            }
            out.count("pon.engine.events", result.stats.events);
            out.digest.word(digest);
        }
    }
    Ok(outs)
}
