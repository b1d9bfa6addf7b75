//! Demonstrates telemetry v2's causal-trace determinism guarantee: the
//! same seed, a [`ManualClock`] and a pinned worker count yield a
//! byte-identical `genio-trace/v1` flight-recorder export, run after
//! run — thread interleaving never leaks into the canonical output.
//!
//! `scripts/verify.sh` runs this example twice and diffs the outputs as
//! the trace-determinism gate.
//!
//! ```sh
//! cargo run --example trace_determinism
//! ```

use genio::core::fleet::simulate_pon_fleet;
use genio::pon::engine::FleetSimConfig;
use genio::telemetry::{chrome_trace, validate_tree, Clock, ManualClock, Telemetry};

/// Workers are pinned: the shard span fan-out is part of the tree shape,
/// so determinism is *per worker count* (E-S2 separately proves the
/// simulation result itself is worker-count invariant).
const WORKERS: usize = 2;

fn traced_fleet_run() -> (String, genio::telemetry::TraceTreeStats) {
    let source = ManualClock::new();
    // Ring sized so nothing can drop — a dropped event would make the
    // export depend on scheduling.
    let telemetry = Telemetry::with_clock(Clock::manual(&source), 65_536);
    let config = FleetSimConfig {
        trees: 8,
        onus_per_tree: 16,
        cycles: 4,
        seed: 42,
        ..FleetSimConfig::default()
    };
    let report = simulate_pon_fleet(&config, WORKERS, &telemetry);
    assert!(report.result.stats.frames_sent > 0, "fleet simulated nothing");

    if let Some(ring) = telemetry.ring() {
        let stats = ring.stats();
        assert_eq!(stats.dropped, 0, "ring dropped events; export would be lossy");
    }
    let events = telemetry.drain_trace();
    let stats = match validate_tree(&events) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("exported span forest is malformed: {e}");
            std::process::exit(1);
        }
    };
    (chrome_trace(&events), stats)
}

fn main() {
    println!("telemetry v2 — causal trace determinism witness");
    println!("===============================================");

    let (export_a, stats) = traced_fleet_run();
    let (export_b, _) = traced_fleet_run();

    println!(
        "span forest: {} events ({} traced), {} root(s), max depth {}",
        stats.events, stats.traced, stats.roots, stats.max_depth
    );
    println!("export bytes: {}", export_a.len());
    println!("same-seed reruns byte-identical: {}", export_a == export_b);
    assert_eq!(export_a, export_b, "same-seed trace exports diverged");
    assert_eq!(stats.roots, 1, "one traced fleet run must form one tree");
    assert!(stats.max_depth >= 3, "expected run -> shard -> batch nesting");

    // The export itself, so two runs of this *binary* can be diffed.
    println!("\n{export_a}");
}
