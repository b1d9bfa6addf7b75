//! Observability dossier: drive every instrumented subsystem — the full
//! attack campaign plus the PON, crypto, netsec, runtime and
//! orchestrator hot paths — against one shared telemetry handle, then
//! print the per-subsystem latency/counter dossier and both exporter
//! views (`genio-telemetry/v1` JSON and Prometheus text).
//!
//! ```sh
//! cargo run --example observability_report
//! ```

use genio::core::fleet::{Fleet, FleetConfig};
use genio::core::scenario::{run_campaign_instrumented, CampaignConfig};
use genio::crypto::gcm::{AesGcm, NONCE_LEN};
use genio::netsec::macsec::{MacsecConfig, MacsecPeer};
use genio::netsec::onboarding::{onboard_instrumented, DeviceClass, Enrollment};
use genio::orchestrator::admission::{evaluate_instrumented, AdmissionLevel};
use genio::orchestrator::cluster::Cluster;
use genio::orchestrator::scheduler::schedule_instrumented;
use genio::orchestrator::workload::PodSpec;
use genio::pon::engine::{run_with, EngineOptions, FleetSimConfig};
use genio::runtime::correlate::correlate_instrumented;
use genio::runtime::events::mixed_trace;
use genio::runtime::falco::{Engine, RuleSetTier};
use genio::telemetry::{chrome_trace, install_panic_dump, validate_tree, Snapshot, Telemetry};

/// Every instrumented crate and the metric prefix its names carry.
const SUBSYSTEMS: [&str; 6] = ["pon", "crypto", "netsec", "runtime", "orchestrator", "core"];

fn main() {
    let telemetry = Telemetry::enabled();

    // Flight recorder: if anything below panics, the buffered span
    // events are dumped as Perfetto-loadable JSON before the process
    // dies — the post-mortem view of what the run was doing.
    let dump_path = trace_dump_path();
    install_panic_dump(&telemetry, &dump_path);

    // core: the full attack campaign plus fleet provisioning.
    let report = run_campaign_instrumented(&CampaignConfig::default(), &telemetry);
    let fleet = Fleet::provision_instrumented(&FleetConfig::default(), &telemetry);
    println!(
        "campaign: {} threat rows ({} nodes provisioned)",
        report.rows.len(),
        fleet.nodes.len()
    );

    // pon: a fleet engine run with an active replay attacker.
    let stats = run_with(
        &FleetSimConfig::default(),
        &EngineOptions { workers: 1 },
        &telemetry,
    )
    .stats;
    println!(
        "pon fleet: {} frames sent, {} delivered, {} replays attempted",
        stats.frames_sent, stats.frames_delivered, stats.replays_attempted
    );

    // crypto: GEM payload seal/open round-trips.
    let gcm = AesGcm::new(b"0123456789abcdef")
        .expect("16-byte key")
        .instrument(&telemetry);
    let nonce = [7u8; NONCE_LEN];
    for i in 0..32u8 {
        let sealed = gcm.seal(&nonce, &[i; 48], b"gem");
        let opened = gcm.open(&nonce, &sealed, b"gem").expect("round-trip");
        assert_eq!(opened, [i; 48]);
    }

    // netsec: MACsec frames (including a replay) and the onboarding
    // handshake.
    let cfg = MacsecConfig::default();
    let mut olt = MacsecPeer::new(0xA, &cfg, b"cak")
        .expect("peer")
        .with_telemetry(&telemetry);
    let mut onu = MacsecPeer::new(0xB, &cfg, b"cak")
        .expect("peer")
        .with_telemetry(&telemetry);
    for i in 0..16u8 {
        let frame = olt.protect(&[i; 32]).expect("protect");
        onu.validate(&frame).expect("validate");
        if i == 7 {
            assert!(onu.validate(&frame).is_err(), "replay must be rejected");
        }
    }
    let mut enrollment = Enrollment::new(b"fleet-2026", (0, 1_000_000), 7).expect("ca");
    let mut device = enrollment
        .enroll("onu-0042", DeviceClass::Onu, b"onu-0042-key")
        .expect("enrol");
    let mut infra = enrollment
        .enroll("olt-1", DeviceClass::Olt, b"olt-1-key")
        .expect("enrol");
    let anchor = enrollment.trust_anchor();
    let crl = enrollment.crl().clone();
    onboard_instrumented(
        &mut device,
        &mut infra,
        &anchor,
        &crl,
        100,
        b"session-0042",
        &telemetry,
    )
    .expect("onboard");

    // runtime: detection pipeline plus alert correlation.
    let engine = Engine::with_tier(RuleSetTier::Default)
        .expect("rules")
        .instrument(&telemetry);
    let alerts = engine.process_all(&mixed_trace("tenant-a", 500, 3));
    let incidents = correlate_instrumented(&alerts, 5_000, &telemetry);
    println!(
        "runtime: {} alerts correlated into {} incidents",
        alerts.len(),
        incidents.len()
    );

    // orchestrator: admission then scheduling.
    let mut cluster = Cluster::genio_edge();
    for i in 0..4 {
        let pod = PodSpec::new(
            &format!("svc-{i}"),
            "tenant-acme",
            "registry.genio/svc:1.0",
        );
        let violations = evaluate_instrumented(&pod, AdmissionLevel::Restricted, &telemetry);
        assert!(violations.is_empty());
        schedule_instrumented(&mut cluster, pod, &telemetry).expect("capacity");
    }

    // --- The dossier. ---
    let snapshot = telemetry.snapshot();
    print_dossier(&snapshot);

    // Exporter views: machine-readable excerpts of the same snapshot.
    let json = snapshot.to_json();
    let prom = snapshot.to_prometheus();
    println!("\nexporter: genio-telemetry/v1 JSON ({} bytes)", json.to_string().len());
    println!(
        "  schema = {:?}",
        json.get("schema").and_then(|v| v.as_str()).unwrap_or("?")
    );
    println!("exporter: Prometheus text ({} lines), first series:", prom.lines().count());
    for line in prom.lines().take(3) {
        println!("  {line}");
    }

    let ring = snapshot.ring;
    println!(
        "\ntrace ring: {} recorded, {} drained, {} buffered, {} dropped",
        ring.recorded, ring.drained, ring.buffered, ring.dropped
    );
    assert_eq!(ring.recorded, ring.dropped + ring.drained + ring.buffered);

    // --- Flight recorder dump: the same events, Perfetto-loadable. ---
    let events = telemetry.drain_trace();
    let export = chrome_trace(&events);
    match validate_tree(&events) {
        Ok(stats) => println!(
            "\nflight recorder: {} events ({} traced, {} roots, max depth {})",
            stats.events, stats.traced, stats.roots, stats.max_depth
        ),
        Err(e) => {
            eprintln!("flight recorder export is malformed: {e}");
            std::process::exit(1);
        }
    }
    match std::fs::write(&dump_path, &export) {
        Ok(()) => println!(
            "flight recorder: wrote {} bytes to {dump_path} \
             (load in Perfetto / chrome://tracing)",
            export.len()
        ),
        Err(e) => println!("flight recorder: could not write {dump_path}: {e}"),
    }
}

/// Where the flight-recorder JSON lands: `GENIO_TRACE_JSON` if set,
/// otherwise next to the other bench artifacts under `target/`.
fn trace_dump_path() -> String {
    match std::env::var("GENIO_TRACE_JSON") {
        Ok(path) if !path.is_empty() => path,
        _ => {
            let _ = std::fs::create_dir_all("target/genio-trace");
            "target/genio-trace/observability_report.json".to_string()
        }
    }
}

/// Prints per-subsystem counters and latency quantiles, asserting every
/// instrumented crate produced non-zero data.
fn print_dossier(snapshot: &Snapshot) {
    println!("\nper-subsystem observability dossier");
    println!("===================================");
    for subsystem in SUBSYSTEMS {
        let prefix = format!("{subsystem}.");
        println!("\n[{subsystem}]");
        let mut activity = 0u64;
        for (name, value) in &snapshot.counters {
            if name.starts_with(&prefix) {
                println!("  counter   {name:<36} {value}");
                activity += *value;
            }
        }
        for h in &snapshot.histograms {
            if h.name.starts_with(&prefix) {
                let [(_, p50), (_, p95), (_, p99)] = h.quantiles;
                println!(
                    "  histogram {:<36} count {:<6} mean {:>9.0} ns  p50 {p50}  p95 {p95}  p99 {p99}",
                    h.name, h.count, h.mean
                );
                activity += h.count;
            }
        }
        assert!(activity > 0, "subsystem {subsystem} recorded no telemetry");
    }
}
