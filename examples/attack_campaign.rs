//! Runs the end-to-end attack campaign (experiment E-S1): every threat
//! T1–T8 executed against the platform with mitigations disabled and
//! enabled.
//!
//! ```sh
//! cargo run --example attack_campaign
//! ```

use genio::core::scenario::{run_campaign, CampaignConfig};
use genio::pon::engine::FleetSimConfig;
use genio::pon::reference;

fn main() {
    let report = run_campaign(&CampaignConfig::default());

    println!("E-S1 — attack campaign, mitigations off vs on");
    println!("==============================================");
    print!("{}", report.render());

    println!("\nEvidence:");
    for row in &report.rows {
        println!("  {} unmitigated: {}", row.threat_id, row.unmitigated.notes);
        println!("  {} mitigated  : {}", row.threat_id, row.mitigated.notes);
    }

    let all_succeed_unmitigated = report.rows.iter().all(|r| r.unmitigated.succeeded);
    let all_stopped_mitigated = report.rows.iter().all(|r| !r.mitigated.succeeded);
    println!(
        "\nshape check: unmitigated all succeed = {all_succeed_unmitigated}, \
         mitigated all stopped = {all_stopped_mitigated}"
    );

    // System-level T1 view: 100 TDMA cycles of one tree through the
    // object-per-ONU reference stepper, so the tap, the replay window and
    // the rogue ONU are the real mechanism objects.
    println!("\nPON system simulation (100 cycles, 8 ONUs, attacker on fiber):");
    for (label, encrypt, certs) in [
        ("mitigations off (no M3/M4)", false, false),
        ("mitigations on  (M3+M4)", true, true),
    ] {
        let stats = reference::run(&FleetSimConfig {
            trees: 1,
            onus_per_tree: 8,
            cycles: 100,
            encrypt,
            certificate_admission: certs,
            replay_every: 10,
            ..FleetSimConfig::default()
        })
        .stats;
        println!(
            "  {label:<28} observed {:>4}  readable {:>4}  replays accepted {}/{}  rogue admitted {}",
            stats.attacker_observed,
            stats.attacker_readable,
            stats.replays_accepted,
            stats.replays_attempted,
            stats.rogues_admitted > 0
        );
    }
}
