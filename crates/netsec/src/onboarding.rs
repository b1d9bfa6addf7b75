//! Node identities and the onboarding ceremony (mitigation **M4**).
//!
//! Every GENIO device — ONUs at customer premises, OLTs in central offices,
//! cloud controllers — holds a certificate chain rooted in the project CA.
//! Onboarding runs the mutual-authentication handshake and records the
//! certificate-management operations performed, because the paper's
//! **Lesson 2** is precisely that "implementing secure authentication among
//! heterogeneous hardware demands careful management of certificates": the
//! bookkeeping here lets experiment E-L2 quantify that overhead.

use genio_crypto::pki::{
    validate_chain, Certificate, CertificateAuthority, KeyUsage, RevocationList,
};
use genio_crypto::sig::{MerklePublicKey, MerkleSigner};

use genio_telemetry::Telemetry;

use crate::handshake::{ClientSession, HandshakeConfig, ServerSession, SessionKeys};

/// Device classes in the GENIO deployment (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Optical Network Unit — far edge, customer premises.
    Onu,
    /// Optical Line Terminal — edge, central office.
    Olt,
    /// Cloud controller / orchestration center.
    Cloud,
}

impl DeviceClass {
    /// The key usage this device class authenticates with.
    pub fn key_usage(self) -> KeyUsage {
        match self {
            DeviceClass::Onu => KeyUsage::ClientAuth,
            DeviceClass::Olt | DeviceClass::Cloud => KeyUsage::ServerAuth,
        }
    }
}

/// A provisioned device identity: name, certificate chain (leaf first,
/// excluding the root), and the private signer for the leaf key.
#[derive(Debug)]
pub struct NodeIdentity {
    /// Device name (also the certificate subject).
    pub name: String,
    /// Device class.
    pub class: DeviceClass,
    /// Certificate chain, leaf first, ending at the root CA certificate.
    pub chain: Vec<Certificate>,
    /// Private signing key matching the leaf certificate.
    pub signer: MerkleSigner,
}

/// Running totals of certificate-management operations — the Lesson 2 cost
/// model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertOpsLedger {
    /// Certificates issued (enrolment).
    pub issued: u64,
    /// Chains validated during handshakes.
    pub chains_validated: u64,
    /// Signatures produced by device keys.
    pub signatures: u64,
    /// Certificates renewed after expiry.
    pub renewals: u64,
    /// Certificates revoked.
    pub revocations: u64,
}

impl CertOpsLedger {
    /// Total operations of all kinds.
    pub fn total(&self) -> u64 {
        self.issued + self.chains_validated + self.signatures + self.renewals + self.revocations
    }
}

/// Fleet-wide identity provisioning: wraps the project CA and tracks
/// certificate-management effort.
#[derive(Debug)]
pub struct Enrollment {
    ca: CertificateAuthority,
    crl: RevocationList,
    /// Operation counters for experiment E-L2.
    pub ledger: CertOpsLedger,
    validity: (u64, u64),
}

impl Enrollment {
    /// Creates the project root CA.
    ///
    /// `validity` is the window granted to enrolled device certificates; the
    /// root certificate itself is given a window ten times longer, matching
    /// the usual practice of long-lived roots and short-lived leaves.
    ///
    /// # Errors
    ///
    /// Propagates [`CertificateAuthority::self_signed`]'s refusals:
    /// [`genio_crypto::CryptoError::HeightTooLarge`] for a `capacity_log2`
    /// above 20, and [`genio_crypto::CryptoError::KeyExhausted`] for 0,
    /// which leaves no leaf to enrol with.
    pub fn new(seed: &[u8], validity: (u64, u64), capacity_log2: u32) -> crate::Result<Self> {
        let root_validity = (validity.0, validity.1.saturating_mul(10));
        let ca =
            CertificateAuthority::self_signed("genio-root", seed, root_validity, capacity_log2)?;
        Ok(Enrollment {
            ca,
            crl: RevocationList::new(),
            ledger: CertOpsLedger::default(),
            validity,
        })
    }

    /// The root public key (the fleet trust anchor).
    pub fn trust_anchor(&self) -> MerklePublicKey {
        self.ca.public()
    }

    /// The root certificate.
    pub fn root_certificate(&self) -> &Certificate {
        self.ca.certificate()
    }

    /// The current revocation list.
    pub fn crl(&self) -> &RevocationList {
        &self.crl
    }

    /// Enrols a device: generates its key, issues its certificate, returns
    /// the identity.
    ///
    /// # Errors
    ///
    /// Propagates CA exhaustion.
    pub fn enroll(
        &mut self,
        name: &str,
        class: DeviceClass,
        key_seed: &[u8],
    ) -> crate::Result<NodeIdentity> {
        let signer = MerkleSigner::from_seed(key_seed, 6);
        let cert = self.ca.issue(
            name,
            signer.public(),
            self.validity,
            vec![class.key_usage()],
        )?;
        self.ledger.issued += 1;
        let chain = vec![cert, self.ca.certificate().clone()];
        Ok(NodeIdentity {
            name: name.to_string(),
            class,
            chain,
            signer,
        })
    }

    /// Revokes a device's leaf certificate.
    pub fn revoke(&mut self, identity: &NodeIdentity) {
        let leaf = &identity.chain[0];
        self.crl.revoke(&leaf.tbs.issuer, leaf.tbs.serial);
        self.ledger.revocations += 1;
    }

    /// Renews a device certificate with a fresh validity window.
    ///
    /// # Errors
    ///
    /// Propagates CA exhaustion.
    pub fn renew(
        &mut self,
        identity: &mut NodeIdentity,
        new_validity: (u64, u64),
    ) -> crate::Result<()> {
        let cert = self.ca.issue(
            &identity.name,
            identity.signer.public(),
            new_validity,
            vec![identity.class.key_usage()],
        )?;
        identity.chain[0] = cert;
        self.ledger.renewals += 1;
        Ok(())
    }
}

/// Result of a completed onboarding: both ends' record keys plus the audit
/// trail of certificate operations it consumed.
#[derive(Debug)]
pub struct OnboardingResult {
    /// Keys derived on the joining device (client role).
    pub device_keys: SessionKeys,
    /// Keys derived on the admitting infrastructure (server role).
    pub infra_keys: SessionKeys,
    /// Chains validated during the ceremony.
    pub chains_validated: u64,
    /// Signatures produced during the ceremony.
    pub signatures: u64,
}

/// Runs the mutual-authentication onboarding ceremony between a joining
/// device and the admitting node, at simulation time `now`.
///
/// # Errors
///
/// Any handshake failure: invalid chains, revoked certificates, transcript
/// mismatches.
pub fn onboard(
    device: &mut NodeIdentity,
    infra: &mut NodeIdentity,
    trust_anchor: &MerklePublicKey,
    crl: &RevocationList,
    now: u64,
    seed: &[u8],
) -> crate::Result<OnboardingResult> {
    onboard_instrumented(device, infra, trust_anchor, crl, now, seed, &Telemetry::disabled())
}

/// [`onboard`] with per-phase handshake spans
/// (`netsec.handshake.client_hello` / `server_flight` / `client_finish` /
/// `server_finish`) and a `netsec.handshake.completed` counter.
///
/// # Errors
///
/// Same failure modes as [`onboard`].
#[allow(clippy::too_many_arguments)]
pub fn onboard_instrumented(
    device: &mut NodeIdentity,
    infra: &mut NodeIdentity,
    trust_anchor: &MerklePublicKey,
    crl: &RevocationList,
    now: u64,
    seed: &[u8],
    telemetry: &Telemetry,
) -> crate::Result<OnboardingResult> {
    let config = HandshakeConfig {
        require_client_auth: true,
        now,
    };
    let (hello, client) = {
        let _span = telemetry.span("netsec.handshake.client_hello");
        ClientSession::start(&config, seed)?
    };
    let (flight, server) = {
        let _span = telemetry.span("netsec.handshake.server_flight");
        ServerSession::respond(&config, &hello, infra, seed)?
    };
    let (client_flight, device_keys) = {
        let _span = telemetry.span("netsec.handshake.client_finish");
        client.finish(&config, &flight, Some(device), &[*trust_anchor], crl)?
    };
    let infra_keys = {
        let _span = telemetry.span("netsec.handshake.server_finish");
        server.finish(&config, &client_flight, &[*trust_anchor], crl)?
    };
    telemetry.counter("netsec.handshake.completed").incr(1);
    Ok(OnboardingResult {
        device_keys,
        infra_keys,
        // Server chain checked by client + client chain checked by server.
        chains_validated: 2,
        // CertificateVerify on each side.
        signatures: 2,
    })
}

/// Convenience: onboard and update the enrolment ledger.
///
/// # Errors
///
/// Propagates [`onboard`] failures.
pub fn onboard_with_ledger(
    enrollment: &mut Enrollment,
    device: &mut NodeIdentity,
    infra: &mut NodeIdentity,
    now: u64,
    seed: &[u8],
) -> crate::Result<OnboardingResult> {
    let anchor = enrollment.trust_anchor();
    let crl = enrollment.crl.clone();
    let result = onboard(device, infra, &anchor, &crl, now, seed)?;
    enrollment.ledger.chains_validated += result.chains_validated;
    enrollment.ledger.signatures += result.signatures;
    Ok(result)
}

/// Validates a device chain standalone (used by the PON admission hook).
///
/// # Errors
///
/// Propagates chain-validation failures.
pub fn validate_device_chain(
    chain: &[Certificate],
    trust_anchor: &MerklePublicKey,
    crl: &RevocationList,
    now: u64,
) -> crate::Result<()> {
    validate_chain(chain, &[*trust_anchor], crl, now)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetsecError;
    use genio_crypto::CryptoError;

    fn setup() -> (Enrollment, NodeIdentity, NodeIdentity) {
        let mut e = Enrollment::new(b"fleet-seed", (0, 100_000), 6).unwrap();
        let onu = e.enroll("onu-1", DeviceClass::Onu, b"onu-1-key").unwrap();
        let olt = e.enroll("olt-1", DeviceClass::Olt, b"olt-1-key").unwrap();
        (e, onu, olt)
    }

    #[test]
    fn enrollment_refuses_a_ca_it_cannot_build_or_use() {
        let err = Enrollment::new(b"fleet-seed", (0, 1), 21).unwrap_err();
        assert_eq!(
            err,
            NetsecError::Crypto(CryptoError::HeightTooLarge {
                height: 21,
                max: 20
            })
        );
        let err = Enrollment::new(b"fleet-seed", (0, 1), 0).unwrap_err();
        assert_eq!(err, NetsecError::Crypto(CryptoError::KeyExhausted));
    }

    #[test]
    fn enroll_produces_valid_chain() {
        let (e, onu, _) = setup();
        validate_device_chain(&onu.chain, &e.trust_anchor(), e.crl(), 50).unwrap();
    }

    #[test]
    fn onboarding_derives_matching_keys() {
        let (mut e, mut onu, mut olt) = setup();
        let r = onboard_with_ledger(&mut e, &mut onu, &mut olt, 50, b"session-1").unwrap();
        // Client-write key on device encrypts, same key on infra decrypts.
        let mut dev_c = r.device_keys;
        let mut inf_c = r.infra_keys;
        let rec = dev_c.seal_client(b"hello").unwrap();
        assert_eq!(inf_c.open_client(&rec).unwrap(), b"hello");
        let rec = inf_c.seal_server(b"welcome").unwrap();
        assert_eq!(dev_c.open_server(&rec).unwrap(), b"welcome");
    }

    #[test]
    fn revoked_device_cannot_onboard() {
        let (mut e, mut onu, mut olt) = setup();
        e.revoke(&onu);
        let anchor = e.trust_anchor();
        let crl = e.crl().clone();
        let err = onboard(&mut onu, &mut olt, &anchor, &crl, 50, b"s");
        assert!(err.is_err(), "revoked device must be rejected");
    }

    #[test]
    fn expired_certificate_blocks_onboarding_until_renewal() {
        let (mut e, mut onu, mut olt) = setup();
        let anchor = e.trust_anchor();
        let crl = e.crl().clone();
        // Past the validity window of the enrolment.
        assert!(onboard(&mut onu, &mut olt, &anchor, &crl, 200_000, b"s").is_err());
        // Infra cert must also be in-window, so renew both.
        e.renew(&mut onu, (0, 300_000)).unwrap();
        e.renew(&mut olt, (0, 300_000)).unwrap();
        assert!(onboard(&mut onu, &mut olt, &anchor, &crl, 200_000, b"s").is_ok());
        assert_eq!(e.ledger.renewals, 2);
    }

    #[test]
    fn ledger_counts_operations() {
        let (mut e, mut onu, mut olt) = setup();
        assert_eq!(e.ledger.issued, 2);
        onboard_with_ledger(&mut e, &mut onu, &mut olt, 10, b"s1").unwrap();
        onboard_with_ledger(&mut e, &mut onu, &mut olt, 20, b"s2").unwrap();
        assert_eq!(e.ledger.chains_validated, 4);
        assert_eq!(e.ledger.signatures, 4);
        assert!(e.ledger.total() >= 10);
    }

    #[test]
    fn foreign_root_rejected() {
        let (_e, mut onu, _) = setup();
        let mut foreign = Enrollment::new(b"other-fleet", (0, 100_000), 5).unwrap();
        let mut rogue_olt = foreign
            .enroll("rogue-olt", DeviceClass::Olt, b"rogue")
            .unwrap();
        // The device validates against its own fleet anchor; the rogue OLT's
        // chain terminates at a different root.
        let (e2, _, _) = setup();
        let anchor = e2.trust_anchor();
        let crl = RevocationList::new();
        assert!(onboard(&mut onu, &mut rogue_olt, &anchor, &crl, 50, b"s").is_err());
    }

    #[test]
    fn device_class_usage_mapping() {
        assert_eq!(DeviceClass::Onu.key_usage(), KeyUsage::ClientAuth);
        assert_eq!(DeviceClass::Olt.key_usage(), KeyUsage::ServerAuth);
        assert_eq!(DeviceClass::Cloud.key_usage(), KeyUsage::ServerAuth);
    }
}
