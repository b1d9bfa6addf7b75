//! A miniature X.509-like public key infrastructure built on the hash-based
//! signatures in [`crate::sig`].
//!
//! GENIO's mitigation **M4** (authentication of nodes) validates device
//! identities with certificates before ONUs and OLTs are provisioned, and
//! **M9** (signed updates) validates ONIE images against X.509 certificates.
//! This module provides the pieces those mitigations exercise: certificates
//! with validity windows and key-usage constraints, issuing CAs, chain
//! validation against trust anchors, and revocation lists.

use std::collections::HashSet;

use crate::error::CertError;
use crate::sig::{MerklePublicKey, MerkleSignature, MerkleSigner};
use crate::CryptoError;

/// What a certified key is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyUsage {
    /// May sign other certificates (a CA key).
    CertSign,
    /// May sign code/images (firmware, packages, container images).
    CodeSign,
    /// May authenticate as a server/infrastructure node (OLT side).
    ServerAuth,
    /// May authenticate as a client/subscriber node (ONU side).
    ClientAuth,
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Distinguished name of the key holder, e.g. `"onu-1542"`.
    pub subject: String,
    /// Distinguished name of the issuing authority.
    pub issuer: String,
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Subject public key (Merkle root).
    pub public_key: MerklePublicKey,
    /// Validity start (seconds since simulation epoch).
    pub not_before: u64,
    /// Validity end (seconds since simulation epoch).
    pub not_after: u64,
    /// Granted usages.
    pub usages: Vec<KeyUsage>,
}

impl TbsCertificate {
    /// Canonical byte encoding signed by the issuer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_str(&mut out, &self.subject);
        push_str(&mut out, &self.issuer);
        out.extend_from_slice(&self.serial.to_be_bytes());
        out.extend_from_slice(&self.public_key);
        out.extend_from_slice(&self.not_before.to_be_bytes());
        out.extend_from_slice(&self.not_after.to_be_bytes());
        out.push(self.usages.len() as u8);
        for u in &self.usages {
            out.push(match u {
                KeyUsage::CertSign => 0,
                KeyUsage::CodeSign => 1,
                KeyUsage::ServerAuth => 2,
                KeyUsage::ClientAuth => 3,
            });
        }
        out
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A signed certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The signed fields.
    pub tbs: TbsCertificate,
    /// Issuer signature over [`TbsCertificate::encode`].
    pub signature: MerkleSignature,
}

impl Certificate {
    /// True if this certificate grants `usage`.
    pub fn allows(&self, usage: KeyUsage) -> bool {
        self.tbs.usages.contains(&usage)
    }

    /// Verifies the signature under the issuer public key (no time or
    /// revocation checks — see [`validate_chain`] for full validation).
    #[must_use]
    pub fn verify_signature(&self, issuer_key: &MerklePublicKey) -> bool {
        self.signature.verify(&self.tbs.encode(), issuer_key)
    }
}

/// A certificate authority: a Merkle signing key plus its own certificate
/// (self-signed for roots, issuer-signed for intermediates).
#[derive(Debug)]
pub struct CertificateAuthority {
    signer: MerkleSigner,
    cert: Certificate,
    next_serial: u64,
}

impl CertificateAuthority {
    /// Creates a self-signed root CA.
    ///
    /// `capacity_log2` bounds how many certificates this CA can ever issue
    /// (`2^capacity_log2`, minus one signature spent on the self-signature).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyExhausted`] only if `capacity_log2 == 0`.
    pub fn self_signed(
        name: &str,
        seed: &[u8],
        validity: (u64, u64),
        capacity_log2: u32,
    ) -> crate::Result<Self> {
        let mut signer = MerkleSigner::from_seed(seed, capacity_log2);
        let tbs = TbsCertificate {
            subject: name.to_string(),
            issuer: name.to_string(),
            serial: 0,
            public_key: signer.public(),
            not_before: validity.0,
            not_after: validity.1,
            usages: vec![KeyUsage::CertSign],
        };
        let signature = signer.sign(&tbs.encode())?;
        let cert = Certificate { tbs, signature };
        Ok(CertificateAuthority {
            signer,
            cert,
            next_serial: 1,
        })
    }

    /// This CA's own certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// The CA public key.
    pub fn public(&self) -> MerklePublicKey {
        self.cert.tbs.public_key
    }

    /// Issues a certificate for `subject_key`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyExhausted`] when the CA's one-time leaves
    /// are spent.
    pub fn issue(
        &mut self,
        subject: &str,
        subject_key: MerklePublicKey,
        validity: (u64, u64),
        usages: Vec<KeyUsage>,
    ) -> crate::Result<Certificate> {
        let tbs = TbsCertificate {
            subject: subject.to_string(),
            issuer: self.cert.tbs.subject.clone(),
            serial: self.next_serial,
            public_key: subject_key,
            not_before: validity.0,
            not_after: validity.1,
            usages,
        };
        self.next_serial += 1;
        let signature = self.signer.sign(&tbs.encode())?;
        Ok(Certificate { tbs, signature })
    }

    /// Creates an intermediate CA certified by `self`.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError::KeyExhausted`] from either signer.
    pub fn issue_intermediate(
        &mut self,
        name: &str,
        seed: &[u8],
        validity: (u64, u64),
        capacity_log2: u32,
    ) -> crate::Result<CertificateAuthority> {
        let signer = MerkleSigner::from_seed(seed, capacity_log2);
        let cert = self.issue(name, signer.public(), validity, vec![KeyUsage::CertSign])?;
        Ok(CertificateAuthority {
            signer,
            cert,
            next_serial: 1,
        })
    }

    /// Signatures still available on this CA key.
    pub fn remaining(&self) -> u64 {
        self.signer.remaining()
    }
}

/// A certificate revocation list: revoked `(issuer, serial)` pairs.
#[derive(Debug, Clone, Default)]
pub struct RevocationList {
    revoked: HashSet<(String, u64)>,
}

impl RevocationList {
    /// Creates an empty CRL.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `serial` issued by `issuer` as revoked.
    pub fn revoke(&mut self, issuer: &str, serial: u64) {
        self.revoked.insert((issuer.to_string(), serial));
    }

    /// True if the certificate appears on the list.
    pub fn is_revoked(&self, cert: &Certificate) -> bool {
        self.revoked
            .contains(&(cert.tbs.issuer.clone(), cert.tbs.serial))
    }

    /// Number of entries on the list.
    pub fn len(&self) -> usize {
        self.revoked.len()
    }

    /// True if no certificate has been revoked.
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty()
    }
}

/// Maximum accepted chain length (leaf + intermediates + root).
pub const MAX_CHAIN_LEN: usize = 8;

/// Validates a certificate chain ordered leaf-first.
///
/// Every cheap check runs over the whole chain before any signature is
/// verified, so a chain that fails one costs no hashing: chain shape; then
/// for each element its validity window at time `now`, revocation, and —
/// for every element but the last — that its issuer names the next
/// element, which must grant [`KeyUsage::CertSign`]; then that the last
/// element's key is in `trust_anchors`. Only then are the signatures
/// verified, leaf first: each element under its parent's key, the last
/// under its own (self-signed). A chain that fails several checks reports
/// the first in that order.
///
/// # Errors
///
/// Returns [`CryptoError::CertificateInvalid`] with the specific
/// [`CertError`] reason.
pub fn validate_chain(
    chain: &[Certificate],
    trust_anchors: &[MerklePublicKey],
    crl: &RevocationList,
    now: u64,
) -> crate::Result<()> {
    let invalid = |reason| Err(CryptoError::CertificateInvalid(reason));
    let Some(root) = chain.last() else {
        return invalid(CertError::EmptyChain);
    };
    if chain.len() > MAX_CHAIN_LEN {
        return invalid(CertError::ChainTooLong);
    }
    for (i, cert) in chain.iter().enumerate() {
        if now < cert.tbs.not_before {
            return invalid(CertError::NotYetValid);
        }
        if now > cert.tbs.not_after {
            return invalid(CertError::Expired);
        }
        if crl.is_revoked(cert) {
            return invalid(CertError::Revoked);
        }
        if let Some(parent) = chain.get(i + 1) {
            if cert.tbs.issuer != parent.tbs.subject {
                return invalid(CertError::IssuerMismatch);
            }
            if !parent.allows(KeyUsage::CertSign) {
                return invalid(CertError::KeyUsageViolation);
            }
        }
    }
    if !trust_anchors.contains(&root.tbs.public_key) {
        return invalid(CertError::UntrustedRoot);
    }
    for (i, cert) in chain.iter().enumerate() {
        let issuer = chain.get(i + 1).unwrap_or(cert);
        if !cert.verify_signature(&issuer.tbs.public_key) {
            return invalid(CertError::BadSignature);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> CertificateAuthority {
        CertificateAuthority::self_signed("genio-root", b"root-seed", (0, 10_000), 4).unwrap()
    }

    #[test]
    fn self_signed_root_validates() {
        let ca = root();
        let chain = vec![ca.certificate().clone()];
        validate_chain(&chain, &[ca.public()], &RevocationList::new(), 100).unwrap();
    }

    #[test]
    fn leaf_chain_validates() {
        let mut ca = root();
        let mut leaf_signer = MerkleSigner::from_seed(b"onu-key", 2);
        let leaf = ca
            .issue(
                "onu-7",
                leaf_signer.public(),
                (0, 5_000),
                vec![KeyUsage::ClientAuth],
            )
            .unwrap();
        let chain = vec![leaf.clone(), ca.certificate().clone()];
        validate_chain(&chain, &[ca.public()], &RevocationList::new(), 100).unwrap();
        // And the leaf key actually signs things verifiable via the chain.
        let sig = leaf_signer.sign(b"onboarding hello").unwrap();
        assert!(sig.verify(b"onboarding hello", &leaf.tbs.public_key));
    }

    #[test]
    fn three_level_chain_validates() {
        let mut ca = root();
        let mut inter = ca
            .issue_intermediate("genio-edge-ca", b"edge-seed", (0, 8_000), 3)
            .unwrap();
        let leaf_signer = MerkleSigner::from_seed(b"olt-key", 1);
        let leaf = inter
            .issue(
                "olt-2",
                leaf_signer.public(),
                (0, 5_000),
                vec![KeyUsage::ServerAuth],
            )
            .unwrap();
        let chain = vec![leaf, inter.certificate().clone(), ca.certificate().clone()];
        validate_chain(&chain, &[ca.public()], &RevocationList::new(), 100).unwrap();
    }

    #[test]
    fn expired_rejected() {
        let ca = root();
        let chain = vec![ca.certificate().clone()];
        let err = validate_chain(&chain, &[ca.public()], &RevocationList::new(), 20_000);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::Expired))
        );
    }

    #[test]
    fn not_yet_valid_rejected() {
        let mut ca = root();
        let signer = MerkleSigner::from_seed(b"k", 1);
        let leaf = ca
            .issue(
                "late",
                signer.public(),
                (500, 900),
                vec![KeyUsage::ClientAuth],
            )
            .unwrap();
        let chain = vec![leaf, ca.certificate().clone()];
        let err = validate_chain(&chain, &[ca.public()], &RevocationList::new(), 100);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::NotYetValid))
        );
    }

    #[test]
    fn revoked_rejected() {
        let mut ca = root();
        let signer = MerkleSigner::from_seed(b"k", 1);
        let leaf = ca
            .issue(
                "onu-9",
                signer.public(),
                (0, 5_000),
                vec![KeyUsage::ClientAuth],
            )
            .unwrap();
        let mut crl = RevocationList::new();
        crl.revoke("genio-root", leaf.tbs.serial);
        let chain = vec![leaf, ca.certificate().clone()];
        let err = validate_chain(&chain, &[ca.public()], &crl, 100);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::Revoked))
        );
    }

    #[test]
    fn untrusted_root_rejected() {
        let ca = root();
        let rogue =
            CertificateAuthority::self_signed("rogue", b"rogue-seed", (0, 10_000), 2).unwrap();
        let chain = vec![rogue.certificate().clone()];
        let err = validate_chain(&chain, &[ca.public()], &RevocationList::new(), 100);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::UntrustedRoot))
        );
    }

    #[test]
    fn untrusted_root_is_refused_before_its_signature_is_checked() {
        let ca = root();
        let rogue =
            CertificateAuthority::self_signed("rogue", b"rogue-seed", (0, 10_000), 2).unwrap();
        let mut forged = rogue.certificate().clone();
        forged.tbs.serial += 1; // the self-signature no longer matches
        assert!(!forged.verify_signature(&forged.tbs.public_key));
        let crl = RevocationList::new();
        let err = validate_chain(&[forged.clone()], &[ca.public()], &crl, 100);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::UntrustedRoot))
        );
        // Anchored, the same certificate fails on its signature.
        let err = validate_chain(&[forged], &[rogue.public()], &crl, 100);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::BadSignature))
        );
    }

    #[test]
    fn windows_are_checked_along_the_chain_before_signatures() {
        let mut ca = root();
        let signer = MerkleSigner::from_seed(b"k", 1);
        let mut leaf = ca
            .issue(
                "onu-1",
                signer.public(),
                (0, 5_000),
                vec![KeyUsage::ClientAuth],
            )
            .unwrap();
        leaf.tbs.subject = "onu-666".into(); // bad leaf signature
        let chain = vec![leaf, ca.certificate().clone()];
        let err = validate_chain(&chain, &[ca.public()], &RevocationList::new(), 20_000);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::Expired))
        );
    }

    #[test]
    fn issuer_mismatch_rejected() {
        let mut ca = root();
        let other =
            CertificateAuthority::self_signed("other-root", b"other", (0, 10_000), 2).unwrap();
        let signer = MerkleSigner::from_seed(b"k", 1);
        let leaf = ca
            .issue(
                "onu-1",
                signer.public(),
                (0, 5_000),
                vec![KeyUsage::ClientAuth],
            )
            .unwrap();
        let chain = vec![leaf, other.certificate().clone()];
        let err = validate_chain(&chain, &[other.public()], &RevocationList::new(), 100);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::IssuerMismatch))
        );
    }

    #[test]
    fn leaf_cannot_sign_certificates() {
        let mut ca = root();
        // Issue a leaf *without* CertSign, then try to use it as a parent.
        let mut leaf_ca_signer = MerkleSigner::from_seed(b"leaf-ca", 2);
        let leaf_ca_cert = ca
            .issue(
                "not-a-ca",
                leaf_ca_signer.public(),
                (0, 5_000),
                vec![KeyUsage::ClientAuth],
            )
            .unwrap();
        let child_signer = MerkleSigner::from_seed(b"child", 1);
        let child_tbs = TbsCertificate {
            subject: "child".into(),
            issuer: "not-a-ca".into(),
            serial: 1,
            public_key: child_signer.public(),
            not_before: 0,
            not_after: 5_000,
            usages: vec![KeyUsage::ClientAuth],
        };
        let sig = leaf_ca_signer.sign(&child_tbs.encode()).unwrap();
        let child = Certificate {
            tbs: child_tbs,
            signature: sig,
        };
        let chain = vec![child, leaf_ca_cert, ca.certificate().clone()];
        let err = validate_chain(&chain, &[ca.public()], &RevocationList::new(), 100);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(
                CertError::KeyUsageViolation
            ))
        );
    }

    #[test]
    fn tampered_subject_rejected() {
        let mut ca = root();
        let signer = MerkleSigner::from_seed(b"k", 1);
        let mut leaf = ca
            .issue(
                "onu-1",
                signer.public(),
                (0, 5_000),
                vec![KeyUsage::ClientAuth],
            )
            .unwrap();
        leaf.tbs.subject = "onu-666".into();
        let chain = vec![leaf, ca.certificate().clone()];
        let err = validate_chain(&chain, &[ca.public()], &RevocationList::new(), 100);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::BadSignature))
        );
    }

    #[test]
    fn empty_chain_rejected() {
        let err = validate_chain(&[], &[], &RevocationList::new(), 0);
        assert_eq!(
            err,
            Err(CryptoError::CertificateInvalid(CertError::EmptyChain))
        );
    }

    #[test]
    fn ca_exhaustion_reported() {
        // capacity 2^1 = 2 leaves; one spent on self-signature.
        let mut ca =
            CertificateAuthority::self_signed("tiny", b"tiny-seed", (0, 1_000), 1).unwrap();
        assert_eq!(ca.remaining(), 1);
        let signer = MerkleSigner::from_seed(b"k", 1);
        ca.issue("a", signer.public(), (0, 100), vec![KeyUsage::ClientAuth])
            .unwrap();
        let err = ca.issue("b", signer.public(), (0, 100), vec![KeyUsage::ClientAuth]);
        assert_eq!(err.unwrap_err(), CryptoError::KeyExhausted);
    }
}
