//! Trusted Platform Module model: PCR banks, quotes, and sealed storage.
//!
//! The paper uses the TPM three ways, all reproduced here:
//! * **Measured Boot** (M5) extends hashes of boot components into Platform
//!   Configuration Registers;
//! * remote attestation compares **quotes** (signed PCR digests) against
//!   known-good values;
//! * **M6** binds disk-decryption secrets to PCR values via seal/unseal, so
//!   a modified kernel cannot release the LUKS key.

use std::collections::BTreeMap;

use genio_crypto::gcm::AesGcm;
use genio_crypto::hkdf;
use genio_crypto::hmac::HmacSha256;
use genio_crypto::sha256::{sha256_pair, Digest};

use crate::SecureBootError;

/// Number of PCRs in the bank (TPM 2.0 SHA-256 bank).
pub const PCR_COUNT: usize = 24;

/// A PCR selection with the composite digest over those PCRs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcrPolicy {
    /// Selected PCR indices, ascending.
    pub selection: Vec<usize>,
    /// SHA-256 over the concatenated selected PCR values.
    pub digest: Digest,
}

/// A signed attestation of PCR state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Selected PCR indices.
    pub selection: Vec<usize>,
    /// Composite digest at quote time.
    pub digest: Digest,
    /// Verifier-supplied anti-replay nonce.
    pub nonce: Vec<u8>,
    /// HMAC under the TPM attestation key.
    pub signature: [u8; 32],
}

/// A secret sealed to a PCR policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    /// The policy that must hold at unseal time.
    pub policy: PcrPolicy,
    /// AES-GCM ciphertext of the secret under a TPM-internal key.
    ciphertext: Vec<u8>,
    /// Nonce used at seal time, derived from the blob's own inputs
    /// (see [`Tpm::seal`]).
    nonce: [u8; 12],
}

/// A TPM instance bound to one platform.
///
/// # Example
///
/// ```
/// use genio_secureboot::tpm::Tpm;
///
/// # fn main() -> Result<(), genio_secureboot::SecureBootError> {
/// let mut tpm = Tpm::new(b"endorsement-seed");
/// tpm.extend(7, b"kernel 6.1.0-hardened");
/// let blob = tpm.seal(&[7], b"luks master key")?;
/// assert_eq!(tpm.unseal(&blob)?, b"luks master key");
/// // Any further extension of PCR 7 breaks the policy:
/// tpm.extend(7, b"rootkit module");
/// assert!(tpm.unseal(&blob).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Tpm {
    pcrs: [Digest; PCR_COUNT],
    /// Endorsement-derived internal secrets.
    storage_key: [u8; 16],
    attestation_key: [u8; 32],
    seal_counter: u64,
}

impl Tpm {
    /// Manufactures a TPM from an endorsement seed; PCRs start at zero.
    pub fn new(endorsement_seed: &[u8]) -> Self {
        let storage = hkdf::derive(b"tpm-storage", endorsement_seed, b"srk", 16);
        let attest = hkdf::derive(b"tpm-attest", endorsement_seed, b"aik", 32);
        Tpm {
            pcrs: [[0u8; 32]; PCR_COUNT],
            storage_key: storage.try_into().expect("16 bytes"),
            attestation_key: attest.try_into().expect("32 bytes"),
            seal_counter: 0,
        }
    }

    /// Reads a PCR value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= PCR_COUNT`; use [`Tpm::try_read`] for a checked
    /// variant.
    pub fn read(&self, index: usize) -> Digest {
        self.pcrs[index]
    }

    /// Checked PCR read.
    ///
    /// # Errors
    ///
    /// Returns [`SecureBootError::InvalidPcr`] for out-of-range indices.
    pub fn try_read(&self, index: usize) -> crate::Result<Digest> {
        self.pcrs
            .get(index)
            .copied()
            .ok_or(SecureBootError::InvalidPcr(index))
    }

    /// Extends a PCR: `pcr = SHA-256(pcr || SHA-256(measurement))`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= PCR_COUNT`.
    pub fn extend(&mut self, index: usize, measurement: &[u8]) {
        let m = genio_crypto::sha256::sha256(measurement);
        self.pcrs[index] = sha256_pair(&self.pcrs[index], &m);
    }

    /// Computes the composite digest over a PCR selection.
    pub fn composite(&self, selection: &[usize]) -> crate::Result<Digest> {
        let mut sorted: Vec<usize> = selection.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut h = genio_crypto::sha256::Sha256::new();
        for &i in &sorted {
            let v = self.try_read(i)?;
            h.update(&(i as u32).to_be_bytes());
            h.update(&v);
        }
        Ok(h.finalize())
    }

    /// Produces a signed quote over `selection` with the verifier `nonce`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range PCR indices.
    pub fn quote(&self, selection: &[usize], nonce: &[u8]) -> Quote {
        let digest = self.composite(selection).expect("valid selection");
        let mut mac = HmacSha256::new(&self.attestation_key);
        mac.update(&digest);
        mac.update(nonce);
        Quote {
            selection: selection.to_vec(),
            digest,
            nonce: nonce.to_vec(),
            signature: mac.finalize(),
        }
    }

    /// Verifies a quote produced by this TPM against the expected nonce.
    #[must_use]
    pub fn verify_quote(&self, quote: &Quote, expected_nonce: &[u8]) -> bool {
        if quote.nonce != expected_nonce {
            return false;
        }
        let mut mac = HmacSha256::new(&self.attestation_key);
        mac.update(&quote.digest);
        mac.update(&quote.nonce);
        genio_crypto::ct::eq(&mac.finalize(), &quote.signature)
    }

    /// Seals `secret` to the *current* values of the selected PCRs.
    ///
    /// The AES-GCM key binds the storage key and the policy digest. The
    /// nonce is the first 12 bytes of HMAC-SHA256, under a seal-IV key
    /// derived from the storage key, over the policy digest, the seal
    /// counter and the secret. The counter restarts at 0 in every
    /// [`Tpm::new`] and a clone copies it, so two TPMs made from one
    /// endorsement seed (two boots of one device) or a TPM and its clone
    /// reach the same counter at the same PCR state; their nonces still
    /// differ whenever their secrets do. A (key, nonce) pair repeats only
    /// when the same secret is sealed again to the same policy at the
    /// same counter, and then the whole blob repeats, which shows only
    /// that the two secrets are equal.
    ///
    /// # Errors
    ///
    /// Returns [`SecureBootError::InvalidPcr`] for bad selections.
    pub fn seal(&mut self, selection: &[usize], secret: &[u8]) -> crate::Result<SealedBlob> {
        let digest = self.composite(selection)?;
        let policy = PcrPolicy {
            selection: selection.to_vec(),
            digest,
        };
        let aead = self.policy_aead(&policy.digest);
        let nonce = self.seal_nonce(&policy.digest, secret);
        self.seal_counter += 1;
        let ciphertext = aead.seal(&nonce, secret, b"tpm-seal");
        Ok(SealedBlob {
            policy,
            ciphertext,
            nonce,
        })
    }

    /// Unseals a blob, releasing the secret only if the selected PCRs still
    /// match the sealed policy.
    ///
    /// # Errors
    ///
    /// * [`SecureBootError::PolicyMismatch`] when PCR state has diverged.
    /// * [`SecureBootError::UnsealFailed`] on ciphertext corruption or a
    ///   foreign TPM.
    pub fn unseal(&self, blob: &SealedBlob) -> crate::Result<Vec<u8>> {
        let current = self.composite(&blob.policy.selection)?;
        if current != blob.policy.digest {
            return Err(SecureBootError::PolicyMismatch);
        }
        let aead = self.policy_aead(&blob.policy.digest);
        aead.open(&blob.nonce, &blob.ciphertext, b"tpm-seal")
            .map_err(|_| SecureBootError::UnsealFailed)
    }

    /// The nonce [`Tpm::seal`] seals `secret` under at the current
    /// counter.
    fn seal_nonce(&self, policy_digest: &Digest, secret: &[u8]) -> [u8; 12] {
        let iv_key = hkdf::derive(&self.storage_key, b"tpm-seal-iv", b"seal-iv", 32);
        let mut mac = HmacSha256::new(&iv_key);
        mac.update(policy_digest);
        mac.update(&self.seal_counter.to_be_bytes());
        mac.update(secret);
        let mut nonce = [0u8; 12];
        for (n, t) in nonce.iter_mut().zip(mac.finalize()) {
            *n = t;
        }
        nonce
    }

    fn policy_aead(&self, policy_digest: &Digest) -> AesGcm {
        // The effective sealing key mixes the storage root key with the
        // policy digest, so tampered policies cannot decrypt either.
        let key = hkdf::derive(&self.storage_key, policy_digest, b"seal", 16);
        AesGcm::new(&key).expect("16-byte key")
    }

    /// Snapshot of all non-zero PCRs, for reports.
    pub fn nonzero_pcrs(&self) -> BTreeMap<usize, Digest> {
        self.pcrs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != [0u8; 32])
            .map(|(i, v)| (i, *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcrs_start_zero() {
        let tpm = Tpm::new(b"seed");
        assert_eq!(tpm.read(0), [0u8; 32]);
        assert!(tpm.nonzero_pcrs().is_empty());
    }

    #[test]
    fn extend_changes_value_and_is_order_sensitive() {
        let mut a = Tpm::new(b"seed");
        let mut b = Tpm::new(b"seed");
        a.extend(0, b"x");
        a.extend(0, b"y");
        b.extend(0, b"y");
        b.extend(0, b"x");
        assert_ne!(a.read(0), b.read(0), "extension order must matter");
    }

    #[test]
    fn same_measurements_same_pcr() {
        let mut a = Tpm::new(b"seed-a");
        let mut b = Tpm::new(b"seed-b");
        a.extend(4, b"shim");
        b.extend(4, b"shim");
        // PCR values depend only on measurements, not the endorsement seed.
        assert_eq!(a.read(4), b.read(4));
    }

    #[test]
    fn try_read_bounds() {
        let tpm = Tpm::new(b"seed");
        assert!(tpm.try_read(23).is_ok());
        assert_eq!(tpm.try_read(24), Err(SecureBootError::InvalidPcr(24)));
    }

    #[test]
    fn quote_verifies_and_binds_nonce() {
        let mut tpm = Tpm::new(b"seed");
        tpm.extend(0, b"m");
        let q = tpm.quote(&[0, 7], b"nonce-1");
        assert!(tpm.verify_quote(&q, b"nonce-1"));
        assert!(!tpm.verify_quote(&q, b"nonce-2"), "replayed quote rejected");
    }

    #[test]
    fn quote_from_other_tpm_rejected() {
        let tpm = Tpm::new(b"seed");
        let other = Tpm::new(b"other");
        let q = other.quote(&[0], b"n");
        assert!(!tpm.verify_quote(&q, b"n"));
    }

    #[test]
    fn tampered_quote_digest_rejected() {
        let tpm = Tpm::new(b"seed");
        let mut q = tpm.quote(&[0], b"n");
        q.digest[0] ^= 1;
        assert!(!tpm.verify_quote(&q, b"n"));
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let mut tpm = Tpm::new(b"seed");
        tpm.extend(7, b"kernel");
        let blob = tpm.seal(&[7], b"secret").unwrap();
        assert_eq!(tpm.unseal(&blob).unwrap(), b"secret");
    }

    #[test]
    fn unseal_fails_after_pcr_change() {
        let mut tpm = Tpm::new(b"seed");
        tpm.extend(7, b"kernel");
        let blob = tpm.seal(&[7], b"secret").unwrap();
        tpm.extend(7, b"evil module");
        assert_eq!(tpm.unseal(&blob), Err(SecureBootError::PolicyMismatch));
    }

    #[test]
    fn unseal_ignores_unselected_pcrs() {
        let mut tpm = Tpm::new(b"seed");
        tpm.extend(7, b"kernel");
        let blob = tpm.seal(&[7], b"secret").unwrap();
        tpm.extend(10, b"unrelated ima measurement");
        assert!(tpm.unseal(&blob).is_ok());
    }

    #[test]
    fn foreign_tpm_cannot_unseal() {
        let mut tpm = Tpm::new(b"seed");
        let blob = tpm.seal(&[0], b"secret").unwrap();
        let foreign = Tpm::new(b"other");
        // Same (zero) PCR state, different storage key.
        assert_eq!(foreign.unseal(&blob), Err(SecureBootError::UnsealFailed));
    }

    #[test]
    fn forged_policy_digest_cannot_unseal() {
        let mut tpm = Tpm::new(b"seed");
        tpm.extend(7, b"kernel");
        let mut blob = tpm.seal(&[7], b"secret").unwrap();
        tpm.extend(7, b"evil");
        // Attacker rewrites the policy digest to match the *current* state;
        // the sealing key was mixed with the original digest, so decryption
        // still fails.
        blob.policy.digest = tpm.composite(&[7]).unwrap();
        assert_eq!(tpm.unseal(&blob), Err(SecureBootError::UnsealFailed));
    }

    #[test]
    fn composite_deduplicates_and_sorts() {
        let mut tpm = Tpm::new(b"seed");
        tpm.extend(1, b"a");
        tpm.extend(2, b"b");
        let d1 = tpm.composite(&[1, 2]).unwrap();
        let d2 = tpm.composite(&[2, 1, 1]).unwrap();
        assert_eq!(d1, d2);
    }

    /// Two TPMs made from one endorsement seed (two boots of one device)
    /// restart the seal counter, and a clone copies it: at one PCR
    /// state they seal under one key at one counter. Different secrets
    /// must still take different nonces, or the two ciphertexts XOR to
    /// the XOR of the two secrets.
    #[test]
    fn same_seed_and_cloned_tpms_seal_different_secrets_under_different_nonces() {
        let first_boot = Tpm::new(b"device");
        let second_boot = Tpm::new(b"device");
        let mut original = Tpm::new(b"device");
        original.seal(&[7], b"earlier secret").unwrap();
        let clone = original.clone();
        let (a, b): (&[u8], &[u8]) = (b"luks master key A", b"luks master key B");
        for (mut one, mut other) in [(first_boot, second_boot), (original, clone)] {
            let (x, y) = (one.seal(&[7], a).unwrap(), other.seal(&[7], b).unwrap());
            assert_ne!(x.nonce, y.nonce);
            let ciphertext_xor: Vec<u8> = x
                .ciphertext
                .iter()
                .zip(&y.ciphertext)
                .map(|(p, q)| p ^ q)
                .collect();
            let plaintext_xor: Vec<u8> = a.iter().zip(b).map(|(p, q)| p ^ q).collect();
            assert_ne!(ciphertext_xor.get(..a.len()), Some(&plaintext_xor[..]));
            assert_eq!(one.unseal(&x).unwrap(), a);
            assert_eq!(other.unseal(&y).unwrap(), b);
        }
    }

    #[test]
    fn distinct_seals_use_distinct_nonces() {
        let mut tpm = Tpm::new(b"seed");
        let b1 = tpm.seal(&[0], b"same secret").unwrap();
        let b2 = tpm.seal(&[0], b"same secret").unwrap();
        assert_ne!(b1, b2);
        assert_eq!(tpm.unseal(&b1).unwrap(), tpm.unseal(&b2).unwrap());
    }
}
