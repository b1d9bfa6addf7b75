//! LUKS-like encrypted volumes with passphrase and TPM-bound key slots
//! (mitigation **M6**).
//!
//! GENIO encrypts OLT data partitions with LUKS and plans Clevis to unwrap
//! the key automatically when TPM PCRs confirm system integrity. The
//! paper's **Lesson 3** records the field reality: the libraries Clevis
//! needs are unavailable on ONL (Debian 10), forcing *manual passphrase
//! entry at boot*, which is impractical for in-field OLT nodes. The
//! [`PlatformSupport`] switch reproduces that failure mode so experiment
//! E-L3 can quantify it across a simulated fleet.

use std::collections::HashMap;

use genio_crypto::gcm::AesGcm;
use genio_crypto::hkdf;

use crate::tpm::{SealedBlob, Tpm};
use crate::SecureBootError;

/// Which optional dependency stacks the host OS actually provides.
#[derive(Debug, Clone, Copy)]
pub struct PlatformSupport {
    /// True when the Clevis/TPM userspace stack is installed and working.
    /// False models ONL/Debian 10 (Lesson 3).
    pub clevis_available: bool,
}

impl Default for PlatformSupport {
    fn default() -> Self {
        PlatformSupport {
            clevis_available: true,
        }
    }
}

/// How a volume ended up unlocked at boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnlockMethod {
    /// TPM released the key automatically (Clevis path).
    TpmAutomatic,
    /// A human typed a passphrase.
    ManualPassphrase,
}

#[derive(Debug)]
enum KeySlot {
    Passphrase {
        salt: [u8; 16],
        wrapped: Vec<u8>,
        nonce: [u8; 12],
    },
    TpmBound {
        blob: SealedBlob,
    },
}

/// An encrypted volume with LUKS-style key slots.
///
/// # Example
///
/// ```
/// use genio_secureboot::luks::{LuksVolume, PlatformSupport};
/// use genio_secureboot::tpm::Tpm;
///
/// # fn main() -> Result<(), genio_secureboot::SecureBootError> {
/// let mut vol = LuksVolume::format(b"olt-7-data");
/// vol.add_passphrase_slot("recovery", "correct horse battery staple")?;
/// vol.lock();
/// vol.unlock_with_passphrase("correct horse battery staple")?;
/// let ct = vol.encrypt_block(0, b"tenant database page")?;
/// assert_eq!(vol.decrypt_block(0, &ct)?, b"tenant database page");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LuksVolume {
    master: Option<[u8; 32]>,
    #[cfg_attr(not(test), allow(dead_code))]
    master_at_format: [u8; 32],
    slots: HashMap<String, KeySlot>,
    seed: Vec<u8>,
    nonce_counter: u64,
}

impl LuksVolume {
    /// Formats a new volume, deriving its master key from `seed`. The
    /// volume starts unlocked (as right after `cryptsetup luksFormat`).
    pub fn format(seed: &[u8]) -> Self {
        let master: [u8; 32] = hkdf::derive(b"luks-master", seed, b"volume", 32)
            .try_into()
            .expect("32 bytes");
        LuksVolume {
            master: Some(master),
            master_at_format: master,
            slots: HashMap::new(),
            seed: seed.to_vec(),
            nonce_counter: 0,
        }
    }

    /// True when the master key is present in memory.
    pub fn is_unlocked(&self) -> bool {
        self.master.is_some()
    }

    /// Drops the in-memory master key (reboot / `cryptsetup close`).
    pub fn lock(&mut self) {
        self.master = None;
    }

    /// Number of provisioned key slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Adds a passphrase-protected key slot.
    ///
    /// The slot wraps the master key under the fixed nonce `[0x5a; 12]`,
    /// which is safe only because each KEK ever seals one plaintext:
    ///
    /// * the KEK is HKDF over the passphrase and a salt derived from
    ///   (volume seed, label);
    /// * the master key is HKDF of the same seed, so every wrap under a
    ///   given KEK seals the same master key;
    /// * a label holds one slot ([`SecureBootError::DuplicateSlot`]).
    ///
    /// A repeated (KEK, nonce) pair therefore only repeats a byte-identical
    /// wrap. A master key that does not follow from the seed (drawn at
    /// random, or re-keyed) would need a fresh nonce per wrap.
    ///
    /// # Errors
    ///
    /// * [`SecureBootError::VolumeLocked`] if the volume is locked.
    /// * [`SecureBootError::DuplicateSlot`] if the label exists.
    pub fn add_passphrase_slot(&mut self, label: &str, passphrase: &str) -> crate::Result<()> {
        let master = self.master.ok_or(SecureBootError::VolumeLocked)?;
        if self.slots.contains_key(label) {
            return Err(SecureBootError::DuplicateSlot(label.to_string()));
        }
        let salt: [u8; 16] = hkdf::derive(&self.seed, label.as_bytes(), b"salt", 16)
            .try_into()
            .expect("16 bytes");
        let kek = derive_kek(passphrase, &salt);
        let aead = AesGcm::new(&kek).expect("16-byte key");
        let nonce = [0x5au8; 12];
        let wrapped = aead.seal(&nonce, &master, b"luks-slot");
        self.slots.insert(
            label.to_string(),
            KeySlot::Passphrase {
                salt,
                wrapped,
                nonce,
            },
        );
        Ok(())
    }

    /// Adds a Clevis-style TPM-bound slot sealing the master key to the
    /// current values of `pcr_selection`.
    ///
    /// # Errors
    ///
    /// * [`SecureBootError::MechanismUnavailable`] when the platform lacks
    ///   the Clevis stack (Lesson 3).
    /// * [`SecureBootError::VolumeLocked`] / [`SecureBootError::DuplicateSlot`]
    ///   as for passphrase slots.
    pub fn add_tpm_slot(
        &mut self,
        label: &str,
        tpm: &mut Tpm,
        pcr_selection: &[usize],
        support: &PlatformSupport,
    ) -> crate::Result<()> {
        if !support.clevis_available {
            return Err(SecureBootError::MechanismUnavailable(
                "clevis/tpm2-tools stack not installed",
            ));
        }
        let master = self.master.ok_or(SecureBootError::VolumeLocked)?;
        if self.slots.contains_key(label) {
            return Err(SecureBootError::DuplicateSlot(label.to_string()));
        }
        let blob = tpm.seal(pcr_selection, &master)?;
        self.slots
            .insert(label.to_string(), KeySlot::TpmBound { blob });
        Ok(())
    }

    /// Unlocks with a passphrase, trying every passphrase slot.
    ///
    /// # Errors
    ///
    /// [`SecureBootError::NoMatchingKeySlot`] when no slot opens.
    pub fn unlock_with_passphrase(&mut self, passphrase: &str) -> crate::Result<()> {
        for slot in self.slots.values() {
            if let KeySlot::Passphrase {
                salt,
                wrapped,
                nonce,
            } = slot
            {
                let kek = derive_kek(passphrase, salt);
                let aead = AesGcm::new(&kek).expect("16-byte key");
                if let Ok(master) = aead.open(nonce, wrapped, b"luks-slot") {
                    self.master = Some(master.try_into().expect("32-byte master"));
                    return Ok(());
                }
            }
        }
        Err(SecureBootError::NoMatchingKeySlot)
    }

    /// Unlocks via a TPM-bound slot, succeeding only when the sealed PCR
    /// policy holds.
    ///
    /// # Errors
    ///
    /// [`SecureBootError::NoMatchingKeySlot`] when no TPM slot unseals
    /// (wrong PCR state or no TPM slot provisioned).
    pub fn unlock_with_tpm(&mut self, tpm: &Tpm) -> crate::Result<()> {
        for slot in self.slots.values() {
            if let KeySlot::TpmBound { blob } = slot {
                if let Ok(master) = tpm.unseal(blob) {
                    self.master = Some(master.try_into().expect("32-byte master"));
                    return Ok(());
                }
            }
        }
        Err(SecureBootError::NoMatchingKeySlot)
    }

    /// Boot-time unlock flow: try TPM auto-unlock first (when the platform
    /// supports it), fall back to the supplied console passphrase.
    ///
    /// Returns which method succeeded, so fleets can count how many nodes
    /// needed a human (the Lesson 3 metric).
    ///
    /// # Errors
    ///
    /// [`SecureBootError::NoMatchingKeySlot`] when neither path works.
    pub fn boot_unlock(
        &mut self,
        tpm: &Tpm,
        support: &PlatformSupport,
        console_passphrase: Option<&str>,
    ) -> crate::Result<UnlockMethod> {
        if support.clevis_available && self.unlock_with_tpm(tpm).is_ok() {
            return Ok(UnlockMethod::TpmAutomatic);
        }
        if let Some(pw) = console_passphrase {
            if self.unlock_with_passphrase(pw).is_ok() {
                return Ok(UnlockMethod::ManualPassphrase);
            }
        }
        Err(SecureBootError::NoMatchingKeySlot)
    }

    /// Encrypts one logical block.
    ///
    /// # Errors
    ///
    /// [`SecureBootError::VolumeLocked`] when locked.
    pub fn encrypt_block(&mut self, block_index: u64, plaintext: &[u8]) -> crate::Result<Vec<u8>> {
        let master = self.master.ok_or(SecureBootError::VolumeLocked)?;
        let aead = AesGcm::new(&master[..16]).expect("16-byte key");
        let nonce = block_nonce(block_index, self.nonce_counter);
        self.nonce_counter += 1;
        let mut out = nonce.to_vec();
        out.extend_from_slice(&aead.seal(&nonce, plaintext, &block_index.to_be_bytes()));
        Ok(out)
    }

    /// Decrypts one logical block previously produced by
    /// [`LuksVolume::encrypt_block`] with the same `block_index`.
    ///
    /// # Errors
    ///
    /// * [`SecureBootError::VolumeLocked`] when locked.
    /// * [`SecureBootError::UnsealFailed`] on corrupt ciphertext.
    pub fn decrypt_block(&self, block_index: u64, ciphertext: &[u8]) -> crate::Result<Vec<u8>> {
        let master = self.master.ok_or(SecureBootError::VolumeLocked)?;
        if ciphertext.len() < 12 {
            return Err(SecureBootError::UnsealFailed);
        }
        let aead = AesGcm::new(&master[..16]).expect("16-byte key");
        let nonce: [u8; 12] = ciphertext[..12].try_into().expect("12 bytes");
        aead.open(&nonce, &ciphertext[12..], &block_index.to_be_bytes())
            .map_err(|_| SecureBootError::UnsealFailed)
    }

    #[cfg(test)]
    fn master_matches_format(&self) -> bool {
        self.master == Some(self.master_at_format)
    }
}

fn derive_kek(passphrase: &str, salt: &[u8; 16]) -> [u8; 16] {
    // Stand-in for PBKDF2/argon2: HKDF with a salt. Hardness is not the
    // point of the simulation; the key-wrapping structure is.
    hkdf::derive(salt, passphrase.as_bytes(), b"kek", 16)
        .try_into()
        .expect("16 bytes")
}

fn block_nonce(block_index: u64, counter: u64) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[0..4].copy_from_slice(&(block_index as u32).to_be_bytes());
    n[4..12].copy_from_slice(&counter.to_be_bytes());
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passphrase_unlock_roundtrip() {
        let mut vol = LuksVolume::format(b"vol");
        vol.add_passphrase_slot("admin", "s3cret").unwrap();
        vol.lock();
        assert!(!vol.is_unlocked());
        vol.unlock_with_passphrase("s3cret").unwrap();
        assert!(vol.is_unlocked());
        assert!(vol.master_matches_format());
    }

    #[test]
    fn fixed_slot_nonce_only_ever_rewraps_the_same_master() {
        let wrap = |seed: &[u8], label: &str| {
            let mut vol = LuksVolume::format(seed);
            vol.add_passphrase_slot(label, "s3cret").unwrap();
            let Some(KeySlot::Passphrase { wrapped, .. }) = vol.slots.remove(label) else {
                panic!("{label} is not a passphrase slot");
            };
            wrapped
        };
        // One seed, label and passphrase: one KEK, one master, one wrap.
        assert_eq!(wrap(b"vol", "admin"), wrap(b"vol", "admin"));
        assert_ne!(wrap(b"vol", "admin"), wrap(b"vol", "recovery"));
    }

    #[test]
    fn wrong_passphrase_rejected() {
        let mut vol = LuksVolume::format(b"vol");
        vol.add_passphrase_slot("admin", "s3cret").unwrap();
        vol.lock();
        assert_eq!(
            vol.unlock_with_passphrase("guess"),
            Err(SecureBootError::NoMatchingKeySlot)
        );
        assert!(!vol.is_unlocked());
    }

    #[test]
    fn tpm_unlock_requires_matching_pcrs() {
        let mut vol = LuksVolume::format(b"vol");
        let mut tpm = Tpm::new(b"device");
        tpm.extend(8, b"kernel");
        vol.add_tpm_slot("clevis", &mut tpm, &[8], &PlatformSupport::default())
            .unwrap();
        vol.lock();
        vol.unlock_with_tpm(&tpm).unwrap();
        assert!(vol.master_matches_format());
        // Tampered kernel → PCR diverges → no auto-unlock.
        vol.lock();
        tpm.extend(8, b"rootkit");
        assert_eq!(
            vol.unlock_with_tpm(&tpm),
            Err(SecureBootError::NoMatchingKeySlot)
        );
    }

    #[test]
    fn clevis_unavailable_blocks_tpm_slot() {
        // Lesson 3: ONL/Debian 10 lacks the Clevis stack.
        let mut vol = LuksVolume::format(b"vol");
        let mut tpm = Tpm::new(b"device");
        let onl = PlatformSupport {
            clevis_available: false,
        };
        assert_eq!(
            vol.add_tpm_slot("clevis", &mut tpm, &[8], &onl),
            Err(SecureBootError::MechanismUnavailable(
                "clevis/tpm2-tools stack not installed"
            ))
        );
    }

    #[test]
    fn boot_unlock_prefers_tpm_then_falls_back() {
        let mut vol = LuksVolume::format(b"vol");
        let mut tpm = Tpm::new(b"device");
        tpm.extend(8, b"kernel");
        let modern = PlatformSupport::default();
        vol.add_tpm_slot("clevis", &mut tpm, &[8], &modern).unwrap();
        vol.add_passphrase_slot("recovery", "pw").unwrap();
        vol.lock();
        assert_eq!(
            vol.boot_unlock(&tpm, &modern, Some("pw")).unwrap(),
            UnlockMethod::TpmAutomatic
        );
        // On the ONL platform the Clevis path is skipped entirely.
        vol.lock();
        let onl = PlatformSupport {
            clevis_available: false,
        };
        assert_eq!(
            vol.boot_unlock(&tpm, &onl, Some("pw")).unwrap(),
            UnlockMethod::ManualPassphrase
        );
        // And with nobody at the console, the node stays locked.
        vol.lock();
        assert_eq!(
            vol.boot_unlock(&tpm, &onl, None),
            Err(SecureBootError::NoMatchingKeySlot)
        );
    }

    #[test]
    fn block_encryption_roundtrip_and_tamper() {
        let mut vol = LuksVolume::format(b"vol");
        let ct = vol.encrypt_block(5, b"page data").unwrap();
        assert_eq!(vol.decrypt_block(5, &ct).unwrap(), b"page data");
        // Wrong block index (ciphertext relocation attack) fails.
        assert_eq!(
            vol.decrypt_block(6, &ct),
            Err(SecureBootError::UnsealFailed)
        );
        // Bit flip fails.
        let mut bad = ct.clone();
        bad[14] ^= 1;
        assert_eq!(
            vol.decrypt_block(5, &bad),
            Err(SecureBootError::UnsealFailed)
        );
    }

    #[test]
    fn locked_volume_refuses_io_and_slot_changes() {
        let mut vol = LuksVolume::format(b"vol");
        vol.lock();
        assert_eq!(
            vol.encrypt_block(0, b"x").unwrap_err(),
            SecureBootError::VolumeLocked
        );
        assert_eq!(
            vol.decrypt_block(0, &[0u8; 32]).unwrap_err(),
            SecureBootError::VolumeLocked
        );
        assert_eq!(
            vol.add_passphrase_slot("l", "p").unwrap_err(),
            SecureBootError::VolumeLocked
        );
    }

    #[test]
    fn duplicate_slot_labels_rejected() {
        let mut vol = LuksVolume::format(b"vol");
        vol.add_passphrase_slot("a", "p1").unwrap();
        assert_eq!(
            vol.add_passphrase_slot("a", "p2"),
            Err(SecureBootError::DuplicateSlot("a".into()))
        );
        assert_eq!(vol.slot_count(), 1);
    }

    #[test]
    fn multiple_slots_both_work() {
        let mut vol = LuksVolume::format(b"vol");
        vol.add_passphrase_slot("admin", "pw-a").unwrap();
        vol.add_passphrase_slot("recovery", "pw-r").unwrap();
        vol.lock();
        vol.unlock_with_passphrase("pw-r").unwrap();
        vol.lock();
        vol.unlock_with_passphrase("pw-a").unwrap();
    }

    #[test]
    fn distinct_blocks_distinct_ciphertexts() {
        let mut vol = LuksVolume::format(b"vol");
        let c1 = vol.encrypt_block(1, b"same").unwrap();
        let c2 = vol.encrypt_block(1, b"same").unwrap();
        assert_ne!(c1, c2, "fresh nonce per write");
    }
}
