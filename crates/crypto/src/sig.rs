//! Hash-based digital signatures: Lamport one-time signatures composed into
//! a Merkle many-time scheme.
//!
//! The paper's platform verifies RSA/ECDSA signatures everywhere — Shim and
//! GRUB images at boot, APT repository metadata, ONIE firmware images, and
//! GENIO's own binaries. Porting big-integer RSA is out of scope for the
//! simulation, so we substitute a *hash-based* scheme whose security rests
//! only on SHA-256 (which we already carry). The verification workflow —
//! public key, detached signature, certificate binding — is identical.
//!
//! * [`LamportKeyPair`] — a one-time signature key (16 KiB private, 32-byte
//!   compact public key).
//! * [`MerkleSigner`] — `2^h` Lamport leaves under one Merkle root, good for
//!   `2^h` signatures under a single 32-byte public key.
//!
//! # Cost model, in SHA-256 compressions
//!
//! Each leaf's 512 preimages are drawn from an [`HmacDrbg`] at 8
//! compressions per 32-byte draw, and every other hash here is of at most
//! 64 bytes.
//!
//! * Sign: `512 × 8` for the preimage draws, plus 256 to hash the
//!   complements the signature reveals — about 4.4k. A leaf's preimages
//!   are drawn once per signature; the signer keeps only the Merkle tree.
//! * Verify: 256 to hash the revealed preimages, 257 to hash the 16 KiB
//!   compact-public-key preimage, and 2 per auth-path level: about
//!   `256 + 257 + 2h`.
//! * Key generation: per leaf, `512 × 8` draws, 512 preimage hashes and
//!   257 for the compact public key — about 4.9k — plus `2^h − 1` node
//!   hashes for the tree.

use crate::drbg::HmacDrbg;
use crate::hmac::HmacSha256;
use crate::sha256::{sha256, sha256_pair, Digest, Sha256};
use crate::CryptoError;

/// Number of message bits signed (SHA-256 output).
const BITS: usize = 256;

/// A Lamport one-time key pair.
///
/// The private key is 256 pairs of 32-byte preimages; the compact public key
/// is the SHA-256 digest of the 512 preimage hashes.
#[derive(Clone)]
pub struct LamportKeyPair {
    // preimages[i][b] signs bit i having value b.
    preimages: Vec<[[u8; 32]; 2]>,
    public: Digest,
    used: bool,
}

// The preimages are the private key, so only `used` is printed.
impl std::fmt::Debug for LamportKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LamportKeyPair")
            .field("used", &self.used)
            .finish_non_exhaustive()
    }
}

/// A Lamport signature: for each message bit, the revealed preimage plus the
/// hash of the complementary preimage (needed to recompute the compact
/// public key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LamportSignature {
    revealed: Vec<[u8; 32]>,
    complements: Vec<[u8; 32]>,
}

impl LamportKeyPair {
    /// Derives a key pair deterministically from `seed`.
    pub fn from_seed(seed: &[u8]) -> Self {
        let preimages: Vec<_> = preimage_pairs(seed).collect();
        let public = compact_public(preimages.iter().copied());
        LamportKeyPair {
            preimages,
            public,
            used: false,
        }
    }

    /// The 32-byte compact public key.
    pub fn public(&self) -> Digest {
        self.public
    }

    /// Signs `message` (hashed internally with SHA-256).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyExhausted`] on a second signing attempt:
    /// revealing two signatures under one Lamport key leaks enough preimages
    /// to forge, so the API enforces one-time use.
    pub fn sign(&mut self, message: &[u8]) -> crate::Result<LamportSignature> {
        if self.used {
            return Err(CryptoError::KeyExhausted);
        }
        self.used = true;
        Ok(sign_with(message, self.preimages.iter().copied()))
    }
}

impl LamportSignature {
    /// Recomputes the compact public key this signature corresponds to for
    /// `message`. Comparing the result against a trusted public key verifies
    /// the signature.
    pub fn recover_public(&self, message: &[u8]) -> Digest {
        let digest = sha256(message);
        let mut h = Sha256::new();
        for (i, (revealed, complement)) in self.revealed.iter().zip(&self.complements).enumerate() {
            let mut pair = [*complement; 2];
            pair[bit_at(&digest, i)] = sha256(revealed);
            h.update(&pair[0]);
            h.update(&pair[1]);
        }
        h.finalize()
    }

    /// Verifies this signature over `message` against `public`.
    #[must_use]
    pub fn verify(&self, message: &[u8], public: &Digest) -> bool {
        crate::ct::eq(&self.recover_public(message), public)
    }
}

fn bit_at(digest: &Digest, i: usize) -> usize {
    ((digest[i / 8] >> (7 - (i % 8))) & 1) as usize
}

/// The 256 preimage pairs of the Lamport key derived from `seed`, in bit
/// order. Key generation and Merkle signing both draw them here.
fn preimage_pairs(seed: &[u8]) -> impl Iterator<Item = [[u8; 32]; 2]> {
    let mut rng = HmacDrbg::new(seed);
    (0..BITS).map(move |_| [rng.array32(), rng.array32()])
}

/// The compact public key: SHA-256 over the hashes of every preimage,
/// streamed into one hasher.
fn compact_public(pairs: impl Iterator<Item = [[u8; 32]; 2]>) -> Digest {
    let mut h = Sha256::new();
    for [p0, p1] in pairs {
        h.update(&sha256(&p0));
        h.update(&sha256(&p1));
    }
    h.finalize()
}

/// Signs `message` with the key whose preimage pairs are `pairs`: reveals
/// one preimage per digest bit and hashes only the other one.
fn sign_with(message: &[u8], pairs: impl Iterator<Item = [[u8; 32]; 2]>) -> LamportSignature {
    let digest = sha256(message);
    let mut revealed = Vec::with_capacity(BITS);
    let mut complements = Vec::with_capacity(BITS);
    for (i, pair) in pairs.enumerate() {
        let bit = bit_at(&digest, i);
        revealed.push(pair[bit]);
        complements.push(sha256(&pair[1 - bit]));
    }
    LamportSignature {
        revealed,
        complements,
    }
}

/// A Merkle many-time signer: `2^height` Lamport leaves under one root.
///
/// # Example
///
/// ```
/// use genio_crypto::sig::MerkleSigner;
///
/// # fn main() -> Result<(), genio_crypto::CryptoError> {
/// let mut signer = MerkleSigner::from_seed(b"update-signing-key", 3);
/// let public = signer.public();
/// let sig = signer.sign(b"onie-image-v2")?;
/// assert!(sig.verify(b"onie-image-v2", &public));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct MerkleSigner {
    seed: Vec<u8>,
    height: u32,
    next_leaf: u64,
    // tree[0] = leaves, tree[h] = [root]
    tree: Vec<Vec<Digest>>,
}

// The seed is the whole private key, so only the key's shape and its use
// are printed.
impl std::fmt::Debug for MerkleSigner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MerkleSigner")
            .field("height", &self.height)
            .field("next_leaf", &self.next_leaf)
            .finish_non_exhaustive()
    }
}

/// The 32-byte public key of a [`MerkleSigner`] (the Merkle root).
pub type MerklePublicKey = Digest;

/// Copies `N` bytes starting at `off` into a fixed array, zero-filling
/// past the end of `bytes` instead of panicking (callers length-check
/// first, so the fill branch is dead in practice).
fn take_arr<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(bytes.iter().skip(off)) {
        *dst = *src;
    }
    out
}

/// A signature produced by [`MerkleSigner::sign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleSignature {
    leaf_index: u64,
    ots: LamportSignature,
    auth_path: Vec<Digest>,
}

impl MerkleSigner {
    /// Builds a signer with `2^height` one-time leaves from `seed`.
    ///
    /// Key generation derives every leaf's compact public key: per leaf
    /// 512 DRBG draws (8 compressions each), 512 preimage hashes and the
    /// 257-compression compact-key hash, about 4.9k SHA-256 compressions
    /// in all, so keep `height` modest (≤ 10) in tests.
    ///
    /// # Panics
    ///
    /// Panics if `height > 20`.
    pub fn from_seed(seed: &[u8], height: u32) -> Self {
        assert!(height <= 20, "merkle tree height too large");
        let leaves = 1u64 << height;
        let mut level: Vec<Digest> = (0..leaves)
            .map(|i| compact_public(preimage_pairs(&leaf_seed(seed, i))))
            .collect();
        let mut tree = vec![level.clone()];
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| sha256_pair(&pair[0], &pair[1]))
                .collect();
            tree.push(level.clone());
        }
        MerkleSigner {
            seed: seed.to_vec(),
            height,
            next_leaf: 0,
            tree,
        }
    }

    /// The Merkle root, i.e. the long-lived public key.
    pub fn public(&self) -> MerklePublicKey {
        // The constructor always builds a non-empty root level; the
        // zero-digest fallback keeps verification failing closed.
        self.tree
            .last()
            .and_then(|level| level.first())
            .copied()
            .unwrap_or_default()
    }

    /// Number of signatures still available.
    pub fn remaining(&self) -> u64 {
        (1u64 << self.height) - self.next_leaf
    }

    /// Signs `message` with the next unused leaf.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyExhausted`] when all `2^height` leaves have
    /// been consumed.
    pub fn sign(&mut self, message: &[u8]) -> crate::Result<MerkleSignature> {
        if self.next_leaf >= 1u64 << self.height {
            return Err(CryptoError::KeyExhausted);
        }
        let index = self.next_leaf;
        self.next_leaf += 1;
        let ots = sign_with(message, preimage_pairs(&leaf_seed(&self.seed, index)));
        let mut auth_path = Vec::with_capacity(self.height as usize);
        let mut node = index as usize;
        for level in 0..self.height as usize {
            let sibling = node ^ 1;
            auth_path.push(self.tree[level][sibling]);
            node >>= 1;
        }
        Ok(MerkleSignature {
            leaf_index: index,
            ots,
            auth_path,
        })
    }
}

impl MerkleSignature {
    /// Verifies the signature over `message` against the Merkle root
    /// `public`.
    ///
    /// A `leaf_index` with bits above the auth path's height names no
    /// leaf of the tree, so it fails: otherwise those bits could be set
    /// freely and one signature would have many valid encodings.
    #[must_use]
    pub fn verify(&self, message: &[u8], public: &MerklePublicKey) -> bool {
        let height = u32::try_from(self.auth_path.len()).unwrap_or(u32::MAX);
        if self.leaf_index.checked_shr(height).unwrap_or(0) != 0 {
            return false;
        }
        let mut node = self.ots.recover_public(message);
        let mut index = self.leaf_index;
        for sibling in &self.auth_path {
            node = if index & 1 == 0 {
                sha256_pair(&node, sibling)
            } else {
                sha256_pair(sibling, &node)
            };
            index >>= 1;
        }
        crate::ct::eq(&node, public)
    }

    /// The index of the one-time leaf that produced this signature.
    pub fn leaf_index(&self) -> u64 {
        self.leaf_index
    }

    /// Serializes to a self-describing byte string (for detached-signature
    /// files in the supply-chain substrate).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.leaf_index.to_be_bytes());
        out.extend_from_slice(&(self.auth_path.len() as u32).to_be_bytes());
        for r in &self.ots.revealed {
            out.extend_from_slice(r);
        }
        for c in &self.ots.complements {
            out.extend_from_slice(c);
        }
        for a in &self.auth_path {
            out.extend_from_slice(a);
        }
        out
    }

    /// Parses the format produced by [`MerkleSignature::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] if the buffer has the wrong size or
    /// an implausible header.
    // take_arr never panics on a short buffer (callers length-check
    // first, so the zero-fill branch is dead in practice).
    pub fn from_bytes(bytes: &[u8]) -> crate::Result<Self> {
        const HDR: usize = 8 + 4;
        if bytes.len() < HDR {
            return Err(CryptoError::Malformed("merkle signature header"));
        }
        let leaf_index = u64::from_be_bytes(take_arr(bytes, 0));
        let path_len = u32::from_be_bytes(take_arr::<4>(bytes, 8)) as usize;
        if path_len > 64 {
            return Err(CryptoError::Malformed("merkle signature path length"));
        }
        let expected = HDR + BITS * 32 * 2 + path_len * 32;
        if bytes.len() != expected {
            return Err(CryptoError::Malformed("merkle signature length"));
        }
        let mut off = HDR;
        let mut take32 = |bytes: &[u8]| -> [u8; 32] {
            let arr: [u8; 32] = take_arr(bytes, off);
            off += 32;
            arr
        };
        let revealed: Vec<[u8; 32]> = (0..BITS).map(|_| take32(bytes)).collect();
        let complements: Vec<[u8; 32]> = (0..BITS).map(|_| take32(bytes)).collect();
        let auth_path: Vec<Digest> = (0..path_len).map(|_| take32(bytes)).collect();
        Ok(MerkleSignature {
            leaf_index,
            ots: LamportSignature {
                revealed,
                complements,
            },
            auth_path,
        })
    }
}

fn leaf_seed(seed: &[u8], index: u64) -> Vec<u8> {
    let mut mac = HmacSha256::new(seed);
    mac.update(b"genio-merkle-leaf");
    mac.update(&index.to_be_bytes());
    mac.finalize().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lamport_sign_verify() {
        let mut kp = LamportKeyPair::from_seed(b"leaf-0");
        let public = kp.public();
        let sig = kp.sign(b"hello").unwrap();
        assert!(sig.verify(b"hello", &public));
        assert!(!sig.verify(b"hellp", &public));
    }

    #[test]
    fn lamport_one_time_enforced() {
        let mut kp = LamportKeyPair::from_seed(b"leaf-0");
        kp.sign(b"first").unwrap();
        assert_eq!(kp.sign(b"second"), Err(CryptoError::KeyExhausted));
    }

    #[test]
    fn lamport_tampered_signature_fails() {
        let mut kp = LamportKeyPair::from_seed(b"leaf-1");
        let public = kp.public();
        let mut sig = kp.sign(b"msg").unwrap();
        sig.revealed[0][0] ^= 1;
        assert!(!sig.verify(b"msg", &public));
    }

    #[test]
    fn merkle_multiple_signatures() {
        let mut signer = MerkleSigner::from_seed(b"ca", 2);
        let public = signer.public();
        for i in 0..4u32 {
            let msg = format!("message {i}");
            let sig = signer.sign(msg.as_bytes()).unwrap();
            assert!(sig.verify(msg.as_bytes(), &public), "sig {i}");
            assert_eq!(sig.leaf_index(), i as u64);
        }
        assert_eq!(signer.sign(b"fifth"), Err(CryptoError::KeyExhausted));
    }

    #[test]
    fn merkle_remaining_counts_down() {
        let mut signer = MerkleSigner::from_seed(b"ca", 2);
        assert_eq!(signer.remaining(), 4);
        signer.sign(b"x").unwrap();
        assert_eq!(signer.remaining(), 3);
    }

    #[test]
    fn merkle_wrong_message_fails() {
        let mut signer = MerkleSigner::from_seed(b"ca", 1);
        let public = signer.public();
        let sig = signer.sign(b"genuine").unwrap();
        assert!(!sig.verify(b"forged", &public));
    }

    #[test]
    fn merkle_wrong_root_fails() {
        let mut signer = MerkleSigner::from_seed(b"ca-a", 1);
        let other = MerkleSigner::from_seed(b"ca-b", 1);
        let sig = signer.sign(b"msg").unwrap();
        assert!(!sig.verify(b"msg", &other.public()));
    }

    #[test]
    fn signature_roundtrips_through_bytes() {
        let mut signer = MerkleSigner::from_seed(b"serialize", 2);
        let public = signer.public();
        let sig = signer.sign(b"payload").unwrap();
        let bytes = sig.to_bytes();
        let parsed = MerkleSignature::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, sig);
        assert!(parsed.verify(b"payload", &public));
    }

    #[test]
    fn from_bytes_rejects_truncation_and_garbage() {
        let mut signer = MerkleSigner::from_seed(b"serialize", 1);
        let bytes = signer.sign(b"p").unwrap().to_bytes();
        assert!(MerkleSignature::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(MerkleSignature::from_bytes(&[]).is_err());
        let mut huge_path = bytes.clone();
        huge_path[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(MerkleSignature::from_bytes(&huge_path).is_err());
    }

    #[test]
    fn leaf_index_above_the_tree_does_not_verify() {
        let mut signer = MerkleSigner::from_seed(b"malleable", 2);
        let public = signer.public();
        let bytes = signer.sign(b"payload").unwrap().to_bytes();
        let mut flipped = bytes.clone();
        flipped[0] ^= 0x80; // bit 63 of the big-endian leaf index
        let parsed = MerkleSignature::from_bytes(&flipped).unwrap();
        assert_eq!(parsed.leaf_index(), 1 << 63);
        assert!(!parsed.verify(b"payload", &public));
        let mut leaf_4 = bytes;
        leaf_4[7] |= 4; // leaf 4 of a 4-leaf tree
        assert!(!MerkleSignature::from_bytes(&leaf_4)
            .unwrap()
            .verify(b"payload", &public));
    }

    #[test]
    fn full_height_path_does_not_overflow_the_index_check() {
        // With 64 auth-path entries every u64 index fits, and the check
        // must not shift by 64.
        let mut signer = MerkleSigner::from_seed(b"tall", 1);
        let mut sig = signer.sign(b"m").unwrap();
        sig.auth_path.resize(64, [0u8; 32]);
        sig.leaf_index = u64::MAX;
        let parsed = MerkleSignature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(!parsed.verify(b"m", &signer.public()));
    }

    #[test]
    fn debug_does_not_depend_on_the_seed() {
        let a = MerkleSigner::from_seed(b"seed-a", 1);
        let b = MerkleSigner::from_seed(b"seed-b", 1);
        assert_ne!(a.public(), b.public());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            format!("{a:?}"),
            "MerkleSigner { height: 1, next_leaf: 0, .. }"
        );
        let a = LamportKeyPair::from_seed(b"seed-a");
        let b = LamportKeyPair::from_seed(b"seed-b");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{a:?}"), "LamportKeyPair { used: false, .. }");
    }

    #[test]
    fn deterministic_public_key() {
        let a = MerkleSigner::from_seed(b"same-seed", 2);
        let b = MerkleSigner::from_seed(b"same-seed", 2);
        assert_eq!(a.public(), b.public());
    }
}
