//! Hash-based digital signatures: Winternitz one-time signatures (LM-OTS,
//! RFC 8554 §4) composed into a Merkle many-time scheme.
//!
//! The paper's platform verifies RSA/ECDSA signatures everywhere — Shim and
//! GRUB images at boot, APT repository metadata, ONIE firmware images, and
//! GENIO's own binaries. Porting big-integer RSA is out of scope for the
//! simulation, so we substitute a *hash-based* scheme whose security rests
//! only on SHA-256 (which we already carry). The verification workflow —
//! public key, detached signature, certificate binding — is identical, and
//! NIST SP 800-208 approves stateful hash-based signatures of this shape
//! for firmware and image signing.
//!
//! A [`MerkleSigner`] holds `2^h` one-time leaves under one Merkle root,
//! good for `2^h` signatures under a single 32-byte public key. Each leaf is
//! an LM-OTS key with RFC 8554's `LMOTS_SHA256_N32_W2` parameters: `n` = 32,
//! `w` = 2, `p` = 133 hash chains (128 message digits and 5 checksum
//! digits), `ls` = 6.
//!
//! * **Key material.** HMAC-SHA256 of the signer's seed under two labels
//!   gives a 16-byte identifier `I` and a 32-byte `SEED`.
//! * **Chains.** Chain `i` of leaf `q` starts at
//!   `x = H(I ‖ u32(q) ‖ u16(i) ‖ 0xff ‖ SEED)` (RFC 8554 Appendix A), and
//!   step `j` maps `tmp` to `H(I ‖ u32(q) ‖ u16(i) ‖ u8(j) ‖ tmp)`. Both
//!   inputs are 55 bytes, so each is one compression. After 3 steps a
//!   chain reaches its public end `y[i]`.
//! * **Leaf key.** `K = H(I ‖ u32(q) ‖ D_PBLC ‖ y[0] ‖ … ‖ y[132])`. The
//!   tree's leaves are the `K`s and its nodes are `H(left ‖ right)`.
//! * **Signing.** `Q = H(I ‖ u32(q) ‖ D_MESG ‖ message)`. Its 128 base-4
//!   digits, then the 5 digits of the checksum `Σ(3 − aᵢ) << 6`, say how
//!   far each chain is advanced from its head; the signature carries the
//!   advanced values. The checksum stops a forger from advancing chains:
//!   raising any message digit lowers the checksum, and a chain cannot be
//!   walked back.
//! * **Verifying** walks each chain the rest of the way to its end,
//!   rebuilds `K` and climbs the auth path to the root.
//!
//! Unlike RFC 8554, `Q` takes no randomizer `C`, so security rests on
//! SHA-256's collision resistance, not only on its second-preimage
//! resistance. The wire format is
//! `leaf_index u64 ‖ path_len u32 ‖ I ‖ y[0..133] ‖ auth path`: 4,476 bytes
//! at height 6. `I` travels in the signature because the public key is only
//! the root; a wrong `I` changes `K`, so verification fails at the root.
//!
//! # Cost model, in SHA-256 compressions
//!
//! Every chain hash is one compression, `K` is 67 and `Q` is
//! `⌈(len + 31) / 64⌉` for a `len`-byte message.
//!
//! * Sign: 133 chain heads plus `Σ aᵢ` steps (about 195 on average), plus
//!   `Q`: about 333. The signer keeps only `I`, `SEED` and the tree.
//! * Verify, cold: `399 − Σ aᵢ` steps (about 205), 67 for `K`, `Q`, and 2
//!   per auth-path level: about 280 at height 6.
//! * Verify, answered by the memo below: `Q` alone, 1–2 compressions for a
//!   certificate's `tbs` or a transcript hash.
//! * Key generation: per leaf, 133 heads, 399 steps and 67 for `K`, about
//!   600, plus `2^h − 1` node hashes of 2 compressions for the tree.
//!
//! # A signature remembers the key and `Q` it verified
//!
//! A [`MerkleSignature`] is an immutable, shared value. Only
//! [`MerkleSigner::sign`] and [`MerkleSignature::from_bytes`] build its
//! payload (the leaf index, `I`, the 133 chain values and the auth path),
//! behind one `Arc` that clones share. The same `Arc` holds a memo of one
//! key and one `Q`. [`MerkleSignature::verify`] computes `Q` first; if the
//! memo holds the same key and the same `Q`, it returns `true` there.
//! Otherwise it walks the chains and climbs, and only a climb that reaches
//! the key fills the memo, with that key and `Q`. A failed verify records
//! nothing, and a signature parsed from bytes starts with an empty memo.
//!
//! The memo changes no answer. A verify's outcome is a pure function of the
//! payload's bytes, `Q` and the key. The payload cannot change once built,
//! and `Q` binds the message to the payload's own `I` and leaf. So a (key,
//! `Q`) that verified once verifies again, and a memo kept beside the bytes
//! it is about cannot vouch for other bytes. Nothing outside `verify` can
//! set a memo: a clone that carries one across the simulated wire carries a
//! fact about its bytes that any holder would recompute, not a claim made
//! by its sender. Equality, `Debug` and [`MerkleSignature::to_bytes`]
//! ignore the memo. Bitcoin Core's signature cache rests on the same fact.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::hmac::HmacSha256;
use crate::sha256::{sha256, sha256_pair, Digest, Sha256};
use crate::CryptoError;

/// Bytes of a hash output and of every chain value (RFC 8554's `n`).
const N: usize = 32;
/// Bits per Winternitz digit (RFC 8554's `w`).
const W: usize = 2;
/// The last step of a chain, `2^w − 1`, and the largest digit.
const CHAIN_MAX: u8 = (1 << W) - 1;
/// Digits of the message hash `Q`.
const MSG_DIGITS: usize = N * 8 / W;
/// Digits of the checksum, enough for `MSG_DIGITS × CHAIN_MAX` = 384.
const CHECKSUM_DIGITS: usize = 5;
/// Number of chains per leaf (RFC 8554's `p`).
const P: usize = MSG_DIGITS + CHECKSUM_DIGITS;
/// Left shift that puts the checksum's digits at the top of its 16 bits
/// (RFC 8554's `ls`).
const LS: usize = 16 - CHECKSUM_DIGITS * W;
/// Bytes of a signature's header: `leaf_index u64 ‖ path_len u32`.
const HEADER_LEN: usize = 8 + 4;
/// Bytes of the key identifier `I`.
const ID_LEN: usize = 16;
/// `I ‖ u32(q)`, the prefix of every hash of leaf `q`.
const PREFIX_LEN: usize = ID_LEN + 4;
/// `I ‖ u32(q) ‖ u16(i) ‖ u8(j) ‖ value`, the input of a chain hash.
const CHAIN_INPUT_LEN: usize = PREFIX_LEN + 3 + N;
/// The `j` of a chain-head derivation (RFC 8554 Appendix A).
const HEAD: u8 = 0xff;
/// Domain separator of the leaf key `K` (RFC 8554 §4.3).
const D_PBLC: [u8; 2] = [0x80, 0x80];
/// Domain separator of the message hash `Q` (RFC 8554 §4.4).
const D_MESG: [u8; 2] = [0x81, 0x81];
/// The tallest tree a [`MerkleSigner`] builds: it keeps every leaf number
/// `q` in a `u32` and key generation within about 6.3 × 10⁸ compressions.
pub(crate) const MAX_HEIGHT: u32 = 20;

// A chain hash fits one block with its padding, and the shifted checksum
// fits its 16 bits.
const _: () = assert!(CHAIN_INPUT_LEN <= 64 - 9);
const _: () = assert!((MSG_DIGITS * CHAIN_MAX as usize) << LS < 1 << 16);

/// A Merkle many-time signer: `2^height` LM-OTS leaves under one root.
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
    id: [u8; ID_LEN],
    ots_seed: Digest,
    height: u32,
    // RFC 8554's leaf number `q`; `height` ≤ 20 keeps it in a u32.
    next_leaf: u32,
    // tree[0] = leaves, tree[h] = [root]
    tree: Vec<Vec<Digest>>,
}

// `SEED` is the whole private key, so only the key's shape and its use
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

/// A signature produced by [`MerkleSigner::sign`] or parsed by
/// [`MerkleSignature::from_bytes`].
///
/// Immutable: clones share one payload and one memo of the key and message
/// hash that a verify reached (see the module doc). Equality, `Debug` and
/// [`MerkleSignature::to_bytes`] see the payload alone.
#[derive(Clone)]
pub struct MerkleSignature(Arc<Signed>);

/// A signature's payload, fixed when it is built, and its memo.
struct Signed {
    leaf_index: u64,
    id: [u8; ID_LEN],
    // y[i]: chain i advanced by its digit.
    ots: [Digest; P],
    auth_path: Vec<Digest>,
    // The key and `Q` of the first verify that climbed to its key.
    verified: OnceLock<(MerklePublicKey, Digest)>,
}

impl PartialEq for MerkleSignature {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        a.leaf_index == b.leaf_index && a.id == b.id && a.ots == b.ots && a.auth_path == b.auth_path
    }
}

impl Eq for MerkleSignature {}

impl std::fmt::Debug for MerkleSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MerkleSignature")
            .field("leaf_index", &self.0.leaf_index)
            .field("id", &self.0.id)
            .field("ots", &self.0.ots)
            .field("auth_path", &self.0.auth_path)
            .finish()
    }
}

/// `I ‖ u32(q)`.
fn leaf_prefix(id: &[u8; ID_LEN], q: u32) -> [u8; PREFIX_LEN] {
    let mut prefix = [0u8; PREFIX_LEN];
    prefix[..ID_LEN].copy_from_slice(id);
    prefix[ID_LEN..].copy_from_slice(&q.to_be_bytes());
    prefix
}

/// `H(I ‖ u32(q) ‖ u16(i) ‖ u8(j) ‖ value)`: chain `i`'s step `j`, or,
/// with `j` = [`HEAD`] and `value` = `SEED`, its head.
fn chain_hash(prefix: &[u8; PREFIX_LEN], i: u16, j: u8, value: &Digest) -> Digest {
    let mut input = [0u8; CHAIN_INPUT_LEN];
    input[..PREFIX_LEN].copy_from_slice(prefix);
    input[PREFIX_LEN..PREFIX_LEN + 2].copy_from_slice(&i.to_be_bytes());
    input[PREFIX_LEN + 2] = j;
    input[PREFIX_LEN + 3..].copy_from_slice(value);
    sha256(&input)
}

/// Chain `i` taken from `value` through the steps in `steps`.
fn chain(prefix: &[u8; PREFIX_LEN], i: u16, value: Digest, steps: Range<u8>) -> Digest {
    steps.fold(value, |tmp, j| chain_hash(prefix, i, j, &tmp))
}

/// Digit `i` of `bytes` in base `2^w`, most significant first (RFC 8554's
/// `coef`).
fn coef(bytes: &[u8], i: usize) -> u8 {
    (bytes[i * W / 8] >> (8 - W * (i % (8 / W) + 1))) & CHAIN_MAX
}

/// `Q = H(I ‖ u32(q) ‖ D_MESG ‖ message)`.
fn message_hash(prefix: &[u8; PREFIX_LEN], message: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(prefix);
    h.update(&D_MESG);
    h.update(message);
    h.finalize()
}

/// How far each chain is advanced to sign the message hash `q`: its
/// digits, then those of its checksum (RFC 8554 §4.4).
fn digits(q: &Digest) -> [u8; P] {
    let checksum: u16 = (0..MSG_DIGITS)
        .map(|i| u16::from(CHAIN_MAX - coef(q, i)))
        .sum();
    let mut s = [0u8; N + 2];
    s[..N].copy_from_slice(q);
    s[N..].copy_from_slice(&(checksum << LS).to_be_bytes());
    std::array::from_fn(|i| coef(&s, i))
}

/// The chain ends a signature's `values` reach when chain `i`, advanced
/// by `steps[i]` to sign, is walked the rest of the way.
fn chain_ends<'a>(
    prefix: &'a [u8; PREFIX_LEN],
    values: &'a [Digest; P],
    steps: [u8; P],
) -> impl Iterator<Item = Digest> + 'a {
    (0u16..)
        .zip(values)
        .zip(steps)
        .map(|((i, y), a)| chain(prefix, i, *y, a..CHAIN_MAX))
}

/// `K = H(I ‖ u32(q) ‖ D_PBLC ‖ y[0] ‖ … ‖ y[p − 1])` over the chain ends.
fn leaf_key(prefix: &[u8; PREFIX_LEN], ends: impl Iterator<Item = Digest>) -> Digest {
    let mut h = Sha256::new();
    h.update(prefix);
    h.update(&D_PBLC);
    for y in ends {
        h.update(&y);
    }
    h.finalize()
}

/// The root reached from leaf key `node` at leaf `index` up `auth_path`.
fn climb(mut node: Digest, mut index: u64, auth_path: &[Digest]) -> Digest {
    for sibling in auth_path {
        node = if index & 1 == 0 {
            sha256_pair(&node, sibling)
        } else {
            sha256_pair(sibling, &node)
        };
        index >>= 1;
    }
    node
}

impl MerkleSigner {
    /// Builds a signer with `2^height` one-time leaves from `seed`.
    ///
    /// Key generation walks every chain of every leaf to its end, about
    /// 600 SHA-256 compressions per leaf, so keep `height` modest (≤ 10)
    /// in tests.
    ///
    /// # Panics
    ///
    /// Panics if `height > 20`.
    pub fn from_seed(seed: &[u8], height: u32) -> Self {
        assert!(height <= MAX_HEIGHT, "merkle tree height too large");
        let labelled = |label: &[u8]| {
            let mut mac = HmacSha256::new(seed);
            mac.update(label);
            mac.finalize()
        };
        let id = take_arr(&labelled(b"genio-lmots-id"), 0);
        let ots_seed = labelled(b"genio-lmots-seed");
        let mut level: Vec<Digest> = (0..1u32 << height)
            .map(|q| {
                let prefix = leaf_prefix(&id, q);
                leaf_key(
                    &prefix,
                    (0..P as u16).map(|i| {
                        let head = chain_hash(&prefix, i, HEAD, &ots_seed);
                        chain(&prefix, i, head, 0..CHAIN_MAX)
                    }),
                )
            })
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
            id,
            ots_seed,
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
        (1u64 << self.height) - u64::from(self.next_leaf)
    }

    /// Signs `message` with the next unused leaf.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyExhausted`] when all `2^height` leaves have
    /// been consumed.
    pub fn sign(&mut self, message: &[u8]) -> crate::Result<MerkleSignature> {
        if self.next_leaf >= 1 << self.height {
            return Err(CryptoError::KeyExhausted);
        }
        let q = self.next_leaf;
        self.next_leaf += 1;
        let prefix = leaf_prefix(&self.id, q);
        let mut ots = [[0u8; N]; P];
        let steps = digits(&message_hash(&prefix, message));
        for ((i, y), a) in (0u16..).zip(ots.iter_mut()).zip(steps) {
            let head = chain_hash(&prefix, i, HEAD, &self.ots_seed);
            *y = chain(&prefix, i, head, 0..a);
        }
        let mut auth_path = Vec::with_capacity(self.height as usize);
        let mut node = q as usize;
        for level in 0..self.height as usize {
            let sibling = node ^ 1;
            auth_path.push(self.tree[level][sibling]);
            node >>= 1;
        }
        Ok(MerkleSignature(Arc::new(Signed {
            leaf_index: u64::from(q),
            id: self.id,
            ots,
            auth_path,
            verified: OnceLock::new(),
        })))
    }
}

impl MerkleSignature {
    /// Verifies the signature over `message` against the Merkle root
    /// `public`.
    ///
    /// A `leaf_index` with bits above the auth path's height names no
    /// leaf of the tree, so it fails: otherwise those bits could be set
    /// freely and one signature would have many valid encodings. So does
    /// one above `u32::MAX`, which no leaf number `q` can hold.
    ///
    /// If this signature, or a clone of it, already verified under `public`
    /// with the same message hash `Q`, the answer is `true` once `Q` is
    /// computed; otherwise a climb that reaches `public` records the pair
    /// (see the module doc).
    #[must_use]
    pub fn verify(&self, message: &[u8], public: &MerklePublicKey) -> bool {
        let sig = &*self.0;
        let height = u32::try_from(sig.auth_path.len()).unwrap_or(u32::MAX);
        if sig.leaf_index.checked_shr(height).unwrap_or(0) != 0 {
            return false;
        }
        let Ok(q) = u32::try_from(sig.leaf_index) else {
            return false;
        };
        let prefix = leaf_prefix(&sig.id, q);
        let msg_hash = message_hash(&prefix, message);
        if let Some((key, seen)) = sig.verified.get() {
            if crate::ct::eq(key, public) && crate::ct::eq(seen, &msg_hash) {
                return true;
            }
        }
        let ends = chain_ends(&prefix, &sig.ots, digits(&msg_hash));
        let root = climb(leaf_key(&prefix, ends), sig.leaf_index, &sig.auth_path);
        let genuine = crate::ct::eq(&root, public);
        if genuine {
            sig.verified.get_or_init(|| (*public, msg_hash));
        }
        genuine
    }

    /// The index of the one-time leaf that produced this signature.
    pub fn leaf_index(&self) -> u64 {
        self.0.leaf_index
    }

    /// Serializes to a self-describing byte string (for detached-signature
    /// files in the supply-chain substrate).
    pub fn to_bytes(&self) -> Vec<u8> {
        let sig = &*self.0;
        let mut out = Vec::with_capacity(HEADER_LEN + ID_LEN + (P + sig.auth_path.len()) * N);
        out.extend_from_slice(&sig.leaf_index.to_be_bytes());
        out.extend_from_slice(&(sig.auth_path.len() as u32).to_be_bytes());
        out.extend_from_slice(&sig.id);
        for value in sig.ots.iter().chain(&sig.auth_path) {
            out.extend_from_slice(value);
        }
        out
    }

    /// Parses the format produced by [`MerkleSignature::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] if the buffer has the wrong size or
    /// an implausible header.
    pub fn from_bytes(bytes: &[u8]) -> crate::Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(CryptoError::Malformed("merkle signature header"));
        }
        let leaf_index = u64::from_be_bytes(take_arr(bytes, 0));
        let path_len = u32::from_be_bytes(take_arr::<4>(bytes, 8)) as usize;
        if path_len > 64 {
            return Err(CryptoError::Malformed("merkle signature path length"));
        }
        if bytes.len() != HEADER_LEN + ID_LEN + (P + path_len) * N {
            return Err(CryptoError::Malformed("merkle signature length"));
        }
        let (values, _) = bytes[HEADER_LEN + ID_LEN..].as_chunks::<N>();
        Ok(MerkleSignature(Arc::new(Signed {
            leaf_index,
            id: take_arr(bytes, HEADER_LEN),
            ots: std::array::from_fn(|i| values[i]),
            auth_path: values[P..].to_vec(),
            verified: OnceLock::new(),
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `sig` re-encoded under `leaf_index`, its auth path zero-padded to
    /// 64 entries.
    fn widened(sig: &MerkleSignature, leaf_index: u64) -> MerkleSignature {
        let mut bytes = sig.to_bytes();
        bytes[..8].copy_from_slice(&leaf_index.to_be_bytes());
        bytes[8..12].copy_from_slice(&64u32.to_be_bytes());
        bytes.resize(HEADER_LEN + ID_LEN + (P + 64) * N, 0);
        MerkleSignature::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn tampered_chain_value_fails() {
        let mut signer = MerkleSigner::from_seed(b"leaf-1", 1);
        let public = signer.public();
        let mut bytes = signer.sign(b"msg").unwrap().to_bytes();
        bytes[HEADER_LEN + ID_LEN] ^= 1; // y[0]
        let sig = MerkleSignature::from_bytes(&bytes).unwrap();
        assert!(!sig.verify(b"msg", &public));
    }

    #[test]
    fn the_checksum_stops_a_chain_from_being_advanced() {
        // A forger who sees a signature can walk any chain further. Raise
        // a message digit that is below the top, advance its chain one
        // step to match, and recompute the checksum honestly: every
        // message chain still reaches its end, but the checksum fell, its
        // chains would have to walk back, and the leaf key differs.
        let mut signer = MerkleSigner::from_seed(b"checksum", 1);
        let message = b"firmware-v1";
        let sig = signer.sign(message).unwrap();
        let prefix = leaf_prefix(&sig.0.id, 0);
        let q = message_hash(&prefix, message);
        let honest = digits(&q);
        let i = honest[..MSG_DIGITS]
            .iter()
            .position(|&a| a < CHAIN_MAX)
            .unwrap();
        let mut raised = q;
        raised[i / 4] += 1 << (6 - 2 * (i % 4));
        let forged = digits(&raised);
        assert_eq!(forged[..i], honest[..i]);
        assert_eq!(forged[i], honest[i] + 1);
        assert_eq!(forged[i + 1..MSG_DIGITS], honest[i + 1..MSG_DIGITS]);
        let mut values = sig.0.ots;
        values[i] = chain_hash(&prefix, i as u16, honest[i], &values[i]);
        let genuine: Vec<Digest> = chain_ends(&prefix, &sig.0.ots, honest).collect();
        let advanced: Vec<Digest> = chain_ends(&prefix, &values, forged).collect();
        assert_eq!(
            leaf_key(&prefix, genuine.iter().copied()),
            signer.tree[0][0]
        );
        assert_eq!(advanced[..MSG_DIGITS], genuine[..MSG_DIGITS]);
        assert_ne!(advanced[MSG_DIGITS..], genuine[MSG_DIGITS..]);
        assert_ne!(leaf_key(&prefix, advanced.into_iter()), signer.tree[0][0]);
    }

    #[test]
    fn chain_hashes_are_the_rfc_8554_inputs_streamed() {
        let signer = MerkleSigner::from_seed(b"prf", 1);
        let (q, i, j) = (1u32, 132u16, 2u8);
        let prefix = leaf_prefix(&signer.id, q);
        let streamed = |j: u8, value: &[u8]| {
            let mut h = Sha256::new();
            h.update(&signer.id);
            h.update(&q.to_be_bytes());
            h.update(&i.to_be_bytes());
            h.update(&[j]);
            h.update(value);
            h.finalize()
        };
        let head = chain_hash(&prefix, i, HEAD, &signer.ots_seed);
        assert_eq!(head, streamed(0xff, &signer.ots_seed));
        assert_eq!(chain_hash(&prefix, i, j, &head), streamed(j, &head));
        assert_eq!(chain(&prefix, i, head, j..j + 1), streamed(j, &head));
    }

    #[test]
    fn signature_roundtrips_through_bytes() {
        let mut signer = MerkleSigner::from_seed(b"serialize", 2);
        let public = signer.public();
        let sig = signer.sign(b"payload").unwrap();
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), 12 + 16 + 133 * 32 + 2 * 32);
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
        let sig = widened(&signer.sign(b"m").unwrap(), u64::MAX);
        assert_eq!(sig.leaf_index(), u64::MAX);
        assert_eq!(MerkleSignature::from_bytes(&sig.to_bytes()).unwrap(), sig);
        assert!(!sig.verify(b"m", &signer.public()));
    }

    #[test]
    fn leaf_index_beyond_u32_is_refused_not_truncated() {
        // Leaf 2^32 + 1 would truncate to leaf 1 under `as u32`. Give leaf
        // 1's genuine signature a 64-entry path, so the tree-height check
        // lets any index by, and a root that its chain values reach when
        // `q` is leaf 1's while the climb follows the wide index.
        let mut signer = MerkleSigner::from_seed(b"wide", 1);
        signer.sign(b"m").unwrap();
        let sig = widened(&signer.sign(b"m").unwrap(), 1);
        let root_at = |index| climb(signer.tree[0][1], index, &sig.0.auth_path);
        assert!(sig.verify(b"m", &root_at(1)));
        let wide = widened(&sig, (1 << 32) + 1);
        assert_eq!(wide.leaf_index(), (1 << 32) + 1);
        assert!(!wide.verify(b"m", &root_at((1 << 32) + 1)));
    }

    #[test]
    fn a_failed_verify_leaves_the_memo_empty() {
        let mut signer = MerkleSigner::from_seed(b"memo", 1);
        let public = signer.public();
        let sig = signer.sign(b"genuine").unwrap();
        let other = MerkleSigner::from_seed(b"memo-other", 1).public();
        assert!(!sig.verify(b"forged", &public));
        assert!(!sig.verify(b"genuine", &other));
        assert_eq!(sig.0.verified.get(), None);
        assert!(sig.verify(b"genuine", &public));
        let q = message_hash(&leaf_prefix(&sig.0.id, 0), b"genuine");
        assert_eq!(sig.0.verified.get(), Some(&(public, q)));
    }

    #[test]
    fn a_clone_hits_the_memo() {
        // A clone taken before the verify shares the payload and the memo
        // that the verify fills. Planting a memo on tampered bytes shows a
        // hit answers without the climb, and only for its own key and `Q`.
        let mut signer = MerkleSigner::from_seed(b"memo", 1);
        let public = signer.public();
        let sig = signer.sign(b"genuine").unwrap();
        let clone = sig.clone();
        assert!(sig.verify(b"genuine", &public));
        assert!(Arc::ptr_eq(&sig.0, &clone.0));
        let q = message_hash(&leaf_prefix(&sig.0.id, 0), b"genuine");
        assert_eq!(clone.0.verified.get(), Some(&(public, q)));
        assert!(clone.verify(b"genuine", &public));

        let mut bytes = sig.to_bytes();
        bytes[HEADER_LEN + ID_LEN] ^= 1;
        let tampered = MerkleSignature::from_bytes(&bytes).unwrap();
        assert!(!tampered.verify(b"genuine", &public));
        tampered.0.verified.get_or_init(|| (public, q));
        assert!(tampered.verify(b"genuine", &public));
        assert!(!tampered.verify(b"forged", &public));
        assert!(!tampered.verify(b"genuine", &[0u8; N]));
    }

    #[test]
    fn equality_and_debug_ignore_the_memo() {
        let mut signer = MerkleSigner::from_seed(b"memo", 1);
        let sig = signer.sign(b"genuine").unwrap();
        let cold = MerkleSignature::from_bytes(&sig.to_bytes()).unwrap();
        let before = format!("{sig:?}");
        assert!(sig.verify(b"genuine", &signer.public()));
        assert!(cold.0.verified.get().is_none());
        assert_eq!(sig, cold);
        assert_eq!(format!("{sig:?}"), before);
        assert_eq!(format!("{cold:?}"), before);
        assert_eq!(sig.to_bytes(), cold.to_bytes());
        assert!(before.starts_with("MerkleSignature { leaf_index: 0, id: ["));
        assert!(!before.contains("verified"));
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
    }

    #[test]
    fn deterministic_public_key() {
        let a = MerkleSigner::from_seed(b"same-seed", 2);
        let b = MerkleSigner::from_seed(b"same-seed", 2);
        assert_eq!(a.public(), b.public());
    }
}
