//! Known-answer tests that pin the byte output of SHA-256, HMAC-DRBG and
//! Merkle signing.
//!
//! Every key, nonce and signature in the workspace is derived from these
//! primitives. A change to how SHA-256 or HMAC-DRBG compute (block
//! handling, padding, keyed-MAC reuse) must leave their digests
//! untouched. The Merkle row pins the signature scheme itself (LM-OTS,
//! RFC 8554 §4, with `w` = 2, under a Merkle tree), so it moves only with
//! a change of scheme. The expected values were also produced by an
//! independent Python `hashlib`/`hmac` implementation of SP 800-90A
//! HMAC-DRBG and of the signatures, written from RFC 8554's text.

use genio_crypto::drbg::HmacDrbg;
use genio_crypto::hex;
use genio_crypto::sha256::sha256;
use genio_crypto::sig::MerkleSigner;

/// SHA-256 of `[0, 1, …, n−1] (mod 256)` for every `n` in `0..=300`,
/// digests concatenated and hashed: every padding case (1 to 64 zero
/// bytes, one or two final blocks) and up to four full blocks hashed
/// straight from the input.
#[test]
fn sha256_prefix_sweep() {
    let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
    let mut all = Vec::new();
    for n in 0..=data.len() {
        all.extend_from_slice(&sha256(&data[..n]));
    }
    assert_eq!(
        hex::encode(&sha256(&all)),
        "ddbdb189f5834c274dbe603d6d2874adf7234fd8a075c3d1bfbadc2107a75676"
    );
}

/// Instantiate, reseed, then draws of every length class: partial,
/// exact and multi-block chunks, `array32` and `next_u64`.
#[test]
fn hmac_drbg_stream() {
    let mut drbg = HmacDrbg::new(b"genio-drbg-kat");
    drbg.reseed(b"reseed");
    let mut all = Vec::new();
    for n in [1usize, 31, 32, 33, 64, 100, 1000] {
        all.extend_from_slice(&drbg.bytes(n));
    }
    all.extend_from_slice(&drbg.array32());
    all.extend_from_slice(&drbg.next_u64().to_be_bytes());
    assert_eq!(
        hex::encode(&sha256(&all)),
        "ab4bae0b4b1d15ae4ab848f2c2640105fd99da40491e779972a7f76f3f3c44c9"
    );
}

/// A height-4 tree: its root, then all 16 leaves' signatures hashed
/// together, so every chain head, chain step, checksum digit, leaf key,
/// auth path and byte of the wire format is covered.
#[test]
fn merkle_root_and_every_leaf_signature() {
    let mut signer = MerkleSigner::from_seed(b"genio-merkle-kat", 4);
    let public = signer.public();
    assert_eq!(
        hex::encode(&public),
        "c2b82cdd48473f53ad5fd31e6d54cca471f5cbd5fe6ea6d3a5ff255f6f472e16"
    );
    let mut all = Vec::new();
    for i in 0..16 {
        let message = format!("kat-{i}");
        let sig = signer.sign(message.as_bytes()).unwrap();
        assert!(sig.verify(message.as_bytes(), &public), "leaf {i}");
        all.extend_from_slice(&sig.to_bytes());
    }
    assert!(signer.sign(b"kat-16").is_err());
    assert_eq!(
        hex::encode(&sha256(&all)),
        "38ab28038075d727441f176a944ade8aa381d9c7507640e19be070b032ed2b1d"
    );
}
