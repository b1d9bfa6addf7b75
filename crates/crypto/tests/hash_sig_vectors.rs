//! Known-answer tests that pin the byte output of SHA-256, HMAC-DRBG,
//! Lamport key generation and Merkle signing.
//!
//! Every key, nonce and signature in the workspace is derived from these
//! primitives, so any change to how they compute (block handling,
//! padding, keyed-MAC reuse, how a signature draws its preimages) must
//! leave these digests untouched. The expected values were also produced
//! by an independent Python `hashlib`/`hmac` implementation of SP 800-90A
//! HMAC-DRBG, Lamport and Merkle signing.

use genio_crypto::drbg::HmacDrbg;
use genio_crypto::hex;
use genio_crypto::sha256::sha256;
use genio_crypto::sig::{LamportKeyPair, MerkleSigner};

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

#[test]
fn lamport_public_key() {
    let kp = LamportKeyPair::from_seed(b"genio-lamport-kat");
    assert_eq!(
        hex::encode(&kp.public()),
        "57897bec3fb779139870e8d469f54638cc49a0bf2f8f3f95fd4d8899d1a9ec26"
    );
}

#[test]
fn merkle_root_and_every_leaf_signature() {
    let mut signer = MerkleSigner::from_seed(b"genio-merkle-kat", 4);
    let public = signer.public();
    assert_eq!(
        hex::encode(&public),
        "8fe20ddc1b9cfab9a027752220b4cc103e6f3184e7de2b91169710711d17fdd6"
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
        "e90901a1d5310d20bfa153b93bac5a09b75464b6f28be77de76e8dced1099031"
    );
}
