//! Property-based tests over the cryptographic primitives: the invariants
//! every higher layer of the workspace silently relies on.

use std::collections::BTreeSet;

use genio_testkit::prelude::*;

use genio_crypto::drbg::HmacDrbg;
use genio_crypto::gcm::{AesGcm, TAG_LEN};
use genio_crypto::hex;
use genio_crypto::hkdf;
use genio_crypto::hmac::HmacSha256;
use genio_crypto::seq::{Received, SeqAead};
use genio_crypto::sha256::{sha256, Sha256};
use genio_crypto::sig::{MerkleSignature, MerkleSigner};
use genio_crypto::{ct, dh, CryptoError};

property! {
    /// Incremental hashing over arbitrary chunkings equals one-shot.
    fn sha256_chunking_invariant(data in bytes(0..512),
                                 splits in vec(0usize..512, 0..6)) {
        let oneshot = sha256(&data);
        let mut h = Sha256::new();
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut prev = 0;
        for cut in cuts {
            h.update(&data[prev..cut]);
            prev = cut;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }
}

property! {
    /// Hex encode/decode is a bijection on byte strings.
    fn hex_roundtrip(data in bytes(0..256)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(hex::decode(&encoded).unwrap(), data);
    }
}

property! {
    /// HMAC verification accepts the genuine tag and rejects any single
    /// bit flip in it.
    fn hmac_bitflip_rejected(key in bytes(1..64),
                             data in bytes(0..128),
                             byte in 0usize..32, bit in 0u8..8) {
        let tag = HmacSha256::mac(&key, &data);
        prop_assert!(HmacSha256::verify(&key, &data, &tag));
        let mut bad = tag;
        bad[byte] ^= 1 << bit;
        prop_assert!(!HmacSha256::verify(&key, &data, &bad));
    }
}

property! {
    /// HKDF expansion of different lengths agrees on the shared prefix.
    fn hkdf_prefix_consistency(ikm in bytes(1..64),
                               info in bytes(0..32),
                               short in 1usize..64, extra in 1usize..64) {
        let a = hkdf::derive(b"salt", &ikm, &info, short);
        let b = hkdf::derive(b"salt", &ikm, &info, short + extra);
        prop_assert_eq!(&a[..], &b[..short]);
    }
}

property! {
    /// GCM seal/open roundtrips for any key size, payload and AAD.
    fn gcm_roundtrip(key_sel in 0u8..3,
                     key in bytes(32),
                     nonce in bytes(12),
                     pt in bytes(0..256),
                     aad in bytes(0..64)) {
        let len = [16, 24, 32][key_sel as usize];
        let aead = AesGcm::new(&key[..len]).unwrap();
        let n: [u8; 12] = nonce.try_into().unwrap();
        let sealed = aead.seal(&n, &pt, &aad);
        prop_assert_eq!(aead.open(&n, &sealed, &aad).unwrap(), pt);
    }
}

property! {
    /// Any single bit flip anywhere in the sealed blob breaks the tag.
    fn gcm_bitflip_rejected(key in bytes(16),
                            pt in bytes(1..128),
                            pos in index(), bit in 0u8..8) {
        let aead = AesGcm::new(&key).unwrap();
        let nonce = [9u8; 12];
        let mut sealed = aead.seal(&nonce, &pt, b"aad");
        let idx = pos.index(sealed.len());
        sealed[idx] ^= 1 << bit;
        prop_assert!(aead.open(&nonce, &sealed, b"aad").is_err());
    }
}

property! {
    /// Constant-time equality agrees with ==.
    fn ct_eq_matches_eq(a in bytes(0..64),
                        b in bytes(0..64)) {
        prop_assert_eq!(ct::eq(&a, &b), a == b);
    }
}

property! {
    /// Field algebra mod 2^127-1: commutativity, associativity,
    /// distributivity, and Fermat inverses for nonzero elements.
    fn dh_field_axioms(a in 0u128..dh::P, b in 0u128..dh::P, c in 0u128..dh::P) {
        prop_assert_eq!(dh::mul(a, b), dh::mul(b, a));
        prop_assert_eq!(dh::mul(dh::mul(a, b), c), dh::mul(a, dh::mul(b, c)));
        prop_assert_eq!(dh::mul(a, dh::add(b, c)), dh::add(dh::mul(a, b), dh::mul(a, c)));
        if a != 0 {
            let inv = dh::pow(a, dh::P - 2);
            prop_assert_eq!(dh::mul(a, inv), 1);
        }
    }
}

property! {
    /// DH key agreement is symmetric for arbitrary seeds.
    fn dh_agreement_symmetric(seed_a in bytes(1..32),
                              seed_b in bytes(1..32)) {
        let mut rng_a = HmacDrbg::new(&seed_a);
        let mut rng_b = HmacDrbg::new(&seed_b);
        let ka = dh::KeyPair::generate(&mut rng_a);
        let kb = dh::KeyPair::generate(&mut rng_b);
        prop_assert_eq!(
            ka.shared_secret(kb.public()).unwrap(),
            kb.shared_secret(ka.public()).unwrap()
        );
    }
}

property! {
    /// DRBG determinism: same seed, same stream; the stream has no trivial
    /// repetition across consecutive blocks.
    fn drbg_deterministic(seed in bytes(1..64)) {
        let mut x = HmacDrbg::new(&seed);
        let mut y = HmacDrbg::new(&seed);
        let bx = x.bytes(64);
        prop_assert_eq!(&bx, &y.bytes(64));
        prop_assert_ne!(&bx[..32], &bx[32..]);
    }
}

property! {
    /// Merkle signatures survive serialization and verify only the signed
    /// message (expensive under proptest, full 64 cases here).
    fn merkle_signature_serialization(seed in bytes(1..16),
                                      msg in bytes(0..64)) {
        let mut signer = MerkleSigner::from_seed(&seed, 1);
        let public = signer.public();
        let sig = signer.sign(&msg).unwrap();
        let parsed = MerkleSignature::from_bytes(&sig.to_bytes()).unwrap();
        prop_assert!(parsed.verify(&msg, &public));
        let mut other = msg.clone();
        other.push(0);
        prop_assert!(!parsed.verify(&other, &public));
    }
}

/// Replay windows the sequenced-AEAD fault property draws from: strict
/// ordering twice over (0 and 1 behave alike), a window narrower than a
/// run, the MACsec default, the widest window and one past it.
const SEQ_WINDOWS: [u64; 6] = [0, 1, 4, 64, 127, 200];

/// Associated data of every frame in the sealed stream, so a frame
/// presented under another sequence number differs only in its nonce.
const SEQ_AAD: &[u8] = b"stream";

/// One drawn frame of a run: the fault kind and two free positions (a
/// frame, a byte, a length or a gap, then a bit).
type SeqDraw = (u8, Index, Index);

/// A frame as delivered: the sequence number it claims, its body, and
/// whether the receiver must reject it (tampered, cut or re-numbered).
type SeqFrame = (u64, Vec<u8>, bool);

/// The sender's side: every frame it sealed, by sequence number, with
/// its plaintext, so a run can replay or deliver late any of them.
struct SeqStream {
    tx: SeqAead,
    sent: Vec<(u64, Vec<u8>, Vec<u8>)>,
}

impl SeqStream {
    /// Seals the next `count` frames and returns the last.
    fn seal(&mut self, count: usize) -> SeqFrame {
        let texts: Vec<Vec<u8>> = (0..count)
            .map(|i| vec![(self.sent.len() + i) as u8; 1 + (self.sent.len() + i) % 5])
            .collect();
        let refs: Vec<&[u8]> = texts.iter().map(Vec::as_slice).collect();
        let sealed = self
            .tx
            .seal_many(&refs, |_| SEQ_AAD)
            .expect("below the limit");
        for ((seq, body), text) in sealed.zip(texts) {
            self.sent.push((seq, body, text));
        }
        let (seq, body, _) = self.sent.last().expect("count >= 1").clone();
        (seq, body, false)
    }

    /// The frame sealed under `seq`, if any.
    fn at(&self, seq: Option<u64>) -> Option<SeqFrame> {
        let seq = seq?;
        let (_, body, _) = self.sent.iter().find(|(s, _, _)| *s == seq)?;
        Some((seq, body.clone(), false))
    }
}

/// Builds one run from `draws`. `earlier` is the previous run and `high`
/// the highest sequence number accepted when this run starts.
fn seq_run(
    stream: &mut SeqStream,
    window: u64,
    draws: &[SeqDraw],
    earlier: &[SeqFrame],
    high: Option<u64>,
) -> Vec<SeqFrame> {
    let mut run: Vec<SeqFrame> = Vec::new();
    for &(kind, a, b) in draws {
        match kind {
            0..=3 => run.push(stream.seal(1)),
            // Frames at the window's two edges: a late first delivery or
            // a replay, whichever the stream holds at that age.
            4 | 5 => {
                let age = if kind == 4 {
                    window.checked_sub(1)
                } else {
                    Some(window)
                };
                let seq = high.zip(age).and_then(|(high, age)| high.checked_sub(age));
                run.extend(stream.at(seq));
            }
            6 if !earlier.is_empty() => run.push(earlier[a.index(earlier.len())].clone()),
            7 if !run.is_empty() => {
                let dup = run[a.index(run.len())].clone();
                run.push(dup);
            }
            // A fresh frame that overtakes the one before it.
            8 => {
                let at = run.len().saturating_sub(1);
                run.insert(at, stream.seal(1));
            }
            9 => {
                let (seq, mut body, _) = stream.seal(1);
                let at = a.index(body.len());
                body[at] ^= 1 << b.index(8);
                run.push((seq, body, true));
            }
            10 => {
                let (seq, mut body, _) = stream.seal(1);
                body.truncate(a.index(TAG_LEN));
                run.push((seq, body, true));
            }
            // A frame presented under another sequence number.
            11 => {
                let (seq, body, _) = stream.seal(1);
                let other = seq.wrapping_add(1 + a.index(300) as u64);
                run.push((other, body, true));
            }
            // Frames lost on the way: the stream moves on without them,
            // so later draws reach deep window ages.
            12 => {
                stream.seal(1 + a.index(160));
            }
            _ => {}
        }
    }
    run
}

property! {
    /// Faults drawn against the one replay window of `genio_crypto::seq`,
    /// under windows 0, 1, 4, 64, 127 and 200: two consecutive runs of
    /// one sealed stream mix in-order frames, frames at ages `window - 1`
    /// and `window`, replays of the earlier run, in-run duplicates and
    /// reorders, bit flips in body or tag, bodies cut below the tag, a
    /// frame presented under another sequence number, and lost frames.
    /// Frame by frame, `open_many` equals opening one at a time on a twin
    /// and equals a model window (the set of accepted sequence numbers,
    /// with ages below `min(window, 127)` open); no tampered frame is
    /// accepted, and an accepted frame opens to exactly what was sealed
    /// under its sequence number.
    fn seq_aead_faults_match_one_at_a_time(window_sel in 0usize..6,
                                           first in vec((0u8..13, index(), index()), 0..24),
                                           second in vec((0u8..13, index(), index()), 0..24)) {
        let window = SEQ_WINDOWS[window_sel];
        let aead = AesGcm::new(&[0x3c; 16]).unwrap();
        let salt = [0xa5, 0x5a, 0, 1];
        let tx = SeqAead::new(aead.clone(), salt, 0..u64::MAX, window);
        let mut stream = SeqStream { tx, sent: Vec::new() };
        let mut batch = SeqAead::new(aead.clone(), salt, 0..u64::MAX, window);
        let mut twin = SeqAead::new(aead, salt, 0..u64::MAX, window);
        let mut accepted: BTreeSet<u64> = BTreeSet::new();
        let mut earlier = Vec::new();
        for draws in [first, second] {
            let high = accepted.last().copied();
            let run = seq_run(&mut stream, window, &draws, &earlier, high);
            let received: Vec<Received> = run
                .iter()
                .map(|(seq, body, _)| Received { seq: *seq, aad: SEQ_AAD, text: body })
                .collect();
            let got = batch.open_many(&received);
            let one_at_a_time: Vec<_> = received
                .iter()
                .flat_map(|f| twin.open_many(std::slice::from_ref(f)))
                .collect();
            prop_assert_eq!(&got, &one_at_a_time);
            for ((seq, body, must_fail), result) in run.iter().zip(&got) {
                let high = accepted.last().copied();
                let fresh = high.is_none_or(|high| {
                    *seq > high
                        || (high - seq < window.min(127) && !accepted.contains(seq))
                });
                let sealed = stream.sent.iter().find(|(s, _, _)| s == seq);
                let want = if !fresh {
                    Err(CryptoError::Replayed { seq: *seq })
                } else if body.len() < TAG_LEN {
                    Err(CryptoError::CiphertextTooShort)
                } else if *must_fail {
                    Err(CryptoError::AuthenticationFailed)
                } else {
                    Ok(sealed.map(|(_, _, text)| text.clone()).expect("sealed frame"))
                };
                prop_assert_eq!(result, &want, "frame {} under window {}", seq, window);
                prop_assert!(!must_fail || result.is_err(), "tampered frame {} accepted", seq);
                if let Ok(plaintext) = result {
                    prop_assert_eq!(Some(plaintext), sealed.map(|(_, _, text)| text));
                    accepted.insert(*seq);
                }
            }
            earlier = run;
        }
    }
}
