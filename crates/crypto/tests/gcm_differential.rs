//! Differential proof that the table-driven AES-GCM fast path is
//! observationally identical to the bitwise/S-box reference path.
//!
//! Every property pits a fast-path function against its `_reference` twin
//! (the oracle) on randomized keys, nonces, AAD and payloads — including
//! empty, single-byte and non-block-aligned lengths up to 4 KiB — and the
//! batched `seal_many`/`open_many` entry points against their sequential
//! loops. Four 256-case properties give ≥1024 generated cases per run on
//! top of the deterministic length sweep, and a burst-shape property
//! builds bursts from runs of equal-shape frames so the burst kernel's
//! lockstep GHASH groups and cross-frame AES lanes meet odd shapes,
//! frames shorter than the tag and a tampered frame inside a group.

use genio_testkit::prelude::*;

use genio_crypto::gcm::{AesGcm, Input};
use genio_crypto::ghash::{ghash_reference, GhashKey};

const KEY_LENS: [usize; 3] = [16, 24, 32];

fn aead(key: &[u8], sel: u8) -> AesGcm {
    let len = KEY_LENS[(sel % 3) as usize];
    AesGcm::new(&key[..len]).expect("valid key length")
}

property! {
    cases = 256;
    /// Windowed-table GHASH equals the bitwise-multiply reference for any
    /// key and any (aad, ct) pair, aligned or not.
    fn ghash_table_matches_reference(h in bytes(16),
                                     aad in bytes(0..128),
                                     ct in bytes(0..512)) {
        let h = u128::from_be_bytes(h.try_into().expect("16 bytes"));
        let key = GhashKey::new(h);
        prop_assert_eq!(key.ghash(&aad, &ct), ghash_reference(h, &aad, &ct));
    }
}

property! {
    cases = 256;
    /// Fast seal produces the byte-identical ciphertext+tag of the
    /// reference seal for all key sizes and payloads up to 4 KiB, and both
    /// paths open each other's output.
    fn seal_fast_matches_reference(key_sel in 0u8..3,
                                   key in bytes(32),
                                   nonce in bytes(12),
                                   pt in bytes(0..4096),
                                   aad in bytes(0..64)) {
        let gcm = aead(&key, key_sel);
        let n: [u8; 12] = nonce.try_into().expect("12 bytes");
        let fast = gcm.seal(&n, &pt, &aad);
        let slow = gcm.seal_reference(&n, &pt, &aad);
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(gcm.open(&n, &slow, &aad).unwrap(), pt.clone());
        prop_assert_eq!(gcm.open_reference(&n, &fast, &aad).unwrap(), pt);
    }
}

property! {
    cases = 256;
    /// One batched `seal_many` call equals the sequential `seal` loop
    /// frame-for-frame, and `open_many` recovers every plaintext.
    fn seal_many_matches_looped_seal(key_sel in 0u8..3,
                                     key in bytes(32),
                                     nonce in bytes(12),
                                     pts in vec(bytes(0..512), 1..10),
                                     aad in bytes(0..32)) {
        let gcm = aead(&key, key_sel);
        let base: [u8; 12] = nonce.try_into().expect("12 bytes");
        let nonces: Vec<[u8; 12]> = (0..pts.len()).map(|i| {
            let mut n = base;
            n[11] = i as u8; // distinct per frame
            n
        }).collect();
        let inputs: Vec<Input> = nonces.iter().zip(&pts)
            .map(|(&nonce, pt)| Input { nonce, aad: &aad, text: pt })
            .collect();
        let batch = gcm.seal_many(&inputs);
        for (i, sealed) in batch.iter().enumerate() {
            prop_assert_eq!(sealed, &gcm.seal(&nonces[i], &pts[i], &aad));
        }
        let sealed_inputs: Vec<Input> = inputs.iter().zip(&batch)
            .map(|(input, sealed)| Input { text: sealed, ..*input })
            .collect();
        let opened = gcm.open_many(&sealed_inputs);
        for (got, want) in opened.into_iter().zip(pts.iter()) {
            prop_assert_eq!(&got.unwrap(), want);
        }
    }
}

property! {
    cases = 256;
    /// Tampering any bit of any frame in a batch is rejected by `open_many`
    /// on exactly the frames the sequential `open` loop rejects — and by
    /// the reference batch on exactly the same frames.
    fn open_many_tamper_parity(key in bytes(16),
                               pts in vec(bytes(1..256), 2..8),
                               frame_sel in index(),
                               pos in index(),
                               bit in 0u8..8) {
        let gcm = AesGcm::new(&key).unwrap();
        let nonces: Vec<[u8; 12]> = (0..pts.len()).map(|i| {
            let mut n = [0x3au8; 12];
            n[11] = i as u8;
            n
        }).collect();
        let inputs: Vec<Input> = nonces.iter().zip(&pts)
            .map(|(&nonce, pt)| Input { nonce, aad: b"hdr", text: pt })
            .collect();
        let mut sealed = gcm.seal_many(&inputs);
        let victim = frame_sel.index(sealed.len());
        let idx = pos.index(sealed[victim].len());
        sealed[victim][idx] ^= 1 << bit;

        let sealed_inputs: Vec<Input> = inputs.iter().zip(&sealed)
            .map(|(input, sealed)| Input { text: sealed, ..*input })
            .collect();
        let batch = gcm.open_many(&sealed_inputs);
        let batch_ref = gcm.open_many_reference(&sealed_inputs);
        for (i, (fast, slow)) in batch.iter().zip(batch_ref.iter()).enumerate() {
            let sequential = gcm.open(&nonces[i], &sealed[i], b"hdr");
            prop_assert_eq!(fast.is_ok(), sequential.is_ok());
            prop_assert_eq!(slow.is_ok(), sequential.is_ok());
            if i == victim {
                prop_assert!(fast.is_err());
            } else {
                prop_assert_eq!(fast.as_ref().unwrap(), &pts[i]);
                prop_assert_eq!(slow.as_ref().unwrap(), &pts[i]);
            }
        }
    }
}

/// Deterministic sweep across every length 0..=257 plus larger sizes that
/// cross the 8-lane (128-byte) keystream batch boundary — the off-by-one
/// surface of the interleaved CTR path.
#[test]
fn length_sweep_fast_equals_reference() {
    let key = [0x5cu8; 32];
    let gcm = AesGcm::new(&key).unwrap();
    let nonce = [7u8; 12];
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    let big = [1024usize, 1279, 1280, 1281, 1500, 2048, 4095, 4096];
    for len in (0..=257usize).chain(big) {
        let pt = &data[..len];
        let fast = gcm.seal(&nonce, pt, b"sweep");
        let slow = gcm.seal_reference(&nonce, pt, b"sweep");
        assert_eq!(fast, slow, "len {len}");
        assert_eq!(gcm.open(&nonce, &fast, b"sweep").unwrap(), pt, "len {len}");
    }
}

/// Frame lengths around the block (16 B) and 8-block run (128 B)
/// boundaries, plus a full MTU.
const BURST_LENS: [usize; 12] = [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1500];
/// AAD lengths on both sides of a block boundary (GEM uses 6, MACsec 17).
const BURST_AAD_LENS: [usize; 6] = [0, 6, 15, 16, 17, 33];
/// Most frames one burst may hold.
const BURST_MAX: usize = 40;

property! {
    cases = 128;
    /// Bursts of 0–40 frames made of runs of 1–7 frames sharing one
    /// (length, AAD length) shape: runs of four or more take the lockstep
    /// GHASH path, what is left of a run in pairs takes the two-chain
    /// path, and odd shapes take the single chain. Frame by frame,
    /// `seal_many` equals looped `seal_reference`, and `open_many` equals
    /// looped `open_reference` on the sealed burst after one bit flip
    /// (inside a run of two or more whenever there is one) and after
    /// cutting some frames below the tag length.
    fn burst_shapes_match_reference(key_sel in 0u8..3,
                                    key in bytes(32),
                                    runs in vec((0usize..12, 0usize..6, 1usize..8), 0..12),
                                    flip in (index(), index(), 0u8..8),
                                    cuts in vec((index(), 0usize..16), 0..3)) {
        let gcm = aead(&key, key_sel);
        let mut shapes = Vec::new();
        let mut grouped = Vec::new();
        for (len_sel, aad_sel, count) in runs {
            let count = count.min(BURST_MAX - shapes.len());
            if count >= 2 {
                grouped.extend(shapes.len()..shapes.len() + count);
            }
            let shape = (BURST_LENS[len_sel], BURST_AAD_LENS[aad_sel]);
            shapes.extend(std::iter::repeat_n(shape, count));
        }
        let nonces: Vec<[u8; 12]> = (0..shapes.len())
            .map(|i| {
                let mut n = [key[0]; 12];
                n[8..].copy_from_slice(&(i as u32).to_be_bytes());
                n
            })
            .collect();
        let pts: Vec<Vec<u8>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(len, _))| (0..len).map(|j| (i * 31 + j * 7) as u8 ^ key[1]).collect())
            .collect();
        let aads: Vec<Vec<u8>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(_, len))| (0..len).map(|j| (i * 13 + j) as u8 ^ key[2]).collect())
            .collect();
        let inputs: Vec<Input> = nonces.iter().zip(&pts).zip(&aads)
            .map(|((&nonce, pt), aad)| Input { nonce, aad, text: pt })
            .collect();

        let mut sealed = gcm.seal_many(&inputs);
        prop_assert_eq!(sealed.len(), shapes.len());
        for (i, frame) in sealed.iter().enumerate() {
            prop_assert_eq!(frame, &gcm.seal_reference(&nonces[i], &pts[i], &aads[i]));
        }

        if !sealed.is_empty() {
            let (frame_sel, pos, bit) = flip;
            let victim = if grouped.is_empty() {
                frame_sel.index(sealed.len())
            } else {
                grouped[frame_sel.index(grouped.len())]
            };
            let at = pos.index(sealed[victim].len());
            sealed[victim][at] ^= 1 << bit;
            for (frame_sel, len) in cuts {
                sealed[frame_sel.index(shapes.len())].truncate(len);
            }
        }
        let sealed_inputs: Vec<Input> = inputs.iter().zip(&sealed)
            .map(|(input, sealed)| Input { text: sealed, ..*input })
            .collect();
        let opened = gcm.open_many(&sealed_inputs);
        prop_assert_eq!(opened.len(), shapes.len());
        for (i, got) in opened.iter().enumerate() {
            let want = gcm.open_reference(&nonces[i], &sealed[i], &aads[i]);
            prop_assert_eq!(got, &want);
        }
    }
}
