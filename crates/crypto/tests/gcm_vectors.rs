//! Known-answer replay of the committed GCM vector corpus
//! (`vectors/gcm_kat.txt`) against BOTH implementations: the table-driven
//! entry points (`seal`/`open` and the batched `seal_many`/`open_many`) and
//! every one of their `_reference` twins. Every vector must produce the
//! exact ciphertext and tag, open back to the plaintext, and reject
//! tampering.

use genio_crypto::gcm::{AesGcm, Input, TAG_LEN};
use genio_crypto::hex;

const CORPUS: &str = include_str!("../vectors/gcm_kat.txt");

#[derive(Debug, Default, Clone)]
struct Vector {
    name: String,
    key: Vec<u8>,
    iv: Vec<u8>,
    pt: Vec<u8>,
    aad: Vec<u8>,
    ct: Vec<u8>,
    tag: Vec<u8>,
}

fn parse_corpus() -> Vec<Vector> {
    let mut vectors = Vec::new();
    let mut current = Vector::default();
    let mut seen_fields = 0;
    for line in CORPUS.lines() {
        let line = line.trim();
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim();
            if comment.starts_with("Test Case") {
                current.name = comment.to_string();
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let Some((field, value)) = line.split_once('=') else {
            panic!("malformed corpus line: {line}");
        };
        let bytes = hex::decode(value).unwrap_or_else(|_| panic!("bad hex in {line}"));
        match field {
            "KEY" => current.key = bytes,
            "IV" => current.iv = bytes,
            "PT" => current.pt = bytes,
            "AAD" => current.aad = bytes,
            "CT" => current.ct = bytes,
            "TAG" => {
                current.tag = bytes;
            }
            other => panic!("unknown field {other}"),
        }
        seen_fields += 1;
        if seen_fields == 6 {
            vectors.push(std::mem::take(&mut current));
            seen_fields = 0;
        }
    }
    assert_eq!(seen_fields, 0, "truncated final record");
    vectors
}

fn nonce(v: &Vector) -> [u8; 12] {
    v.iv.clone().try_into().expect("96-bit IV")
}

#[test]
fn corpus_is_complete() {
    let vectors = parse_corpus();
    assert_eq!(vectors.len(), 12, "expected 12 committed vectors");
    let mut key_lens: Vec<usize> = vectors.iter().map(|v| v.key.len()).collect();
    key_lens.dedup();
    assert_eq!(key_lens, [16, 24, 32], "all three AES key sizes covered");
    assert!(vectors.iter().any(|v| v.pt.is_empty()));
    assert!(vectors.iter().any(|v| !v.aad.is_empty()));
    assert!(vectors.iter().any(|v| v.pt.len() % 16 != 0));
}

/// The plain `seal`/`open` entry points, which always run the table path.
#[test]
fn dispatched_path_reproduces_every_vector() {
    for v in parse_corpus() {
        let gcm = AesGcm::new(&v.key).expect("valid key");
        let n = nonce(&v);
        let sealed = gcm.seal(&n, &v.pt, &v.aad);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(ct, v.ct, "{}: ciphertext", v.name);
        assert_eq!(tag, v.tag, "{}: tag", v.name);
        assert_eq!(gcm.open(&n, &sealed, &v.aad).unwrap(), v.pt, "{}", v.name);
    }
}

#[test]
fn reference_path_reproduces_every_vector() {
    for v in parse_corpus() {
        let gcm = AesGcm::new(&v.key).expect("valid key");
        let n = nonce(&v);
        let sealed = gcm.seal_reference(&n, &v.pt, &v.aad);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(ct, v.ct, "{}: ciphertext", v.name);
        assert_eq!(tag, v.tag, "{}: tag", v.name);
        assert_eq!(
            gcm.open_reference(&n, &sealed, &v.aad).unwrap(),
            v.pt,
            "{}",
            v.name
        );
    }
}

#[test]
fn batched_path_reproduces_every_vector() {
    // Group vectors by key so each group exercises one seal_many call.
    let vectors = parse_corpus();
    let mut by_key: Vec<(Vec<u8>, Vec<Vector>)> = Vec::new();
    for v in vectors {
        match by_key.iter_mut().find(|(k, _)| *k == v.key) {
            Some((_, group)) => group.push(v),
            None => by_key.push((v.key.clone(), vec![v])),
        }
    }
    for (key, group) in by_key {
        let gcm = AesGcm::new(&key).expect("valid key");
        let inputs: Vec<Input> = group
            .iter()
            .map(|v| Input {
                nonce: nonce(v),
                aad: &v.aad,
                text: &v.pt,
            })
            .collect();
        let sealed = gcm.seal_many(&inputs);
        let reference_sealed = gcm.seal_many_reference(&inputs);
        for (path, batch) in [
            ("seal_many", &sealed),
            ("seal_many_reference", &reference_sealed),
        ] {
            for (v, s) in group.iter().zip(batch) {
                let (ct, tag) = s.split_at(s.len() - TAG_LEN);
                assert_eq!(ct, v.ct, "{}: {path} ciphertext", v.name);
                assert_eq!(tag, v.tag, "{}: {path} tag", v.name);
            }
        }
        let sealed_inputs: Vec<Input> = inputs
            .iter()
            .zip(&sealed)
            .map(|(input, s)| Input { text: s, ..*input })
            .collect();
        let opened = gcm.open_many(&sealed_inputs);
        let reference_opened = gcm.open_many_reference(&sealed_inputs);
        for (path, batch) in [
            ("open_many", opened),
            ("open_many_reference", reference_opened),
        ] {
            for (v, frame) in group.iter().zip(batch) {
                assert_eq!(frame.unwrap(), v.pt, "{}: {path}", v.name);
            }
        }
    }
}

#[test]
fn every_vector_rejects_tag_tampering() {
    for v in parse_corpus() {
        let gcm = AesGcm::new(&v.key).expect("valid key");
        let n = nonce(&v);
        let mut sealed = gcm.seal(&n, &v.pt, &v.aad);
        let last = sealed.len() - 1;
        sealed[last] ^= 0x01;
        assert!(gcm.open(&n, &sealed, &v.aad).is_err(), "{}", v.name);
        assert!(
            gcm.open_reference(&n, &sealed, &v.aad).is_err(),
            "{} (reference)",
            v.name
        );
    }
}
