//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! GCM is the AEAD used throughout the platform: MACsec frames (IEEE
//! 802.1AE mandates AES-GCM), XGS-PON payload encryption (ITU-T G.987.3
//! recommends AES-based payload protection), TLS-1.3-like record protection,
//! and LUKS-like volume encryption in the secure-boot substrate.
//!
//! Two implementations share one key object:
//!
//! * the **fast path**, which every plain entry point runs: T-table AES
//!   rounds with an 8-way interleaved CTR keystream ([`crate::aes`]) and
//!   8-bit windowed GHASH tables built once per key ([`crate::ghash`]),
//!   plus batched [`AesGcm::seal_many`]/[`AesGcm::open_many`] so callers
//!   amortize per-frame overhead across a whole TDMA burst;
//! * the **reference path**: straight FIPS 197 S-box rounds and the bitwise
//!   GF(2^128) multiply. Every fast entry point has a `_reference` twin
//!   (`seal_reference`, `open_many_reference`, …) that the tests and the
//!   E-L2 bench call directly as the differential oracle.
//!
//! Both paths are validated against the McGrew–Viega test cases here and the
//! committed NIST/RFC vector corpus in `tests/gcm_vectors.rs`; the
//! differential property suite in `tests/gcm_differential.rs` proves them
//! byte-identical on randomized inputs.

use crate::aes::{increment_counter, Aes, Block};
use crate::ghash::{ghash_reference, GhashKey};
use crate::{ct, CryptoError};
use genio_telemetry::{Counter, Histogram, Telemetry, TraceContext};

/// Required nonce length in bytes (the 96-bit fast path of SP 800-38D).
pub const NONCE_LEN: usize = 12;

/// Trace-slot namespace for batch spans — disjoint from the PON
/// engine's shard/batch slots so a traced campaign's crypto bursts can
/// never collide with its shard spans.
const TRACE_SLOT_GCM: u64 = 0x0047_434d_0000_0000; // "GCM"

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// An AES-GCM AEAD cipher bound to one key.
///
/// Construction derives the AES key schedule and the 64 KiB GHASH tables
/// once; both are reused for every subsequent seal/open, single or batched —
/// sessions should build one `AesGcm` per key, not one per call.
///
/// # Example
///
/// ```
/// use genio_crypto::gcm::AesGcm;
///
/// # fn main() -> Result<(), genio_crypto::CryptoError> {
/// let aead = AesGcm::new(&[1u8; 32])?;
/// let sealed = aead.seal(&[0u8; 12], b"payload", b"frame header");
/// assert_eq!(aead.open(&[0u8; 12], &sealed, b"frame header")?, b"payload");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    h: GhashKey,
    /// The raw GHASH key `E_K(0^128)`, kept for the reference path.
    h_raw: u128,
    telemetry: Telemetry,
    seal_time: Histogram,
    open_time: Histogram,
    sealed_bytes: Counter,
    opened_bytes: Counter,
    sealed_frames: Counter,
    opened_frames: Counter,
    /// Parent context for batch spans (untraced unless [`AesGcm::with_trace`]).
    trace: TraceContext,
    /// Per-cipher batch sequence: each seal_many/open_many burst gets its
    /// own child span slot, shared across clones of this cipher.
    batch_seq: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

// The GHASH key `h_raw` is derived from the key; `aes` prints only its
// key size.
impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesGcm")
            .field("aes", &self.aes)
            .finish_non_exhaustive()
    }
}

impl AesGcm {
    /// Creates a GCM cipher from a 16-, 24- or 32-byte AES key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for other key sizes.
    pub fn new(key: &[u8]) -> crate::Result<Self> {
        let aes = Aes::new(key)?;
        let h_raw = u128::from_be_bytes(aes.encrypt_block([0u8; 16]));
        let h = GhashKey::new(h_raw);
        Ok(AesGcm {
            aes,
            h,
            h_raw,
            telemetry: Telemetry::disabled(),
            seal_time: Histogram::disabled(),
            open_time: Histogram::disabled(),
            sealed_bytes: Counter::disabled(),
            opened_bytes: Counter::disabled(),
            sealed_frames: Counter::disabled(),
            opened_frames: Counter::disabled(),
            trace: TraceContext::default(),
            batch_seq: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        })
    }

    /// Attaches telemetry: per-call seal/open latency histograms
    /// (`crypto.gcm.seal_ns` / `crypto.gcm.open_ns`), byte/frame counters,
    /// and per-batch spans `crypto.gcm.seal_many` / `crypto.gcm.open_many`.
    /// Handles are resolved here, once; per-call cost is two clock reads
    /// and a few relaxed atomics, and batched calls pay it once per burst
    /// rather than once per frame.
    pub fn instrument(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self.seal_time = telemetry.histogram("crypto.gcm.seal_ns");
        self.open_time = telemetry.histogram("crypto.gcm.open_ns");
        self.sealed_bytes = telemetry.counter("crypto.gcm.sealed_bytes");
        self.opened_bytes = telemetry.counter("crypto.gcm.opened_bytes");
        self.sealed_frames = telemetry.counter("crypto.gcm.sealed_frames");
        self.opened_frames = telemetry.counter("crypto.gcm.opened_frames");
        self
    }

    /// Attaches a causal parent context: every subsequent
    /// `seal_many`/`open_many` span becomes a child of `ctx` (one child
    /// slot per burst), linking crypto batches into the campaign's span
    /// tree. Without this the batch spans record untraced, as before.
    pub fn with_trace(mut self, ctx: TraceContext) -> Self {
        self.trace = ctx;
        self
    }

    /// Child context for the next batch span (untraced stays untraced).
    fn batch_ctx(&self) -> TraceContext {
        if !self.trace.is_traced() {
            return TraceContext::default();
        }
        let seq = self.batch_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.trace.child(TRACE_SLOT_GCM | seq)
    }

    fn j0(nonce: &[u8; NONCE_LEN]) -> Block {
        let mut j0 = [0u8; 16];
        for (slot, byte) in j0.iter_mut().zip(nonce.iter()) {
            *slot = *byte;
        }
        j0[15] = 1;
        j0
    }

    /// Encrypts `plaintext` bound to `aad`, returning `ciphertext || tag`.
    ///
    /// Never reuse a `(key, nonce)` pair — GCM's guarantees collapse if the
    /// counter stream repeats.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let _timer = self.seal_time.start();
        self.sealed_bytes.incr(plaintext.len() as u64);
        self.seal_one(nonce, plaintext, aad)
    }

    /// Fast-path seal without per-call telemetry; shared by [`AesGcm::seal`]
    /// and [`AesGcm::seal_many`].
    fn seal_one(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let j0 = Self::j0(nonce);
        let mut counter = j0;
        increment_counter(&mut counter);
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.aes.ctr_xor(counter, &mut out);
        let tag = self.tag(j0, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Reference-path twin of [`AesGcm::seal`]: S-box AES rounds and bitwise
    /// GHASH, no tables, no interleaving. Differential oracle.
    pub fn seal_reference(
        &self,
        nonce: &[u8; NONCE_LEN],
        plaintext: &[u8],
        aad: &[u8],
    ) -> Vec<u8> {
        let j0 = Self::j0(nonce);
        let mut counter = j0;
        increment_counter(&mut counter);
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.aes.ctr_xor_reference(counter, &mut out);
        let tag = self.tag_reference(j0, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `sealed` (as produced by [`AesGcm::seal`]) bound to `aad`.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::CiphertextTooShort`] if `sealed` is shorter than the
    ///   16-byte tag.
    /// * [`CryptoError::AuthenticationFailed`] if the tag does not verify;
    ///   no plaintext is released in that case.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        sealed: &[u8],
        aad: &[u8],
    ) -> crate::Result<Vec<u8>> {
        let _timer = self.open_time.start();
        let pt = self.open_one(nonce, sealed, aad)?;
        self.opened_bytes.incr(pt.len() as u64);
        Ok(pt)
    }

    /// Fast-path open without per-call telemetry; shared by [`AesGcm::open`]
    /// and [`AesGcm::open_many`].
    fn open_one(
        &self,
        nonce: &[u8; NONCE_LEN],
        sealed: &[u8],
        aad: &[u8],
    ) -> crate::Result<Vec<u8>> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::CiphertextTooShort);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let j0 = Self::j0(nonce);
        let expected = self.tag(j0, aad, ct);
        if !ct::eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut counter = j0;
        increment_counter(&mut counter);
        let mut pt = ct.to_vec();
        self.aes.ctr_xor(counter, &mut pt);
        Ok(pt)
    }

    /// Reference-path twin of [`AesGcm::open`]. Differential oracle.
    ///
    /// # Errors
    ///
    /// Same contract as [`AesGcm::open`].
    pub fn open_reference(
        &self,
        nonce: &[u8; NONCE_LEN],
        sealed: &[u8],
        aad: &[u8],
    ) -> crate::Result<Vec<u8>> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::CiphertextTooShort);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let j0 = Self::j0(nonce);
        let expected = self.tag_reference(j0, aad, ct);
        if !ct::eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut counter = j0;
        increment_counter(&mut counter);
        let mut pt = ct.to_vec();
        self.aes.ctr_xor_reference(counter, &mut pt);
        Ok(pt)
    }

    /// Seals a whole burst of frames in one call: frame `i` is sealed with
    /// `nonces[i]`, `plaintexts[i]`, `aads[i]`, exactly as `seal` would, and
    /// the outputs are byte-identical to looping `seal` — the batch form
    /// exists so MACsec/PON callers pay telemetry once per TDMA burst
    /// instead of once per frame.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BatchLengthMismatch`] when the three slices
    /// disagree in length; nothing is sealed in that case.
    pub fn seal_many(
        &self,
        nonces: &[[u8; NONCE_LEN]],
        plaintexts: &[&[u8]],
        aads: &[&[u8]],
    ) -> crate::Result<Vec<Vec<u8>>> {
        Self::check_batch(nonces.len(), plaintexts.len(), aads.len())?;
        let _span = self.telemetry.span_at("crypto.gcm.seal_many", self.batch_ctx());
        self.sealed_frames.incr(nonces.len() as u64);
        self.sealed_bytes
            .incr(plaintexts.iter().map(|p| p.len() as u64).sum());
        let mut out = Vec::with_capacity(nonces.len());
        for ((nonce, pt), aad) in nonces.iter().zip(plaintexts).zip(aads) {
            out.push(self.seal_one(nonce, pt, aad));
        }
        Ok(out)
    }

    /// Reference twin of [`AesGcm::seal_many`]: loops [`AesGcm::seal_reference`].
    ///
    /// # Errors
    ///
    /// Same contract as [`AesGcm::seal_many`].
    pub fn seal_many_reference(
        &self,
        nonces: &[[u8; NONCE_LEN]],
        plaintexts: &[&[u8]],
        aads: &[&[u8]],
    ) -> crate::Result<Vec<Vec<u8>>> {
        Self::check_batch(nonces.len(), plaintexts.len(), aads.len())?;
        let mut out = Vec::with_capacity(nonces.len());
        for ((nonce, pt), aad) in nonces.iter().zip(plaintexts).zip(aads) {
            out.push(self.seal_reference(nonce, pt, aad));
        }
        Ok(out)
    }

    /// Opens a whole burst of frames in one call. The outer `Result` only
    /// reports batch-shape errors; each frame gets its own inner `Result`
    /// with exactly the per-frame errors `open` would return, so one forged
    /// frame never masks its neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BatchLengthMismatch`] when the three slices
    /// disagree in length.
    pub fn open_many(
        &self,
        nonces: &[[u8; NONCE_LEN]],
        sealed: &[&[u8]],
        aads: &[&[u8]],
    ) -> crate::Result<Vec<crate::Result<Vec<u8>>>> {
        Self::check_batch(nonces.len(), sealed.len(), aads.len())?;
        let _span = self.telemetry.span_at("crypto.gcm.open_many", self.batch_ctx());
        self.opened_frames.incr(nonces.len() as u64);
        let mut out = Vec::with_capacity(nonces.len());
        let mut opened = 0u64;
        for ((nonce, ct), aad) in nonces.iter().zip(sealed).zip(aads) {
            let frame = self.open_one(nonce, ct, aad);
            if let Ok(pt) = &frame {
                opened += pt.len() as u64;
            }
            out.push(frame);
        }
        self.opened_bytes.incr(opened);
        Ok(out)
    }

    /// Reference twin of [`AesGcm::open_many`]: loops [`AesGcm::open_reference`].
    ///
    /// # Errors
    ///
    /// Same contract as [`AesGcm::open_many`].
    pub fn open_many_reference(
        &self,
        nonces: &[[u8; NONCE_LEN]],
        sealed: &[&[u8]],
        aads: &[&[u8]],
    ) -> crate::Result<Vec<crate::Result<Vec<u8>>>> {
        Self::check_batch(nonces.len(), sealed.len(), aads.len())?;
        let mut out = Vec::with_capacity(nonces.len());
        for ((nonce, ct), aad) in nonces.iter().zip(sealed).zip(aads) {
            out.push(self.open_reference(nonce, ct, aad));
        }
        Ok(out)
    }

    fn check_batch(nonces: usize, texts: usize, aads: usize) -> crate::Result<()> {
        if nonces != texts || nonces != aads {
            return Err(CryptoError::BatchLengthMismatch {
                nonces,
                texts,
                aads,
            });
        }
        Ok(())
    }

    fn tag(&self, j0: Block, aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let s = self.h.ghash(aad, ct);
        let e = u128::from_be_bytes(self.aes.encrypt_block(j0));
        (s ^ e).to_be_bytes()
    }

    fn tag_reference(&self, j0: Block, aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let s = ghash_reference(self.h_raw, aad, ct);
        let e = u128::from_be_bytes(self.aes.encrypt_block_reference(j0));
        (s ^ e).to_be_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn debug_does_not_depend_on_the_key() {
        let a = format!("{:?}", AesGcm::new(&[1u8; 32]).unwrap());
        assert_eq!(a, format!("{:?}", AesGcm::new(&[2u8; 32]).unwrap()));
        assert_eq!(a, "AesGcm { aes: Aes { size: Aes256, .. }, .. }");
    }

    fn run_case(key: &str, iv: &str, pt: &str, aad: &str, ct: &str, tag: &str) {
        let key = hex::decode(key).unwrap();
        let iv: [u8; 12] = hex::decode(iv).unwrap().try_into().unwrap();
        let pt = hex::decode(pt).unwrap();
        let aad = hex::decode(aad).unwrap();
        let gcm = AesGcm::new(&key).unwrap();
        // Fast path.
        let sealed = gcm.seal(&iv, &pt, &aad);
        let (got_ct, got_tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(hex::encode(got_ct), ct, "ciphertext");
        assert_eq!(hex::encode(got_tag), tag, "tag");
        assert_eq!(gcm.open(&iv, &sealed, &aad).unwrap(), pt);
        // Reference path must produce the identical bytes.
        assert_eq!(gcm.seal_reference(&iv, &pt, &aad), sealed, "reference seal");
        assert_eq!(gcm.open_reference(&iv, &sealed, &aad).unwrap(), pt);
    }

    // McGrew-Viega GCM spec, test case 1: everything empty.
    #[test]
    fn gcm_test_case_1() {
        run_case(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        );
    }

    // Test case 2: one zero block.
    #[test]
    fn gcm_test_case_2() {
        run_case(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "0388dace60b6a392f328c2b971b2fe78",
            "ab6e47d42cec13bdf53a67b21257bddf",
        );
    }

    // Test case 3: four blocks, no AAD.
    #[test]
    fn gcm_test_case_3() {
        run_case(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        );
    }

    // Test case 4: partial final block plus AAD.
    #[test]
    fn gcm_test_case_4() {
        run_case(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        );
    }

    // Test case 16: AES-256 with AAD.
    #[test]
    fn gcm_test_case_16() {
        run_case(
            "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
            "76fc6ece0f4e1768cddf8853bb2d551b",
        );
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let gcm = AesGcm::new(&[3u8; 16]).unwrap();
        let nonce = [5u8; 12];
        let mut sealed = gcm.seal(&nonce, b"secret", b"aad");
        sealed[0] ^= 0x80;
        assert_eq!(
            gcm.open(&nonce, &sealed, b"aad"),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(
            gcm.open_reference(&nonce, &sealed, b"aad"),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_aad_rejected() {
        let gcm = AesGcm::new(&[3u8; 16]).unwrap();
        let nonce = [5u8; 12];
        let sealed = gcm.seal(&nonce, b"secret", b"aad");
        assert_eq!(
            gcm.open(&nonce, &sealed, b"aae"),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn wrong_nonce_rejected() {
        let gcm = AesGcm::new(&[3u8; 16]).unwrap();
        let sealed = gcm.seal(&[5u8; 12], b"secret", b"");
        assert_eq!(
            gcm.open(&[6u8; 12], &sealed, b""),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn short_input_rejected() {
        let gcm = AesGcm::new(&[3u8; 16]).unwrap();
        assert_eq!(
            gcm.open(&[0u8; 12], &[0u8; 15], b""),
            Err(CryptoError::CiphertextTooShort)
        );
        assert_eq!(
            gcm.open_reference(&[0u8; 12], &[0u8; 15], b""),
            Err(CryptoError::CiphertextTooShort)
        );
    }

    fn burst(n: usize) -> (Vec<[u8; NONCE_LEN]>, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let nonces: Vec<[u8; NONCE_LEN]> = (0..n)
            .map(|i| {
                let mut nonce = [0u8; NONCE_LEN];
                nonce[..8].copy_from_slice(&(i as u64).to_be_bytes());
                nonce
            })
            .collect();
        let pts: Vec<Vec<u8>> = (0..n)
            .map(|i| (0..(i * 7) % 64).map(|b| (b ^ i) as u8).collect())
            .collect();
        let aads: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; i % 5]).collect();
        (nonces, pts, aads)
    }

    #[test]
    fn seal_many_matches_looped_seal_and_roundtrips() {
        let gcm = AesGcm::new(&[9u8; 24]).unwrap();
        let (nonces, pts, aads) = burst(17);
        let pt_refs: Vec<&[u8]> = pts.iter().map(Vec::as_slice).collect();
        let aad_refs: Vec<&[u8]> = aads.iter().map(Vec::as_slice).collect();
        let sealed = gcm.seal_many(&nonces, &pt_refs, &aad_refs).unwrap();
        for (i, frame) in sealed.iter().enumerate() {
            assert_eq!(*frame, gcm.seal(&nonces[i], &pts[i], &aads[i]), "frame {i}");
        }
        let sealed_refs: Vec<&[u8]> = sealed.iter().map(Vec::as_slice).collect();
        let opened = gcm.open_many(&nonces, &sealed_refs, &aad_refs).unwrap();
        for (i, frame) in opened.into_iter().enumerate() {
            assert_eq!(frame.unwrap(), pts[i], "frame {i}");
        }
    }

    #[test]
    fn open_many_reports_per_frame_tampering() {
        let gcm = AesGcm::new(&[9u8; 16]).unwrap();
        let (nonces, pts, aads) = burst(5);
        let pt_refs: Vec<&[u8]> = pts.iter().map(Vec::as_slice).collect();
        let aad_refs: Vec<&[u8]> = aads.iter().map(Vec::as_slice).collect();
        let mut sealed = gcm.seal_many(&nonces, &pt_refs, &aad_refs).unwrap();
        sealed[2][0] ^= 1;
        let sealed_refs: Vec<&[u8]> = sealed.iter().map(Vec::as_slice).collect();
        let opened = gcm.open_many(&nonces, &sealed_refs, &aad_refs).unwrap();
        for (i, frame) in opened.into_iter().enumerate() {
            if i == 2 {
                assert_eq!(frame, Err(CryptoError::AuthenticationFailed));
            } else {
                assert_eq!(frame.unwrap(), pts[i], "frame {i}");
            }
        }
    }

    #[test]
    fn batch_shape_mismatch_rejected_up_front() {
        let gcm = AesGcm::new(&[9u8; 16]).unwrap();
        let nonces = [[0u8; NONCE_LEN]; 2];
        let texts: [&[u8]; 1] = [b"x"];
        let aads: [&[u8]; 2] = [b"", b""];
        assert!(matches!(
            gcm.seal_many(&nonces, &texts, &aads),
            Err(CryptoError::BatchLengthMismatch {
                nonces: 2,
                texts: 1,
                aads: 2
            })
        ));
        assert!(matches!(
            gcm.open_many(&nonces, &texts, &aads),
            Err(CryptoError::BatchLengthMismatch { .. })
        ));
    }
}
