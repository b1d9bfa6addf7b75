//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! GCM is the AEAD used throughout the platform: MACsec frames (IEEE
//! 802.1AE mandates AES-GCM), XGS-PON payload encryption (ITU-T G.987.3
//! recommends AES-based payload protection), TLS-1.3-like record protection,
//! and LUKS-like volume encryption in the secure-boot substrate.
//!
//! Two implementations share one key object:
//!
//! * the **fast path**: one burst kernel behind every plain entry point.
//!   [`AesGcm::seal_many`]/[`AesGcm::open_many`] run it over a whole TDMA
//!   burst of same-key frames, given as one slice of [`Input`]s (nonce,
//!   AAD and text per frame, so a burst cannot be malformed), and
//!   [`AesGcm::seal`]/[`AesGcm::open`] over a burst of one. It makes two
//!   passes over the burst:
//!   - the **AES pass** runs each frame's full 8-block CTR runs on the
//!     contiguous keystream path, and sends the frame's remaining CTR
//!     blocks and its tag-mask block `E(J0)` to one lane pool shared by
//!     the whole burst, so they fill 8-lane passes of the T-table kernel
//!     ([`crate::aes`]) with their neighbours' blocks. A 64-byte frame is
//!     five such blocks;
//!   - the **GHASH pass** uses 8-bit windowed tables built once per key
//!     ([`crate::ghash`]; 16 KiB, so the keys of a whole PON tree stay in
//!     L2). Four consecutive frames with equal AAD and ciphertext block
//!     counts hash in lockstep, so their table lookups overlap; failing
//!     that, two such frames do (a GEM port's two-frame burst), and any
//!     other frame hashes alone. The burst's shapes make that choice;
//!     there is no setting.
//!
//!   Each frame's buffer ends in a tag slot that both passes XOR into, so
//!   a seal runs AES then GHASH (over the fresh ciphertext) and an open
//!   runs GHASH then AES. An open checks each tag only after both passes,
//!   releases the plaintext of frames that verify, and zeroes the buffer
//!   of a frame that fails before dropping it;
//! * the **reference path**: straight FIPS 197 S-box rounds and the bitwise
//!   GF(2^128) multiply, one frame at a time. Every fast entry point has a
//!   `_reference` twin (`seal_reference`, `open_many_reference`, …) that
//!   the tests and the E-L2 bench call directly as the differential oracle.
//!
//! Both paths are validated against the McGrew–Viega test cases here and the
//! committed NIST/RFC vector corpus in `tests/gcm_vectors.rs`; the
//! differential property suite in `tests/gcm_differential.rs` proves them
//! byte-identical on randomized inputs and on bursts shaped to take every
//! grouping the kernel makes.

use crate::aes::{increment_counter, xor_block_into, Aes, Block, BLOCK_LEN, KS_LANES};
use crate::ghash::{ghash_reference, GhashKey, LOCKSTEP};
use crate::{ct, CryptoError};
use genio_telemetry::{Counter, Telemetry};

/// Required nonce length in bytes (the 96-bit fast path of SP 800-38D).
pub const NONCE_LEN: usize = 12;

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// One frame of a burst for [`AesGcm::seal_many`]/[`AesGcm::open_many`]
/// and their `_reference` twins.
#[derive(Clone, Copy)]
pub struct Input<'a> {
    /// The frame's nonce. Never reuse one under the same key.
    pub nonce: [u8; NONCE_LEN],
    /// Associated data the tag binds to the frame.
    pub aad: &'a [u8],
    /// The plaintext to seal, or the `ciphertext || tag` to open.
    pub text: &'a [u8],
}

/// An AES-GCM AEAD cipher bound to one key.
///
/// Construction derives the AES key schedule and the 16 KiB GHASH tables
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
    sealed_bytes: Counter,
    opened_bytes: Counter,
    sealed_frames: Counter,
    opened_frames: Counter,
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
            sealed_bytes: Counter::disabled(),
            opened_bytes: Counter::disabled(),
            sealed_frames: Counter::disabled(),
            opened_frames: Counter::disabled(),
        })
    }

    /// Attaches telemetry: byte/frame counters and per-call spans
    /// `crypto.gcm.seal_many` / `crypto.gcm.open_many`, which every seal
    /// and open records, a single frame being a burst of one. Handles are
    /// resolved here, once; per-call cost is two clock reads and a few
    /// relaxed atomics, and batched calls pay it once per burst rather
    /// than once per frame.
    pub fn instrument(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self.sealed_bytes = telemetry.counter("crypto.gcm.sealed_bytes");
        self.opened_bytes = telemetry.counter("crypto.gcm.opened_bytes");
        self.sealed_frames = telemetry.counter("crypto.gcm.sealed_frames");
        self.opened_frames = telemetry.counter("crypto.gcm.opened_frames");
        self
    }

    fn j0(nonce: &[u8; NONCE_LEN]) -> Block {
        let mut j0 = [0u8; 16];
        for (slot, byte) in j0.iter_mut().zip(nonce.iter()) {
            *slot = *byte;
        }
        j0[15] = 1;
        j0
    }

    /// Encrypts `plaintext` bound to `aad`, returning `ciphertext || tag`:
    /// [`AesGcm::seal_many`] on a burst of one.
    ///
    /// Never reuse a `(key, nonce)` pair — GCM's guarantees collapse if the
    /// counter stream repeats.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let frame = Input {
            nonce: *nonce,
            aad,
            text: plaintext,
        };
        // One output per input, so `pop` finds the frame.
        self.seal_many(&[frame]).pop().unwrap_or_default()
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

    /// Decrypts `sealed` (as produced by [`AesGcm::seal`]) bound to `aad`:
    /// [`AesGcm::open_many`] on a burst of one.
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
        let frame = Input {
            nonce: *nonce,
            aad,
            text: sealed,
        };
        // One result per input; none would be a rejection.
        self.open_many(&[frame])
            .pop()
            .unwrap_or(Err(CryptoError::AuthenticationFailed))
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

    /// Seals a whole burst of frames in one call, one output per input
    /// in order, each byte-identical to [`AesGcm::seal`] on that frame.
    /// The burst runs as one kernel: every frame's tail CTR blocks and
    /// tag-mask block share 8-lane AES passes, and equal-shape frames hash
    /// in lockstep (module docs), while telemetry is paid once per burst
    /// instead of once per frame.
    pub fn seal_many(&self, inputs: &[Input<'_>]) -> Vec<Vec<u8>> {
        let _span = self.telemetry.span("crypto.gcm.seal_many");
        self.sealed_frames.incr(inputs.len() as u64);
        self.sealed_bytes
            .incr(inputs.iter().map(|f| f.text.len() as u64).sum());
        let mut frames: Vec<Frame> = inputs
            .iter()
            .map(|f| Frame::new(&f.nonce, f.aad, f.text))
            .collect();
        self.seal_frames(&mut frames);
        frames.into_iter().map(|frame| frame.buf).collect()
    }

    /// Reference twin of [`AesGcm::seal_many`]: loops [`AesGcm::seal_reference`].
    pub fn seal_many_reference(&self, inputs: &[Input<'_>]) -> Vec<Vec<u8>> {
        inputs
            .iter()
            .map(|f| self.seal_reference(&f.nonce, f.text, f.aad))
            .collect()
    }

    /// Opens a whole burst of frames in one call, with the kernel of
    /// [`AesGcm::seal_many`]. Each frame gets its own `Result`, with
    /// exactly the error [`AesGcm::open`] would return for it, so one
    /// forged frame never masks its neighbours.
    pub fn open_many(&self, inputs: &[Input<'_>]) -> Vec<crate::Result<Vec<u8>>> {
        let _span = self.telemetry.span("crypto.gcm.open_many");
        self.opened_frames.incr(inputs.len() as u64);
        let mut frames: Vec<Frame> = inputs
            .iter()
            .map(|f| Frame::opening(&f.nonce, f.aad, f.text))
            .collect();
        self.open_frames(&mut frames);
        let mut opened = 0u64;
        let out = frames
            .into_iter()
            .zip(inputs)
            .map(|(frame, f)| {
                let pt = frame.verify(f.text)?;
                opened += pt.len() as u64;
                Ok(pt)
            })
            .collect();
        self.opened_bytes.incr(opened);
        out
    }

    /// Reference twin of [`AesGcm::open_many`]: loops [`AesGcm::open_reference`].
    pub fn open_many_reference(&self, inputs: &[Input<'_>]) -> Vec<crate::Result<Vec<u8>>> {
        inputs
            .iter()
            .map(|f| self.open_reference(&f.nonce, f.text, f.aad))
            .collect()
    }

    /// Seal kernel: CTR turns each text into ciphertext and leaves `E(J0)`
    /// in the tag slot, then GHASH over the ciphertext completes the tag.
    fn seal_frames(&self, frames: &mut [Frame]) {
        self.keystream_pass(frames);
        self.hash_pass(frames);
    }

    /// Open kernel: GHASH over the ciphertext first, then CTR decrypts and
    /// XORs `E(J0)` in, leaving the expected tag in the slot for
    /// [`Frame::verify`].
    fn open_frames(&self, frames: &mut [Frame]) {
        self.hash_pass(frames);
        self.keystream_pass(frames);
    }

    /// The AES half of the kernel. Each frame's full 8-block runs take the
    /// contiguous keystream path ([`Aes::ctr_xor`]); its remaining CTR
    /// blocks and its tag-mask block `E(J0)` go to one lane pool shared by
    /// the whole burst.
    fn keystream_pass(&self, frames: &mut [Frame]) {
        let mut pool = self.aes.lane_pool();
        for frame in frames.iter_mut() {
            let j0 = Self::j0(frame.nonce);
            let Some((text, slot)) = frame.split_mut() else {
                continue;
            };
            let runs = text.len() - text.len() % RUN_LEN;
            let (runs, tail) = text.split_at_mut(runs);
            // J0 holds counter 1; the text's keystream starts at 2.
            if !runs.is_empty() {
                self.aes.ctr_xor(with_counter(j0, 2), runs);
            }
            let mut ctr = 2u32.wrapping_add((runs.len() / BLOCK_LEN) as u32);
            for block in tail.chunks_mut(BLOCK_LEN) {
                pool.push(with_counter(j0, ctr), block);
                ctr = ctr.wrapping_add(1);
            }
            pool.push(j0, slot);
        }
        pool.flush();
    }

    /// The GHASH half of the kernel: XORs each frame's GHASH over
    /// `(aad, text)` into its tag slot. [`LOCKSTEP`] consecutive frames of
    /// equal shape hash in lockstep, else two of equal shape do; any
    /// other frame hashes alone.
    fn hash_pass(&self, frames: &mut [Frame]) {
        let mut rest = frames;
        while let Some(step) = self
            .hash_group::<LOCKSTEP>(rest)
            .or_else(|| self.hash_group::<2>(rest))
            .or_else(|| self.hash_group::<1>(rest))
        {
            rest = std::mem::take(&mut rest)
                .get_mut(step..)
                .unwrap_or_default();
        }
    }

    /// Hashes the first `W` frames in lockstep and returns `W`, or `None`
    /// when there are fewer, or their shapes differ.
    fn hash_group<const W: usize>(&self, frames: &mut [Frame]) -> Option<usize> {
        let group = frames.first_chunk_mut::<W>()?;
        let hashes = self
            .h
            .ghash_group(group.each_ref().map(Frame::hash_input))?;
        for (frame, s) in group.iter_mut().zip(hashes) {
            frame.absorb(s);
        }
        Some(W)
    }

    fn tag_reference(&self, j0: Block, aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let s = ghash_reference(self.h_raw, aad, ct);
        let e = u128::from_be_bytes(self.aes.encrypt_block_reference(j0));
        (s ^ e).to_be_bytes()
    }
}

/// Bytes of one contiguous keystream run ([`KS_LANES`] blocks).
const RUN_LEN: usize = KS_LANES * BLOCK_LEN;

/// `block` with its trailing 32-bit big-endian counter set to `ctr`.
fn with_counter(mut block: Block, ctr: u32) -> Block {
    block[12..].copy_from_slice(&ctr.to_be_bytes());
    block
}

/// One frame of a burst inside the kernel.
struct Frame<'a> {
    nonce: &'a [u8; NONCE_LEN],
    aad: &'a [u8],
    /// `text || slot`: the text the kernel encrypts or decrypts in place,
    /// then a `TAG_LEN`-byte slot, zero at the start, into which the AES
    /// pass XORs `E(J0)` and the GHASH pass XORs `GHASH(aad, ciphertext)`;
    /// after both it holds the tag. Empty for a sealed input shorter than
    /// the tag, which the kernel skips.
    buf: Vec<u8>,
}

impl<'a> Frame<'a> {
    /// A frame to seal: `plaintext || 0^TAG_LEN`.
    fn new(nonce: &'a [u8; NONCE_LEN], aad: &'a [u8], plaintext: &[u8]) -> Self {
        let mut buf = Vec::with_capacity(plaintext.len() + TAG_LEN);
        buf.extend_from_slice(plaintext);
        buf.extend_from_slice(&[0; TAG_LEN]);
        Frame { nonce, aad, buf }
    }

    /// A frame to open: `ciphertext || 0^TAG_LEN`, or empty if `sealed` is
    /// shorter than the tag.
    fn opening(nonce: &'a [u8; NONCE_LEN], aad: &'a [u8], sealed: &[u8]) -> Self {
        match sealed.len().checked_sub(TAG_LEN) {
            Some(len) => Frame::new(nonce, aad, sealed.get(..len).unwrap_or_default()),
            None => Frame {
                nonce,
                aad,
                buf: Vec::new(),
            },
        }
    }

    /// The text and the tag slot, or `None` for a skipped frame.
    fn split_mut(&mut self) -> Option<(&mut [u8], &mut [u8])> {
        let len = self.buf.len().checked_sub(TAG_LEN)?;
        Some(self.buf.split_at_mut(len))
    }

    /// The GHASH input: the AAD and the text as it stands.
    fn hash_input(&self) -> (&'a [u8], &[u8]) {
        let len = self.buf.len().saturating_sub(TAG_LEN);
        (self.aad, self.buf.get(..len).unwrap_or_default())
    }

    /// XORs a GHASH value into the tag slot.
    fn absorb(&mut self, s: u128) {
        if let Some((_, slot)) = self.split_mut() {
            xor_block_into(slot, &s.to_be_bytes());
        }
    }

    /// Checks the tag the open kernel computed against the one `sealed`
    /// carries and releases the plaintext only if they match (the slot
    /// then holds the public tag, cut off by the truncation). A failed
    /// frame's buffer, which holds its decrypted bytes and the expected
    /// tag, is zeroed before it is dropped.
    fn verify(self, sealed: &[u8]) -> crate::Result<Vec<u8>> {
        let len = sealed
            .len()
            .checked_sub(TAG_LEN)
            .ok_or(CryptoError::CiphertextTooShort)?;
        let mut buf = self.buf;
        if buf
            .get(len..)
            .zip(sealed.get(len..))
            .is_some_and(|(want, got)| ct::eq(want, got))
        {
            buf.truncate(len);
            return Ok(buf);
        }
        buf.fill(0);
        std::hint::black_box(&buf);
        Err(CryptoError::AuthenticationFailed)
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

    /// Seal inputs for `nonces`, `texts` and `aads`, frame by frame.
    fn inputs<'a>(
        nonces: &[[u8; NONCE_LEN]],
        texts: &'a [Vec<u8>],
        aads: &'a [Vec<u8>],
    ) -> Vec<Input<'a>> {
        nonces
            .iter()
            .zip(texts)
            .zip(aads)
            .map(|((&nonce, text), aad)| Input { nonce, aad, text })
            .collect()
    }

    #[test]
    fn seal_many_matches_looped_seal_and_roundtrips() {
        let gcm = AesGcm::new(&[9u8; 24]).unwrap();
        let (nonces, pts, aads) = burst(17);
        let sealed = gcm.seal_many(&inputs(&nonces, &pts, &aads));
        for (i, frame) in sealed.iter().enumerate() {
            assert_eq!(*frame, gcm.seal(&nonces[i], &pts[i], &aads[i]), "frame {i}");
        }
        let opened = gcm.open_many(&inputs(&nonces, &sealed, &aads));
        for (i, frame) in opened.into_iter().enumerate() {
            assert_eq!(frame.unwrap(), pts[i], "frame {i}");
        }
    }

    #[test]
    fn open_many_reports_per_frame_tampering() {
        let gcm = AesGcm::new(&[9u8; 16]).unwrap();
        let (nonces, pts, aads) = burst(5);
        let mut sealed = gcm.seal_many(&inputs(&nonces, &pts, &aads));
        sealed[2][0] ^= 1;
        let opened = gcm.open_many(&inputs(&nonces, &sealed, &aads));
        for (i, frame) in opened.into_iter().enumerate() {
            if i == 2 {
                assert_eq!(frame, Err(CryptoError::AuthenticationFailed));
            } else {
                assert_eq!(frame.unwrap(), pts[i], "frame {i}");
            }
        }
    }
}
