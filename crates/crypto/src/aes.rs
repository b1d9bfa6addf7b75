//! AES block cipher (FIPS 197) supporting 128-, 192- and 256-bit keys.
//!
//! Only the forward cipher is implemented: CTR and GCM ([`crate::gcm`]),
//! the only modes layered on top, decrypt by encrypting counters, so
//! there is no inverse S-box and no inverse round. The S-box is derived
//! at first use from the GF(2^8) multiplicative inverse and the FIPS
//! affine transform rather than embedded as an opaque table, and the
//! implementation is validated against the FIPS 197 appendix vectors.
//!
//! The fast path is one T-table kernel, `encrypt_lanes`, that runs 1, 2, 4
//! or 8 independent blocks round by round together. Every fast encryption
//! goes through it: [`Aes::encrypt_block`] as one lane, [`Aes::ctr_xor`]
//! as 8 consecutive counters per pass (a final partial run uses only the
//! bytes it needs), and GCM's burst kernel through a `LanePool` that
//! gathers single blocks from many frames. The straight FIPS 197 rounds
//! (`encrypt_block_reference`, [`Aes::ctr_xor_reference`]) are the
//! differential oracles.

use std::sync::OnceLock;

use crate::CryptoError;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// A single 16-byte AES block.
pub type Block = [u8; BLOCK_LEN];

fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8); exponentiate by squaring.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

fn sbox() -> &'static [u8; 256] {
    static SBOX: OnceLock<[u8; 256]> = OnceLock::new();
    SBOX.get_or_init(|| {
        let mut s = [0u8; 256];
        for (i, slot) in s.iter_mut().enumerate() {
            let b = gf_inv(i as u8);
            *slot = b
                ^ b.rotate_left(1)
                ^ b.rotate_left(2)
                ^ b.rotate_left(3)
                ^ b.rotate_left(4)
                ^ 0x63;
        }
        s
    })
}

/// Encryption T-tables: SubBytes, ShiftRows and MixColumns fused into four
/// 256-entry u32 tables (the classic software-AES optimization). `TE0[x]`
/// holds the column contribution `(2s, s, s, 3s)` of a row-0 byte, and the
/// other tables are its byte rotations for rows 1–3.
fn te_tables() -> &'static [[u32; 256]; 4] {
    static TE: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
    TE.get_or_init(|| {
        let s = sbox();
        let mut te = [[0u32; 256]; 4];
        for x in 0..256 {
            let sb = s[x];
            let t0 = u32::from_be_bytes([gf_mul(sb, 2), sb, sb, gf_mul(sb, 3)]);
            te[0][x] = t0;
            te[1][x] = t0.rotate_right(8);
            te[2][x] = t0.rotate_right(16);
            te[3][x] = t0.rotate_right(24);
        }
        te
    })
}

/// Supported AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Number of 32-bit words in the key.
    pub fn nk(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }

    /// Number of rounds.
    pub fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        self.nk() * 4
    }
}

/// An AES key schedule ready for block encryption. Only the forward
/// cipher exists: CTR and GCM decrypt by encrypting counters.
///
/// # Example
///
/// ```
/// use genio_crypto::aes::Aes;
///
/// # fn main() -> Result<(), genio_crypto::CryptoError> {
/// let aes = Aes::new(&[0u8; 16])?;
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(genio_crypto::hex::encode(&ct), "66e94bd4ef8a2c3b884cfa59ca342b2e");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    /// Round keys as big-endian u32 columns, for the T-table fast path.
    enc_round_keys: Vec<[u32; 4]>,
    size: KeySize,
}

// Round keys are the key expanded, so only the key size is printed.
impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes")
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

impl Aes {
    /// Expands `key` into a full key schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] unless `key` is 16, 24 or 32
    /// bytes.
    pub fn new(key: &[u8]) -> crate::Result<Self> {
        let size = match key.len() {
            16 => KeySize::Aes128,
            24 => KeySize::Aes192,
            32 => KeySize::Aes256,
            n => {
                return Err(CryptoError::InvalidKeyLength {
                    got: n,
                    expected: "16, 24 or 32 bytes",
                })
            }
        };
        let nk = size.nk();
        let nr = size.rounds();
        let s = sbox();
        let mut w = vec![[0u8; 4]; 4 * (nr + 1)];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        let mut rcon = 1u8;
        for i in nk..4 * (nr + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = s[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = s[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let mut round_keys = Vec::with_capacity(nr + 1);
        let mut enc_round_keys = Vec::with_capacity(nr + 1);
        for r in 0..=nr {
            let mut rk = [0u8; 16];
            let mut cols = [0u32; 4];
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                cols[c] = u32::from_be_bytes(w[r * 4 + c]);
            }
            round_keys.push(rk);
            enc_round_keys.push(cols);
        }
        Ok(Aes {
            round_keys,
            enc_round_keys,
            size,
        })
    }

    /// The key size this schedule was built for.
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// Encrypts one 16-byte block: a one-lane pass of the fast-path kernel.
    pub fn encrypt_block(&self, block: Block) -> Block {
        let mut out = [[0; BLOCK_LEN]];
        self.encrypt_lanes(&[load_words(&block)], &mut out);
        let [out] = out;
        out
    }

    /// Reference (straight FIPS 197) encryption: the differential oracle
    /// twin of [`Aes::encrypt_block`].
    #[doc(hidden)]
    pub fn encrypt_block_reference(&self, mut block: Block) -> Block {
        let s = sbox();
        let nr = self.size.rounds();
        xor_block(&mut block, &self.round_keys[0]);
        for round in 1..nr {
            sub_bytes(&mut block, s);
            shift_rows(&mut block);
            mix_columns(&mut block);
            xor_block(&mut block, &self.round_keys[round]);
        }
        sub_bytes(&mut block, s);
        shift_rows(&mut block);
        xor_block(&mut block, &self.round_keys[nr]);
        block
    }

    /// The fused T-table rounds (SubBytes, ShiftRows and MixColumns in
    /// four table lookups per column) over `N` independent blocks held as
    /// big-endian column words, writing lane `i`'s ciphertext to
    /// `out[i]`. All lanes advance
    /// round by round together, so their dependency chains fill the
    /// pipeline instead of serializing block by block. Every fast-path
    /// encryption runs here: one lane for [`Aes::encrypt_block`], up to
    /// [`KS_LANES`] for CTR runs and the GCM burst pool ([`LanePool`]).
    ///
    /// Side-channel note (analyzer rule R11): the table indices are bytes
    /// of the evolving cipher state, whichever frame a lane belongs to.
    /// Key material only enters through the XORed round keys, never as an
    /// index, so the secret-index taint R11 tracks does not arise; see
    /// `ghash.rs` for the residual cache-timing caveat.
    fn encrypt_lanes<const N: usize>(&self, blocks: &[[u32; 4]; N], out: &mut [Block; N]) {
        let te = te_tables();
        let s = sbox();
        // The schedule always holds rounds + 1 keys: the first whitens,
        // the last closes the final round, the rest drive the middle.
        let [rk0, middle @ .., rkl] = self.enc_round_keys.as_slice() else {
            return;
        };
        let mut lanes = [[0u32; 4]; N];
        for (lane, block) in lanes.iter_mut().zip(blocks) {
            lane[0] = block[0] ^ rk0[0];
            lane[1] = block[1] ^ rk0[1];
            lane[2] = block[2] ^ rk0[2];
            lane[3] = block[3] ^ rk0[3];
        }
        for rkr in middle {
            for lane in lanes.iter_mut() {
                let c = *lane;
                // The round key goes in first: XORed last, it would tempt
                // the vectorizer to pack the four words every round.
                lane[0] = rkr[0]
                    ^ te[0][(c[0] >> 24) as usize]
                    ^ te[1][((c[1] >> 16) & 0xff) as usize]
                    ^ te[2][((c[2] >> 8) & 0xff) as usize]
                    ^ te[3][(c[3] & 0xff) as usize];
                lane[1] = rkr[1]
                    ^ te[0][(c[1] >> 24) as usize]
                    ^ te[1][((c[2] >> 16) & 0xff) as usize]
                    ^ te[2][((c[3] >> 8) & 0xff) as usize]
                    ^ te[3][(c[0] & 0xff) as usize];
                lane[2] = rkr[2]
                    ^ te[0][(c[2] >> 24) as usize]
                    ^ te[1][((c[3] >> 16) & 0xff) as usize]
                    ^ te[2][((c[0] >> 8) & 0xff) as usize]
                    ^ te[3][(c[1] & 0xff) as usize];
                lane[3] = rkr[3]
                    ^ te[0][(c[3] >> 24) as usize]
                    ^ te[1][((c[0] >> 16) & 0xff) as usize]
                    ^ te[2][((c[1] >> 8) & 0xff) as usize]
                    ^ te[3][(c[2] & 0xff) as usize];
            }
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        for (lane, block) in lanes.iter().zip(out.iter_mut()) {
            let words = final_round_words(lane, s, rkl);
            for (word, bytes) in words.iter().zip(block.chunks_exact_mut(4)) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
        }
    }

    /// Encrypts `data` in CTR mode with the given 16-byte initial counter
    /// block, XORing the keystream in place.
    ///
    /// CTR encryption and decryption are the same operation. Each run of 8
    /// consecutive counter blocks is one 8-lane pass of the fast-path
    /// kernel; a final partial run uses only the bytes it needs.
    /// [`Aes::ctr_xor_reference`] is the one-block-at-a-time oracle twin.
    pub fn ctr_xor(&self, initial_counter: Block, data: &mut [u8]) {
        let [p0, p1, p2, mut ctr] = load_words(&initial_counter);
        let mut ks = [[0u8; BLOCK_LEN]; KS_LANES];
        for chunk in data.chunks_mut(KS_LANES * BLOCK_LEN) {
            let mut lanes = [[0u32; 4]; KS_LANES];
            for lane in lanes.iter_mut() {
                *lane = [p0, p1, p2, ctr];
                // The counter arithmetic stays in u32 so wrap-around
                // matches `increment_counter`'s 32-bit big-endian semantics.
                ctr = ctr.wrapping_add(1);
            }
            self.encrypt_lanes(&lanes, &mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.as_flattened()) {
                *b ^= k;
            }
        }
    }

    /// An empty [`LanePool`] over this key schedule.
    pub(crate) fn lane_pool<'d>(&self) -> LanePool<'_, 'd> {
        LanePool {
            aes: self,
            counters: [[0; 4]; KS_LANES],
            dests: Default::default(),
            filled: 0,
        }
    }

    /// Reference CTR mode: one straight FIPS 197 block encryption per
    /// 16 bytes, no interleaving. Differential oracle twin of
    /// [`Aes::ctr_xor`].
    pub fn ctr_xor_reference(&self, initial_counter: Block, data: &mut [u8]) {
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let keystream = self.encrypt_block_reference(counter);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
            increment_counter(&mut counter);
        }
    }
}

/// Number of blocks one interleaved pass of the T-table kernel carries.
pub(crate) const KS_LANES: usize = 8;

/// Gathers single counter blocks from anywhere in a same-key burst (any
/// frame, any counter) and encrypts them [`KS_LANES`] at a time, XORing
/// each keystream block into its own destination of up to 16 bytes. GCM
/// feeds it every frame's tag-mask block `E(J0)` and the CTR blocks past
/// the frame's last full [`KS_LANES`] run, so a 64-byte frame's five
/// blocks share passes with its neighbours' instead of taking five
/// one-block passes.
pub(crate) struct LanePool<'k, 'd> {
    aes: &'k Aes,
    counters: [[u32; 4]; KS_LANES],
    dests: [&'d mut [u8]; KS_LANES],
    filled: usize,
}

impl<'d> LanePool<'_, 'd> {
    /// Queues `E(counter)` to be XORed into `dest`, running a pass once
    /// [`KS_LANES`] blocks are queued.
    pub(crate) fn push(&mut self, counter: Block, dest: &'d mut [u8]) {
        if let (Some(lane), Some(slot)) = (
            self.counters.get_mut(self.filled),
            self.dests.get_mut(self.filled),
        ) {
            *lane = load_words(&counter);
            *slot = dest;
            self.filled += 1;
        }
        if self.filled == KS_LANES {
            self.flush();
        }
    }

    /// Runs the queued blocks: a full pool in one pass, a partial one in
    /// 4-, 2- and 1-lane passes, so no lane is spent on nothing.
    pub(crate) fn flush(&mut self) {
        let filled = std::mem::take(&mut self.filled);
        if filled == KS_LANES {
            self.pass::<KS_LANES>(0);
            return;
        }
        let mut at = 0;
        if filled & 4 != 0 {
            self.pass::<4>(at);
            at += 4;
        }
        if filled & 2 != 0 {
            self.pass::<2>(at);
            at += 2;
        }
        if filled & 1 != 0 {
            self.pass::<1>(at);
        }
    }

    /// Encrypts the `N` queued blocks from lane `at` in one pass and XORs
    /// each keystream block into its destination.
    fn pass<const N: usize>(&mut self, at: usize) {
        let (Some(counters), Some(dests)) = (
            self.counters.get(at..).and_then(|c| c.first_chunk::<N>()),
            self.dests.get_mut(at..),
        ) else {
            return;
        };
        let mut ks = [[0u8; BLOCK_LEN]; N];
        self.aes.encrypt_lanes(counters, &mut ks);
        for (ks, dest) in ks.iter().zip(dests) {
            xor_block_into(std::mem::take(dest), ks);
        }
    }
}

/// XORs a keystream block into `dest` (a full block, or a frame's final
/// partial one).
#[inline]
pub(crate) fn xor_block_into(dest: &mut [u8], ks: &Block) {
    if let Ok(full) = <&mut Block>::try_from(&mut *dest) {
        *full = (u128::from_be_bytes(*full) ^ u128::from_be_bytes(*ks)).to_be_bytes();
        return;
    }
    for (b, k) in dest.iter_mut().zip(ks) {
        *b ^= k;
    }
}

/// A block as four big-endian column words, the kernel's lane layout.
#[inline]
fn load_words(block: &Block) -> [u32; 4] {
    let x = u128::from_be_bytes(*block);
    [
        (x >> 96) as u32,
        (x >> 64) as u32,
        (x >> 32) as u32,
        x as u32,
    ]
}

/// The AES final round (SubBytes + ShiftRows + AddRoundKey) for one block
/// held as four column words, fully unrolled: every table index is either a
/// literal or a byte masked to the S-box length.
#[inline]
fn final_round_words(c: &[u32; 4], s: &[u8; 256], rkl: &[u32; 4]) -> [u32; 4] {
    [
        u32::from_be_bytes([
            s[((c[0] >> 24) & 0xff) as usize],
            s[((c[1] >> 16) & 0xff) as usize],
            s[((c[2] >> 8) & 0xff) as usize],
            s[(c[3] & 0xff) as usize],
        ]) ^ rkl[0],
        u32::from_be_bytes([
            s[((c[1] >> 24) & 0xff) as usize],
            s[((c[2] >> 16) & 0xff) as usize],
            s[((c[3] >> 8) & 0xff) as usize],
            s[(c[0] & 0xff) as usize],
        ]) ^ rkl[1],
        u32::from_be_bytes([
            s[((c[2] >> 24) & 0xff) as usize],
            s[((c[3] >> 16) & 0xff) as usize],
            s[((c[0] >> 8) & 0xff) as usize],
            s[(c[1] & 0xff) as usize],
        ]) ^ rkl[2],
        u32::from_be_bytes([
            s[((c[3] >> 24) & 0xff) as usize],
            s[((c[0] >> 16) & 0xff) as usize],
            s[((c[1] >> 8) & 0xff) as usize],
            s[(c[2] & 0xff) as usize],
        ]) ^ rkl[3],
    ]
}

/// Increments the last 32 bits of a counter block (big-endian), as specified
/// for GCM's CTR mode.
pub fn increment_counter(block: &mut Block) {
    let mut ctr = u32::from_be_bytes([block[12], block[13], block[14], block[15]]);
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

fn xor_block(a: &mut Block, b: &Block) {
    for i in 0..BLOCK_LEN {
        a[i] ^= b[i];
    }
}

fn sub_bytes(block: &mut Block, table: &[u8; 256]) {
    for b in block.iter_mut() {
        *b = table[*b as usize];
    }
}

// State layout: block[r + 4c] is row r, column c (FIPS 197 §3.4).
fn shift_rows(block: &mut Block) {
    for r in 1..4 {
        let mut row = [block[r], block[r + 4], block[r + 8], block[r + 12]];
        row.rotate_left(r);
        block[r] = row[0];
        block[r + 4] = row[1];
        block[r + 8] = row[2];
        block[r + 12] = row[3];
    }
}

fn mix_columns(block: &mut Block) {
    for c in 0..4 {
        let col = [
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ];
        block[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        block[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        block[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        block[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn debug_does_not_depend_on_the_key() {
        let a = format!("{:?}", Aes::new(&[1u8; 16]).unwrap());
        assert_eq!(a, format!("{:?}", Aes::new(&[2u8; 16]).unwrap()));
        assert_eq!(a, "Aes { size: Aes128, .. }");
    }

    fn check(key_hex: &str, pt_hex: &str, ct_hex: &str) {
        let key = hex::decode(key_hex).unwrap();
        let pt: Block = hex::decode(pt_hex).unwrap().try_into().unwrap();
        let aes = Aes::new(&key).unwrap();
        let ct = aes.encrypt_block(pt);
        assert_eq!(hex::encode(&ct), ct_hex);
    }

    // FIPS 197 Appendix C.1.
    #[test]
    fn fips197_aes128() {
        check(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    // FIPS 197 Appendix C.2.
    #[test]
    fn fips197_aes192() {
        check(
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "00112233445566778899aabbccddeeff",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        );
    }

    // FIPS 197 Appendix C.3.
    #[test]
    fn fips197_aes256() {
        check(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        );
    }

    // FIPS 197 Appendix B worked example.
    #[test]
    fn fips197_appendix_b() {
        check(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        );
    }

    #[test]
    fn rejects_bad_key_length() {
        assert!(matches!(
            Aes::new(&[0u8; 17]),
            Err(CryptoError::InvalidKeyLength { got: 17, .. })
        ));
    }

    #[test]
    fn ctr_roundtrip_and_partial_block() {
        let aes = Aes::new(&[9u8; 32]).unwrap();
        let counter = [1u8; 16];
        let mut data = b"seventeen bytes!!".to_vec();
        let original = data.clone();
        aes.ctr_xor(counter, &mut data);
        assert_ne!(data, original);
        aes.ctr_xor(counter, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn counter_increment_wraps_32_bits() {
        let mut block = [0xffu8; 16];
        increment_counter(&mut block);
        // Only the last 4 bytes wrap; the rest are untouched.
        assert_eq!(&block[..12], &[0xff; 12]);
        assert_eq!(&block[12..], &[0, 0, 0, 0]);
    }

    #[test]
    fn ttable_path_matches_reference_for_all_key_sizes() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8)
                .map(|i| i.wrapping_mul(7) ^ 0x5a)
                .collect();
            let aes = Aes::new(&key).unwrap();
            let mut block = [0x3cu8; 16];
            for _ in 0..50 {
                let fast = aes.encrypt_block(block);
                let slow = aes.encrypt_block_reference(block);
                assert_eq!(fast, slow, "key_len {key_len}");
                block = fast;
            }
        }
    }

    #[test]
    fn ctr_interleaved_matches_reference_across_lengths() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8)
                .map(|i| i.wrapping_mul(13) ^ 0xa7)
                .collect();
            let aes = Aes::new(&key).unwrap();
            let counter = [0x42u8; 16];
            // Lengths straddle the 8-lane batch boundary (128 bytes) and
            // include partial final blocks.
            for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 255, 256, 1500] {
                let mut fast: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let mut slow = fast.clone();
                aes.ctr_xor(counter, &mut fast);
                aes.ctr_xor_reference(counter, &mut slow);
                assert_eq!(fast, slow, "key_len {key_len} len {len}");
            }
        }
    }

    #[test]
    fn ctr_counter_wrap_crossing_matches_reference() {
        let aes = Aes::new(&[7u8; 16]).unwrap();
        // Start 3 increments below the 32-bit wrap so both an interleaved
        // batch and the per-block tail cross the wrap boundary.
        let mut counter = [0x11u8; 16];
        counter[12..16].copy_from_slice(&0xffff_fffd_u32.to_be_bytes());
        let mut fast = vec![0xa5u8; KS_LANES * BLOCK_LEN * 2 + 37];
        let mut slow = fast.clone();
        aes.ctr_xor(counter, &mut fast);
        aes.ctr_xor_reference(counter, &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn sbox_matches_known_entries() {
        let s = sbox();
        assert_eq!(s[0x00], 0x63);
        assert_eq!(s[0x01], 0x7c);
        assert_eq!(s[0x53], 0xed);
        assert_eq!(s[0xff], 0x16);
    }
}
