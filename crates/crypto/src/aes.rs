//! AES block cipher (FIPS 197) supporting 128-, 192- and 256-bit keys.
//!
//! The S-boxes are derived at first use from the GF(2^8) multiplicative
//! inverse and the FIPS affine transform rather than embedded as opaque
//! tables, and the implementation is validated against the FIPS 197 appendix
//! vectors. CTR and GCM modes are layered on top in [`crate::gcm`].

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

fn inv_sbox() -> &'static [u8; 256] {
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let s = sbox();
        let mut inv = [0u8; 256];
        for (i, &v) in s.iter().enumerate() {
            inv[v as usize] = i as u8;
        }
        inv
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

/// An AES key schedule ready for block encryption and decryption.
///
/// # Example
///
/// ```
/// use genio_crypto::aes::Aes;
///
/// # fn main() -> Result<(), genio_crypto::CryptoError> {
/// let aes = Aes::new(&[0u8; 16])?;
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
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

    /// Encrypts one 16-byte block through the fused T-table rounds.
    ///
    /// Side-channel note (analyzer rule R11): the table indices are bytes
    /// of the evolving cipher state — key material only enters through the
    /// XORed round keys, never as an index — so the secret-index taint R11
    /// tracks does not arise; see `ghash.rs` for the full argument and the
    /// residual cache-timing caveat.
    pub fn encrypt_block(&self, block: Block) -> Block {
        let te = te_tables();
        let s = sbox();
        let nr = self.size.rounds();
        let rk = &self.enc_round_keys;
        let mut cols = [0u32; 4];
        for c in 0..4 {
            cols[c] = u32::from_be_bytes([
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ]) ^ rk[0][c];
        }
        #[allow(clippy::needless_range_loop)]
        for rkr in rk.iter().take(nr).skip(1) {
            let mut next = [0u32; 4];
            for c in 0..4 {
                next[c] = te[0][((cols[c] >> 24) & 0xff) as usize]
                    ^ te[1][((cols[(c + 1) & 3] >> 16) & 0xff) as usize]
                    ^ te[2][((cols[(c + 2) & 3] >> 8) & 0xff) as usize]
                    ^ te[3][(cols[(c + 3) & 3] & 0xff) as usize]
                    ^ rkr[c];
            }
            cols = next;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns),
        // unrolled so every index is a literal or a masked byte.
        let rkl = rk[nr];
        let words = final_round_words(&cols, s, &rkl);
        let mut out = [0u8; BLOCK_LEN];
        for (word, chunk) in words.iter().zip(out.chunks_exact_mut(4)) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
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

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, mut block: Block) -> Block {
        let inv = inv_sbox();
        let nr = self.size.rounds();
        xor_block(&mut block, &self.round_keys[nr]);
        for round in (1..nr).rev() {
            inv_shift_rows(&mut block);
            sub_bytes(&mut block, inv);
            xor_block(&mut block, &self.round_keys[round]);
            inv_mix_columns(&mut block);
        }
        inv_shift_rows(&mut block);
        sub_bytes(&mut block, inv);
        xor_block(&mut block, &self.round_keys[0]);
        block
    }

    /// Generates the keystream for [`KS_LANES`] consecutive counter blocks
    /// in one interleaved pass: all lanes advance round by round together,
    /// so the eight independent dependency chains fill the pipeline instead
    /// of serializing block by block. The counter blocks share bytes 0..12
    /// (`prefix`) and differ only in the trailing 32-bit big-endian counter,
    /// exactly as GCM's CTR mode increments them.
    fn keystream8(&self, prefix: [u32; 3], ctr: u32, out: &mut [u8; KS_LANES * BLOCK_LEN]) {
        let te = te_tables();
        let s = sbox();
        let nr = self.size.rounds();
        let rk = &self.enc_round_keys;
        let rk0 = rk[0];
        let mut lanes = [[0u32; 4]; KS_LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            lane[0] = prefix[0] ^ rk0[0];
            lane[1] = prefix[1] ^ rk0[1];
            lane[2] = prefix[2] ^ rk0[2];
            lane[3] = ctr.wrapping_add(i as u32) ^ rk0[3];
        }
        for rkr in rk.iter().take(nr).skip(1) {
            for lane in lanes.iter_mut() {
                let c = *lane;
                lane[0] = te[0][(c[0] >> 24) as usize]
                    ^ te[1][((c[1] >> 16) & 0xff) as usize]
                    ^ te[2][((c[2] >> 8) & 0xff) as usize]
                    ^ te[3][(c[3] & 0xff) as usize]
                    ^ rkr[0];
                lane[1] = te[0][(c[1] >> 24) as usize]
                    ^ te[1][((c[2] >> 16) & 0xff) as usize]
                    ^ te[2][((c[3] >> 8) & 0xff) as usize]
                    ^ te[3][(c[0] & 0xff) as usize]
                    ^ rkr[1];
                lane[2] = te[0][(c[2] >> 24) as usize]
                    ^ te[1][((c[3] >> 16) & 0xff) as usize]
                    ^ te[2][((c[0] >> 8) & 0xff) as usize]
                    ^ te[3][(c[1] & 0xff) as usize]
                    ^ rkr[2];
                lane[3] = te[0][(c[3] >> 24) as usize]
                    ^ te[1][((c[0] >> 16) & 0xff) as usize]
                    ^ te[2][((c[1] >> 8) & 0xff) as usize]
                    ^ te[3][(c[2] & 0xff) as usize]
                    ^ rkr[3];
            }
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        let rkl = rk[nr];
        for (lane, block_out) in lanes.iter().zip(out.chunks_exact_mut(BLOCK_LEN)) {
            let words = final_round_words(lane, s, &rkl);
            for (word, word_out) in words.iter().zip(block_out.chunks_exact_mut(4)) {
                word_out.copy_from_slice(&word.to_be_bytes());
            }
        }
    }

    /// Encrypts `data` in CTR mode with the given 16-byte initial counter
    /// block, XORing the keystream in place.
    ///
    /// CTR encryption and decryption are the same operation. The keystream
    /// is generated in interleaved batches of [`KS_LANES`] blocks (see
    /// [`Aes::keystream8`]); [`Aes::ctr_xor_reference`] is the one-block-
    /// at-a-time oracle twin.
    pub fn ctr_xor(&self, initial_counter: Block, data: &mut [u8]) {
        let ic = initial_counter;
        let prefix = [
            u32::from_be_bytes([ic[0], ic[1], ic[2], ic[3]]),
            u32::from_be_bytes([ic[4], ic[5], ic[6], ic[7]]),
            u32::from_be_bytes([ic[8], ic[9], ic[10], ic[11]]),
        ];
        // The counter arithmetic stays in u32 so wrap-around matches
        // `increment_counter`'s 32-bit big-endian semantics exactly.
        let mut ctr = u32::from_be_bytes([ic[12], ic[13], ic[14], ic[15]]);
        let mut ks = [0u8; KS_LANES * BLOCK_LEN];
        let mut batches = data.chunks_exact_mut(KS_LANES * BLOCK_LEN);
        for chunk in &mut batches {
            self.keystream8(prefix, ctr, &mut ks);
            ctr = ctr.wrapping_add(KS_LANES as u32);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        let rest = batches.into_remainder();
        if rest.is_empty() {
            return;
        }
        let mut counter = ic;
        counter[12..16].copy_from_slice(&ctr.to_be_bytes());
        for chunk in rest.chunks_mut(BLOCK_LEN) {
            let keystream = self.encrypt_block(counter);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
            increment_counter(&mut counter);
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

/// Number of CTR blocks generated per interleaved keystream batch.
const KS_LANES: usize = 8;

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

fn inv_shift_rows(block: &mut Block) {
    for r in 1..4 {
        let mut row = [block[r], block[r + 4], block[r + 8], block[r + 12]];
        row.rotate_right(r);
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

fn inv_mix_columns(block: &mut Block) {
    for c in 0..4 {
        let col = [
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ];
        block[4 * c] =
            gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
        block[4 * c + 1] =
            gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
        block[4 * c + 2] =
            gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
        block[4 * c + 3] =
            gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
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
        assert_eq!(aes.decrypt_block(ct), pt);
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
        let inv = inv_sbox();
        for i in 0..256 {
            assert_eq!(inv[s[i] as usize] as usize, i);
        }
    }
}
