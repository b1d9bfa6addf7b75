//! GHASH universal hashing over GF(2^128) (NIST SP 800-38D §6.4).
//!
//! Two implementations live side by side:
//!
//! * [`gf128_mul`] / [`ghash_reference`] — the schoolbook bitwise multiply
//!   chain. Slow (128 shift/XOR steps per block) but transparently equal to
//!   the specification; it is the oracle every fast path is differentially
//!   tested against.
//! * [`GhashKey`] — 8-bit windowed multiplication tables (16 rows × 256
//!   entries × 16 bytes = 64 KiB), built once per key and amortized across a
//!   session. A block multiply becomes 16 table lookups. One multiply
//!   serves 1 or 4 chains: GCM's burst kernel hashes runs of four frames
//!   with equal AAD and ciphertext block counts in lockstep, row by row,
//!   so the chains' lookups (and cache misses on a table that another key
//!   pushed out) overlap instead of each chain waiting on its own.
//!
//! Building the tables is itself on the session-setup hot path (MACsec SAK
//! installs, TLS-style handshakes, GEM port key establishment all construct
//! an AEAD per key), so construction avoids the naive 128 bitwise multiplies:
//! only row 0 is computed from `H` directly (8 multiplies + a linear
//! combine); every other row is the previous row pushed through a
//! key-independent `SHIFT8` reduction table, because moving a byte one
//! position toward the low end multiplies its field element by x^8.
//!
//! Side-channel note (analyzer rule R11): the table *contents* depend on the
//! key, the table *indices* do not — every multiply is indexed by bytes of
//! its own chain's running GHASH state, i.e. by AAD/ciphertext-derived
//! data, never by key bytes; in lockstep each chain still indexes with its
//! own state only. Key material therefore never flows into an index
//! expression, which is the taint R11 tracks. (Like all table-driven
//! GHASH/AES software, lookups are still observable to a cache-timing
//! adversary co-resident on the core; the simulation accepts that residual
//! channel for throughput.)

use std::sync::OnceLock;

/// Number of GHASH chains the GCM burst kernel runs in lockstep: each
/// table row then serves four independent lookups at once. A constant,
/// not a setting; a frame outside such a group runs one chain.
pub(crate) const LOCKSTEP: usize = 4;

/// GCM's reduction constant: x^128 + x^7 + x^2 + x + 1 in the reflected bit
/// order of SP 800-38D (bit 127 of the `u128` is the x^0 coefficient).
const R: u128 = 0xe1 << 120;

/// Bitwise multiplication in GF(2^128) with the GCM bit ordering.
/// Reference implementation; the hot path uses [`GhashKey`]'s tables.
pub fn gf128_mul(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// Interprets up to 16 bytes as a big-endian block, zero-padded on the right
/// (the GCM padding rule for partial final blocks).
pub(crate) fn block_to_u128(b: &[u8]) -> u128 {
    if let Ok(full) = <[u8; 16]>::try_from(b) {
        return u128::from_be_bytes(full);
    }
    let mut buf = [0u8; 16];
    for (slot, byte) in buf.iter_mut().zip(b.iter()) {
        *slot = *byte;
    }
    u128::from_be_bytes(buf)
}

/// Key-independent mul-by-x^8 table: `SHIFT8[b]` is the field product
/// `b · x^8` for the element whose representation is the bare low byte `b`.
/// Built once per process and shared by every [`GhashKey`] construction.
fn shift8_table() -> &'static [u128; 256] {
    static SHIFT8: OnceLock<[u128; 256]> = OnceLock::new();
    SHIFT8.get_or_init(|| {
        let mut t = [0u128; 256];
        for (b, slot) in t.iter_mut().enumerate() {
            let mut v = b as u128;
            // Eight single-bit shifts with the R reduction = multiply by x^8.
            for _ in 0..8 {
                let lsb = v & 1;
                v >>= 1;
                if lsb == 1 {
                    v ^= R;
                }
            }
            *slot = v;
        }
        t
    })
}

/// Multiplies an arbitrary element by x^8: the high 120 bits shift straight
/// down (no reduction can trigger there) and the low byte's contribution
/// comes from the precomputed [`shift8_table`].
#[inline]
fn mul_x8(z: u128, sh8: &[u128; 256]) -> u128 {
    (z >> 8) ^ sh8[(z & 0xff) as usize]
}

/// Precomputed multiplication tables for a fixed GHASH key `H`.
///
/// `gf128_mul(x, h)` is GF(2)-linear in `x`, so `x·H` decomposes into the
/// XOR of per-byte contributions: one 256-entry table per byte position
/// (64 KiB per key) turns the 128-iteration bitwise multiply into 16 table
/// lookups — the standard software-GHASH optimization.
#[derive(Clone)]
pub struct GhashKey {
    table: Box<[[u128; 256]; 16]>,
}

impl std::fmt::Debug for GhashKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GhashKey").finish_non_exhaustive()
    }
}

impl GhashKey {
    /// Builds the per-key tables from the GHASH key `H = E_K(0^128)`.
    ///
    /// Cost: 8 bitwise multiplies for the row-0 basis, then ~2 word ops per
    /// remaining entry via the shared [`shift8_table`] — cheap enough to sit
    /// on the per-session key-install path (MACsec SAK rotation, handshake
    /// key schedules, GEM port establishment).
    pub fn new(h: u128) -> Self {
        let sh8 = shift8_table();
        let mut table = Box::new([[0u128; 256]; 16]);
        // Row 0 (the most-significant byte of the operand): basis bit 7 is
        // the multiplicative identity (bit 127 in the reflected order), so
        // its product is H itself, and each lower bit is one more factor of
        // x — seven single-bit reduction steps, no bitwise multiplies.
        let mut powers = [0u128; 8];
        let mut p = h;
        for slot in powers.iter_mut().rev() {
            *slot = p;
            let lsb = p & 1;
            p >>= 1;
            if lsb == 1 {
                p ^= R;
            }
        }
        // All 256 byte values by linearity: strip the lowest set bit, which
        // indexes an already-filled smaller value.
        for v in 1usize..256 {
            table[0][v] = table[0][v & (v - 1)] ^ powers[(v.trailing_zeros() & 7) as usize];
        }
        // Rows 1..15: a byte one position lower represents the same element
        // multiplied by x^8, and mul-by-x^8 commutes with mul-by-H, so each
        // row is the previous one pushed through `mul_x8`.
        for pos in 1..16 {
            for v in 1usize..256 {
                let prev = table[pos - 1][v];
                table[pos][v] = mul_x8(prev, sh8);
            }
        }
        GhashKey { table }
    }

    /// Computes `x · H` via 16 table lookups.
    #[inline]
    pub fn mul(&self, x: u128) -> u128 {
        let [z] = self.mul_lanes([x]);
        z
    }

    /// `x[i] · H` for `W` independent chains, row by row: the `W` lookups
    /// of one row do not depend on each other, so they overlap in the
    /// pipeline (and their cache misses overlap) instead of each chain
    /// waiting on its own.
    #[inline]
    fn mul_lanes<const W: usize>(&self, x: [u128; W]) -> [u128; W] {
        let bytes = x.map(u128::to_be_bytes);
        let mut z = [0u128; W];
        for (pos, row) in self.table.iter().enumerate() {
            // 256 entries, so the masked byte below is always in range.
            let row: &[u128; 256] = row;
            for (acc, b) in z.iter_mut().zip(&bytes) {
                let byte = b.get(pos).copied().unwrap_or(0);
                *acc ^= row[usize::from(byte) & 0xff];
            }
        }
        z
    }

    /// GHASH over `aad` then `ct` then the 64-bit bit lengths, per
    /// SP 800-38D §6.4. Table-driven twin of [`ghash_reference`].
    pub fn ghash(&self, aad: &[u8], ct: &[u8]) -> u128 {
        let [y] = self.ghash_lanes([(aad, ct)]);
        y
    }

    /// GHASH of [`LOCKSTEP`] `(aad, ct)` pairs with their chains run in
    /// lockstep, or `None` when the pairs differ in AAD or ciphertext
    /// block count (the chains must take the same number of steps).
    pub(crate) fn ghash_group(
        &self,
        pairs: [(&[u8], &[u8]); LOCKSTEP],
    ) -> Option<[u128; LOCKSTEP]> {
        let shape = |(aad, ct): &(&[u8], &[u8])| (aad.len().div_ceil(16), ct.len().div_ceil(16));
        let first = pairs.first().map(shape);
        if pairs.iter().any(|p| Some(shape(p)) != first) {
            return None;
        }
        Some(self.ghash_lanes(pairs))
    }

    /// GHASH of `W` pairs whose AADs and ciphertexts have equal block
    /// counts; each chain keeps its own bytes and length block.
    fn ghash_lanes<const W: usize>(&self, pairs: [(&[u8], &[u8]); W]) -> [u128; W] {
        let y = self.fold_lanes([0; W], pairs.map(|(aad, _)| aad));
        let mut y = self.fold_lanes(y, pairs.map(|(_, ct)| ct));
        for (yi, (aad, ct)) in y.iter_mut().zip(pairs) {
            *yi ^= ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
        }
        self.mul_lanes(y)
    }

    /// Absorbs each lane's data (zero-padding a final partial block) into
    /// its running GHASH state, one block of every lane per step. The
    /// lanes hold equal block counts, so they run out at the same step.
    fn fold_lanes<const W: usize>(&self, mut y: [u128; W], data: [&[u8]; W]) -> [u128; W] {
        let steps = data.first().map_or(0, |d| d.len().div_ceil(16));
        let mut blocks = data.map(|d| d.chunks(16));
        for _ in 0..steps {
            for (yi, chunks) in y.iter_mut().zip(blocks.iter_mut()) {
                *yi ^= chunks.next().map_or(0, block_to_u128);
            }
            y = self.mul_lanes(y);
        }
        y
    }
}

/// Reference GHASH: the bitwise multiply chain, no tables. This is the
/// differential oracle for [`GhashKey::ghash`] and the GHASH the
/// `_reference` GCM twins run.
pub fn ghash_reference(h: u128, aad: &[u8], ct: &[u8]) -> u128 {
    let mut y = 0u128;
    for chunk in aad.chunks(16) {
        y = gf128_mul(y ^ block_to_u128(chunk), h);
    }
    for chunk in ct.chunks(16) {
        y = gf128_mul(y ^ block_to_u128(chunk), h);
    }
    let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    gf128_mul(y ^ lens, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf128_mul_identity_and_commutativity() {
        // The multiplicative identity in GCM's representation is the block
        // 0x80000...0 (bit 0 set, reflected order).
        let one = 1u128 << 127;
        for x in [0u128, 1, one, 0xdeadbeef_u128 << 64, u128::MAX] {
            assert_eq!(gf128_mul(x, one), x);
            assert_eq!(gf128_mul(one, x), x);
        }
        let a = 0x0123_4567_89ab_cdef_u128;
        let b = 0xfedc_ba98_7654_3210_u128 << 13;
        assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
    }

    #[test]
    fn shift8_is_multiplication_by_x_to_the_8() {
        // x^8 in the reflected representation is bit 127 - 8 = 119.
        let x8 = 1u128 << 119;
        let sh8 = shift8_table();
        let mut z = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        for _ in 0..100 {
            assert_eq!(mul_x8(z, sh8), gf128_mul(z, x8));
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
        }
        assert_eq!(mul_x8(0, sh8), 0);
    }

    #[test]
    fn fast_construction_matches_per_bit_construction() {
        // The original (slow) construction did one bitwise multiply per bit
        // of every byte position. The shift8-based construction must produce
        // the identical 64 KiB of tables.
        let h = 0xb83b_5337_08bf_535d_0aa6_e529_80d5_3b78_u128;
        let key = GhashKey::new(h);
        for pos in 0..16 {
            for v in 0..256usize {
                let mut expected = 0u128;
                for bit in 0..8 {
                    if v & (1 << bit) != 0 {
                        expected ^= gf128_mul((1u128 << bit) << ((15 - pos) * 8), h);
                    }
                }
                assert_eq!(key.table[pos][v], expected, "pos {pos} v {v}");
            }
        }
    }

    #[test]
    fn table_mul_matches_bitwise_mul() {
        let h = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e_u128;
        let key = GhashKey::new(h);
        let mut x = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        for _ in 0..100 {
            assert_eq!(key.mul(x), gf128_mul(x, h));
            // xorshift to wander the space deterministically.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        assert_eq!(key.mul(0), 0);
    }

    #[test]
    fn lockstep_group_needs_equal_block_counts() {
        let key = GhashKey::new(0x0388_dace_60b6_a392_f328_c2b9_71b2_fe78_u128);
        let data: Vec<u8> = (0..64u8).collect();
        // 17 and 32 bytes are both two blocks: one group, each chain with
        // its own bytes and length block.
        let pairs = [
            (&data[..6], &data[..17]),
            (&data[..1], &data[..32]),
            (&data[..16], &data[..20]),
            (&data[..3], &data[..31]),
        ];
        let group = key.ghash_group(pairs).expect("equal shapes group");
        for (s, (aad, ct)) in group.iter().zip(pairs) {
            assert_eq!(*s, key.ghash(aad, ct));
        }
        // One AAD block more, or one ciphertext block more, breaks the group.
        let mut odd = pairs;
        odd[2].0 = &data[..17];
        assert_eq!(key.ghash_group(odd), None);
        odd = pairs;
        odd[3].1 = &data[..33];
        assert_eq!(key.ghash_group(odd), None);
    }

    #[test]
    fn table_ghash_matches_reference_ghash() {
        let h = 0xaae0_6992_acbf_52a3_e8f4_a96e_c920_9be4_u128;
        let key = GhashKey::new(h);
        let data: Vec<u8> = (0..100u8).collect();
        for aad_len in [0usize, 1, 15, 16, 17, 32, 100] {
            for ct_len in [0usize, 1, 15, 16, 17, 33, 100] {
                let aad = &data[..aad_len];
                let ct = &data[..ct_len];
                assert_eq!(
                    key.ghash(aad, ct),
                    ghash_reference(h, aad, ct),
                    "aad {aad_len} ct {ct_len}"
                );
            }
        }
    }
}
