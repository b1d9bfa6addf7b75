//! SHA-256 message digest (FIPS 180-4).
//!
//! This is the workhorse hash of the whole workspace: file-integrity
//! baselines ([`genio-fim`]), measured-boot PCR extension
//! ([`genio-secureboot`]), package digests ([`genio-supplychain`]) and the
//! hash-based signatures in [`crate::sig`] all build on it.
//!
//! [`genio-fim`]: https://example.invalid/genio
//! [`genio-secureboot`]: https://example.invalid/genio
//! [`genio-supplychain`]: https://example.invalid/genio

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of the internal compression block in bytes.
pub const BLOCK_LEN: usize = 64;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Feed data with [`Sha256::update`], produce the digest with
/// [`Sha256::finalize`]. For one-shot hashing use [`sha256`].
///
/// # Example
///
/// ```
/// use genio_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"OLT-");
/// h.update(b"0042");
/// let digest = h.finalize();
/// assert_eq!(digest, genio_crypto::sha256::sha256(b"OLT-0042"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Full blocks are compressed straight from `data`; only a partial
    /// block is copied into the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            let (head, tail) = rest.split_at(take);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(head);
            self.buf_len += take;
            rest = tail;
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<BLOCK_LEN>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding, absorbed in one call: 0x80, then the zeros that bring
        // the buffer to 56 bytes (mod 64), then the 64-bit big-endian bit
        // length captured above.
        let end = 1 + (BLOCK_LEN + 55 - self.buf_len) % BLOCK_LEN + 8;
        let mut pad = [0u8; BLOCK_LEN + 8];
        pad[0] = 0x80;
        pad[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..end]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One SHA-256 round. Each invocation names the working variables in
/// rotated order, so a round writes two of them instead of shifting all
/// eight. `Ch` and `Maj` use their shorter equivalent forms, and
/// `K[t] + W[t]` is added first, off the dependency chain through `e`.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($kw)
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25));
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// `W[t]` for `t < 16`: word `$i` of the block.
macro_rules! block_word {
    ($w:ident, $i:literal) => {
        $w[$i]
    };
}

/// `W[t]` for `t >= 16`, computed in the round that uses it so the
/// schedule overlaps the round arithmetic. Slot `$i` of the rolling
/// schedule holds `W[t - 16]` and is overwritten with `W[t]`; by then the
/// slots read below hold `W[t - 15]`, `W[t - 7]` and `W[t - 2]`.
macro_rules! next_word {
    ($w:ident, $i:literal) => {{
        let w15 = $w[($i + 1) % 16];
        let w2 = $w[($i + 14) % 16];
        $w[$i] = $w[$i]
            .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
            .wrapping_add($w[($i + 9) % 16])
            .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
        $w[$i]
    }};
}

/// Rounds `16 * $j` to `16 * $j + 15`, taking each round's message word
/// from `$word`; the eight-round rotation of names runs twice.
#[rustfmt::skip]
macro_rules! sixteen_rounds {
    ($j:literal, $word:ident, $w:ident,
     $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident) => {
        round!($a, $b, $c, $d, $e, $f, $g, $h, K[$j * 16].wrapping_add($word!($w, 0)));
        round!($h, $a, $b, $c, $d, $e, $f, $g, K[$j * 16 + 1].wrapping_add($word!($w, 1)));
        round!($g, $h, $a, $b, $c, $d, $e, $f, K[$j * 16 + 2].wrapping_add($word!($w, 2)));
        round!($f, $g, $h, $a, $b, $c, $d, $e, K[$j * 16 + 3].wrapping_add($word!($w, 3)));
        round!($e, $f, $g, $h, $a, $b, $c, $d, K[$j * 16 + 4].wrapping_add($word!($w, 4)));
        round!($d, $e, $f, $g, $h, $a, $b, $c, K[$j * 16 + 5].wrapping_add($word!($w, 5)));
        round!($c, $d, $e, $f, $g, $h, $a, $b, K[$j * 16 + 6].wrapping_add($word!($w, 6)));
        round!($b, $c, $d, $e, $f, $g, $h, $a, K[$j * 16 + 7].wrapping_add($word!($w, 7)));
        round!($a, $b, $c, $d, $e, $f, $g, $h, K[$j * 16 + 8].wrapping_add($word!($w, 8)));
        round!($h, $a, $b, $c, $d, $e, $f, $g, K[$j * 16 + 9].wrapping_add($word!($w, 9)));
        round!($g, $h, $a, $b, $c, $d, $e, $f, K[$j * 16 + 10].wrapping_add($word!($w, 10)));
        round!($f, $g, $h, $a, $b, $c, $d, $e, K[$j * 16 + 11].wrapping_add($word!($w, 11)));
        round!($e, $f, $g, $h, $a, $b, $c, $d, K[$j * 16 + 12].wrapping_add($word!($w, 12)));
        round!($d, $e, $f, $g, $h, $a, $b, $c, K[$j * 16 + 13].wrapping_add($word!($w, 13)));
        round!($c, $d, $e, $f, $g, $h, $a, $b, K[$j * 16 + 14].wrapping_add($word!($w, 14)));
        round!($b, $c, $d, $e, $f, $g, $h, $a, K[$j * 16 + 15].wrapping_add($word!($w, 15)));
    };
}

/// The SHA-256 compression function: folds one 64-byte block into
/// `state`. The 64 rounds are unrolled over a 16-word rolling message
/// schedule instead of a 64-word array built up front.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    sixteen_rounds!(0, block_word, w, a, b, c, d, e, f, g, h);
    sixteen_rounds!(1, next_word, w, a, b, c, d, e, f, g, h);
    sixteen_rounds!(2, next_word, w, a, b, c, d, e, f, g, h);
    sixteen_rounds!(3, next_word, w, a, b, c, d, e, f, g, h);
    for (acc, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *acc = acc.wrapping_add(v);
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Example
///
/// ```
/// let d = genio_crypto::sha256::sha256(b"abc");
/// assert_eq!(genio_crypto::hex::encode(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes SHA-256 over the concatenation of two byte strings without
/// allocating, a pattern used pervasively by Merkle trees and PCR extension.
pub fn sha256_pair(a: &[u8], b: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hex_digest(data: &[u8]) -> String {
        hex::encode(&sha256(data))
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn pair_equals_concat() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"));
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Exercise padding edge cases: 55, 56, 57, 63, 64, 65 bytes.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xa5u8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
