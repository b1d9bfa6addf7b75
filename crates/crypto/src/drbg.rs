//! HMAC-DRBG deterministic random bit generator (NIST SP 800-90A).
//!
//! The simulation needs *reproducible* randomness — key generation, nonces
//! and workload sampling must be replayable for the benchmark harness — so
//! every component derives its randomness from a seeded HMAC-DRBG instead of
//! the OS entropy pool.

use crate::hmac::HmacSha256;

/// An HMAC-SHA256 deterministic random bit generator.
///
/// The key `K` is held as a keyed [`HmacSha256`], so each of the three
/// MACs a key serves (the `V` update that follows the key change, the
/// next output block, and the next key) costs two SHA-256 compressions
/// instead of four. A 32-byte draw — one output block plus the
/// post-generate update — therefore costs 8 compressions: 3 MACs and one
/// re-keying. Larger draws add 2 compressions per further 32 bytes.
///
/// # Example
///
/// ```
/// use genio_crypto::drbg::HmacDrbg;
///
/// let mut a = HmacDrbg::new(b"seed");
/// let mut b = HmacDrbg::new(b"seed");
/// assert_eq!(a.bytes(8), b.bytes(8)); // deterministic
/// ```
#[derive(Clone)]
pub struct HmacDrbg {
    k: HmacSha256,
    v: [u8; 32],
}

// K and V are the whole generator state, so neither is printed.
impl std::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacDrbg").finish_non_exhaustive()
    }
}

impl HmacDrbg {
    /// Instantiates the generator from seed material (entropy + optional
    /// personalization, concatenated by the caller).
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            k: HmacSha256::new(&[0u8; 32]),
            v: [1u8; 32],
        };
        drbg.update(Some(seed));
        drbg
    }

    /// Mixes additional input into the state (SP 800-90A "reseed").
    pub fn reseed(&mut self, data: &[u8]) {
        self.update(Some(data));
    }

    /// `V = HMAC(K, V)`.
    fn step_v(&mut self) {
        let mut mac = self.k.clone();
        mac.update(&self.v);
        self.v = mac.finalize();
    }

    /// `K = HMAC(K, V || sep || data)`, then `V = HMAC(K, V)`.
    fn rekey(&mut self, sep: u8, data: &[u8]) {
        let mut mac = self.k.clone();
        mac.update(&self.v);
        mac.update(&[sep]);
        mac.update(data);
        self.k = HmacSha256::new(&mac.finalize());
        self.step_v();
    }

    fn update(&mut self, data: Option<&[u8]>) {
        self.rekey(0x00, data.unwrap_or_default());
        if let Some(d) = data {
            self.rekey(0x01, d);
        }
    }

    /// Fills `out` with generated bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(32) {
            self.step_v();
            for (dst, src) in chunk.iter_mut().zip(self.v.iter()) {
                *dst = *src;
            }
        }
        self.update(None);
    }

    /// Returns `n` generated bytes as a vector.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill(&mut out);
        out
    }

    /// Returns a 32-byte array of generated bytes.
    pub fn array32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill(&mut out);
        out
    }

    /// Returns a uniformly distributed `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    /// Returns a uniformly distributed value in `[0, bound)` using rejection
    /// sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HmacDrbg::new(b"genio");
        let mut b = HmacDrbg::new(b"genio");
        assert_eq!(a.bytes(100), b.bytes(100));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"genio-1");
        let mut b = HmacDrbg::new(b"genio-2");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"seed");
        let mut b = HmacDrbg::new(b"seed");
        b.reseed(b"extra entropy");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn successive_outputs_differ() {
        let mut d = HmacDrbg::new(b"seed");
        let x = d.bytes(32);
        let y = d.bytes(32);
        assert_ne!(x, y);
    }

    #[test]
    fn bounded_respects_bound() {
        let mut d = HmacDrbg::new(b"seed");
        for _ in 0..1000 {
            assert!(d.next_bounded(7) < 7);
        }
    }

    #[test]
    fn bounded_covers_range() {
        let mut d = HmacDrbg::new(b"coverage");
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[d.next_bounded(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn debug_does_not_depend_on_the_seed() {
        let a = format!("{:?}", HmacDrbg::new(b"seed-a"));
        assert_eq!(a, format!("{:?}", HmacDrbg::new(b"seed-b")));
        assert_eq!(a, "HmacDrbg { .. }");
    }

    #[test]
    fn chance_extremes() {
        let mut d = HmacDrbg::new(b"seed");
        assert!(!d.chance(0.0));
        assert!(d.chance(1.0));
    }
}
