//! HMAC-SHA256 keyed message authentication (RFC 2104), validated against the
//! RFC 4231 test vectors.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Output length of HMAC-SHA256 in bytes.
pub const MAC_LEN: usize = DIGEST_LEN;

/// Incremental HMAC-SHA256 computation.
///
/// A context holds the hash states after the key's ipad and opad blocks,
/// so a clone of a freshly keyed context MACs a short message in two
/// compressions instead of four: callers that MAC many messages under one
/// key (HMAC-DRBG, HKDF-Expand) key once and clone per message.
///
/// # Example
///
/// ```
/// use genio_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"shared-secret");
/// mac.update(b"frame payload");
/// let tag = mac.finalize();
/// assert!(HmacSha256::verify(b"shared-secret", b"frame payload", &tag));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

// Both hash states are derived from the key, so none is printed.
impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length; keys longer than
    /// one block are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        let mut outer = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the context and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; MAC_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot HMAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; MAC_LEN] {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` against the HMAC of `data` under `key` in constant
    /// time.
    #[must_use]
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        crate::ct::eq(&Self::mac(key, data), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 4231 test cases for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"k";
        let mut h = HmacSha256::new(key);
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), HmacSha256::mac(key, b"part one part two"));
    }

    #[test]
    fn debug_does_not_depend_on_the_key() {
        let a = format!("{:?}", HmacSha256::new(b"key-a"));
        assert_eq!(a, format!("{:?}", HmacSha256::new(b"key-b")));
        assert_eq!(a, "HmacSha256 { .. }");
    }

    #[test]
    fn verify_rejects_tampering() {
        let tag = HmacSha256::mac(b"key", b"data");
        assert!(HmacSha256::verify(b"key", b"data", &tag));
        assert!(!HmacSha256::verify(b"key", b"datb", &tag));
        assert!(!HmacSha256::verify(b"kez", b"data", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!HmacSha256::verify(b"key", b"data", &bad));
    }
}
