//! HKDF extract-and-expand key derivation (RFC 5869) over HMAC-SHA256.
//!
//! Used by the TLS-1.3-like handshake in `genio-netsec` to derive traffic
//! keys, and by MACsec key rotation.

use crate::hmac::{HmacSha256, MAC_LEN};

/// Performs the HKDF-Extract step: `PRK = HMAC(salt, ikm)`.
///
/// An empty `salt` is treated as a string of zeros, per the RFC.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; MAC_LEN] {
    let zeros = [0u8; MAC_LEN];
    let salt = if salt.is_empty() { &zeros[..] } else { salt };
    HmacSha256::mac(salt, ikm)
}

/// Performs the HKDF-Expand step, producing `out.len()` bytes of keying
/// material from `prk` and `info`.
///
/// `prk` is keyed once; each 32-byte block then MACs from a clone of that
/// keyed state.
///
/// # Panics
///
/// Panics if `out.len() > 255 * 32` (the RFC 5869 maximum).
pub fn expand(prk: &[u8], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * MAC_LEN, "hkdf expand output too long");
    let keyed = HmacSha256::new(prk);
    let mut t = [0u8; MAC_LEN];
    let mut counter = 1u8;
    for chunk in out.chunks_mut(MAC_LEN) {
        let mut mac = keyed.clone();
        if counter > 1 {
            mac.update(&t);
        }
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize();
        for (dst, src) in chunk.iter_mut().zip(t.iter()) {
            *dst = *src;
        }
        counter = counter.wrapping_add(1);
    }
}

/// One-shot HKDF: extract then expand into a fresh vector of `len` bytes.
///
/// # Example
///
/// ```
/// let okm = genio_crypto::hkdf::derive(b"salt", b"input key material", b"tls13 key", 16);
/// assert_eq!(okm.len(), 16);
/// ```
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = extract(salt, ikm);
    let mut out = vec![0u8; len];
    expand(&prk, info, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 5869 Test Case 1 (SHA-256).
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = hex::decode("000102030405060708090a0b0c").unwrap();
        let info = hex::decode("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex::encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = vec![0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 Test Case 3: zero-length salt and info.
    #[test]
    fn rfc5869_case_3() {
        let ikm = [0x0bu8; 22];
        let okm = derive(b"", &ikm, b"", 42);
        assert_eq!(
            hex::encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_is_prefix_consistent() {
        // Expanding to a longer length must agree on the shared prefix.
        let prk = extract(b"s", b"ikm");
        let mut short = vec![0u8; 17];
        let mut long = vec![0u8; 100];
        expand(&prk, b"info", &mut short);
        expand(&prk, b"info", &mut long);
        assert_eq!(short, long[..17]);
    }

    #[test]
    #[should_panic(expected = "output too long")]
    fn expand_rejects_oversized_output() {
        let prk = [0u8; 32];
        let mut out = vec![0u8; 255 * 32 + 1];
        expand(&prk, b"", &mut out);
    }
}
