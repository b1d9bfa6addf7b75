//! Finite-field Diffie–Hellman over the Mersenne prime `p = 2^127 − 1`.
//!
//! **Simulation-grade.** The 127-bit group gives on the order of 2^60 work
//! for discrete log — wholly inadequate for production, but the protocol
//! machinery built on it (TLS-1.3-like handshakes, MACsec key agreement,
//! node onboarding in `genio-netsec`) is identical to what a 3072-bit group
//! or X25519 would drive. The Mersenne modulus keeps the arithmetic exact and
//! fast with `u128` limbs.

use crate::drbg::HmacDrbg;
use crate::CryptoError;

/// The group modulus `2^127 − 1` (a Mersenne prime).
pub const P: u128 = (1u128 << 127) - 1;

/// Fixed generator. Not a verified primitive root; its order divides
/// `p − 1` and is astronomically large, which suffices for the simulation.
pub const G: u128 = 7;

const MASK: u128 = P;

/// Addition mod `p`.
pub fn add(a: u128, b: u128) -> u128 {
    // a, b < 2^127 so the sum fits in u128 without overflow.
    fold(a + b)
}

fn fold(mut x: u128) -> u128 {
    // x mod (2^127 - 1): fold high bits down; converges in two steps for
    // x < 2^128.
    while x > MASK {
        x = (x & MASK) + (x >> 127);
    }
    if x == MASK {
        0
    } else {
        x
    }
}

/// Multiplication mod `p`, via 64-bit limb products and Mersenne folding.
pub fn mul(a: u128, b: u128) -> u128 {
    // Fold inputs below 2^127 so intermediate limb products cannot overflow.
    let a = fold(a);
    let b = fold(b);
    let (a1, a0) = (a >> 64, a & 0xffff_ffff_ffff_ffff);
    let (b1, b0) = (b >> 64, b & 0xffff_ffff_ffff_ffff);
    let ll = a0 * b0;
    let lh = a0 * b1;
    let hl = a1 * b0;
    let hh = a1 * b1;
    // 256-bit product = hh*2^128 + (lh + hl)*2^64 + ll.
    let mid = lh.wrapping_add(hl);
    let mid_carry = (mid < lh) as u128; // carry into the 2^192 position
    let lo = ll.wrapping_add(mid << 64);
    let lo_carry = (lo < ll) as u128;
    let hi = hh + (mid >> 64) + (mid_carry << 64) + lo_carry;
    // Reduce hi*2^128 + lo mod 2^127-1 using 2^127 ≡ 1:
    let c0 = lo & MASK;
    let c1 = ((hi << 1) | (lo >> 127)) & MASK;
    let c2 = hi >> 126;
    fold(c0 + c1 + c2)
}

/// Modular exponentiation `base^exp mod p` by square-and-multiply.
pub fn pow(mut base: u128, mut exp: u128) -> u128 {
    base = fold(base);
    let mut acc = 1u128;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// A Diffie–Hellman key pair.
///
/// # Example
///
/// ```
/// use genio_crypto::dh::KeyPair;
/// use genio_crypto::drbg::HmacDrbg;
///
/// # fn main() -> Result<(), genio_crypto::CryptoError> {
/// let mut rng = HmacDrbg::new(b"example");
/// let alice = KeyPair::generate(&mut rng);
/// let bob = KeyPair::generate(&mut rng);
/// let k1 = alice.shared_secret(bob.public())?;
/// let k2 = bob.shared_secret(alice.public())?;
/// assert_eq!(k1, k2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct KeyPair {
    private: u128,
    public: u128,
}

// The private exponent is the key, so no field is printed.
impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyPair").finish_non_exhaustive()
    }
}

impl KeyPair {
    /// Generates a key pair from the given DRBG.
    pub fn generate(rng: &mut HmacDrbg) -> Self {
        let mut buf = [0u8; 16];
        loop {
            rng.fill(&mut buf);
            let candidate = u128::from_be_bytes(buf) & MASK;
            if candidate > 1 && candidate < P - 1 {
                let public = pow(G, candidate);
                return KeyPair {
                    private: candidate,
                    public,
                };
            }
        }
    }

    /// The public group element `g^x`.
    pub fn public(&self) -> u128 {
        self.public
    }

    /// Computes the shared secret with a peer's public value, returned as the
    /// 16 big-endian bytes of the group element.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPublicValue`] if `peer_public` is 0, 1,
    /// `p − 1` or not a canonical residue — the classic small-subgroup /
    /// degenerate-value checks.
    pub fn shared_secret(&self, peer_public: u128) -> crate::Result<[u8; 16]> {
        validate_public(peer_public)?;
        let s = pow(peer_public, self.private);
        Ok(s.to_be_bytes())
    }
}

/// Validates a received public value.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidPublicValue`] for degenerate values
/// (`0`, `1`, `p − 1`) or non-canonical residues (`>= p`).
pub fn validate_public(value: u128) -> crate::Result<()> {
    if value <= 1 || value >= P - 1 {
        return Err(CryptoError::InvalidPublicValue);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_does_not_depend_on_the_key() {
        let a = KeyPair::generate(&mut HmacDrbg::new(b"seed-a"));
        let b = KeyPair::generate(&mut HmacDrbg::new(b"seed-b"));
        assert_ne!(a.public(), b.public());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{a:?}"), "KeyPair { .. }");
    }

    #[test]
    fn small_multiplications() {
        assert_eq!(mul(3, 4), 12);
        assert_eq!(mul(P - 1, 1), P - 1);
        // (p-1)^2 = p^2 - 2p + 1 ≡ 1 (mod p)
        assert_eq!(mul(P - 1, P - 1), 1);
        assert_eq!(mul(0, 12345), 0);
    }

    #[test]
    fn fold_edge_cases() {
        assert_eq!(fold(P), 0);
        assert_eq!(fold(P + 1), 1);
        assert_eq!(fold(0), 0);
        assert_eq!(add(P - 1, 1), 0);
        assert_eq!(add(P - 1, 2), 1);
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) ≡ 1 (mod p) for a not divisible by p.
        for a in [2u128, 3, 7, 65537, 0xdead_beef] {
            assert_eq!(pow(a, P - 1), 1, "a = {a}");
        }
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(2, 0), 1);
        assert_eq!(pow(2, 10), 1024);
        assert_eq!(pow(2, 127), 1); // 2^127 ≡ 1 mod 2^127 - 1
    }

    #[test]
    fn key_agreement_symmetric() {
        let mut rng = HmacDrbg::new(b"dh-test");
        for _ in 0..10 {
            let a = KeyPair::generate(&mut rng);
            let b = KeyPair::generate(&mut rng);
            assert_eq!(
                a.shared_secret(b.public()).unwrap(),
                b.shared_secret(a.public()).unwrap()
            );
        }
    }

    #[test]
    fn rejects_degenerate_public_values() {
        let mut rng = HmacDrbg::new(b"dh-test");
        let kp = KeyPair::generate(&mut rng);
        for bad in [0u128, 1, P - 1, P, u128::MAX] {
            assert_eq!(kp.shared_secret(bad), Err(CryptoError::InvalidPublicValue));
        }
    }

    #[test]
    fn distinct_keys_distinct_secrets() {
        let mut rng = HmacDrbg::new(b"dh-test-2");
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        let c = KeyPair::generate(&mut rng);
        assert_ne!(
            a.shared_secret(b.public()).unwrap(),
            a.shared_secret(c.public()).unwrap()
        );
    }

    #[test]
    fn mul_commutes_and_associates_on_samples() {
        let mut rng = HmacDrbg::new(b"alg");
        for _ in 0..50 {
            let a = u128::from_be_bytes(rng.bytes(16).try_into().unwrap()) & MASK;
            let b = u128::from_be_bytes(rng.bytes(16).try_into().unwrap()) & MASK;
            let c = u128::from_be_bytes(rng.bytes(16).try_into().unwrap()) & MASK;
            assert_eq!(mul(a, b), mul(b, a));
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            // Distributivity over modular addition.
            assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }
    }
}
