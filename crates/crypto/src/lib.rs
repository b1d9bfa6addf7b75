//! # genio-crypto
//!
//! From-scratch cryptographic primitives used by every security mitigation in
//! the GENIO telco-edge platform reproduction.
//!
//! The paper's mitigations lean on OpenSSL, kernel crypto, GPG and TPM
//! firmware. This crate substitutes those with self-contained, dependency-free
//! implementations so the whole platform can be simulated and benchmarked as a
//! pure-Rust workspace:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), validated against the official
//!   short-message test vectors.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against RFC 4231.
//! * [`hkdf`] — HKDF extract-and-expand (RFC 5869), validated against the RFC
//!   test vectors.
//! * [`aes`] — AES-128/192/256 block cipher (FIPS 197), validated against the
//!   FIPS 197 appendix vectors.
//! * [`gcm`] — AES-GCM authenticated encryption (NIST SP 800-38D), validated
//!   against the McGrew–Viega test cases and a committed NIST/RFC vector
//!   corpus. Table-driven fast path with batched `seal_many`/`open_many`
//!   over one slice of per-frame inputs, plus `_reference` oracle twins
//!   that tests call directly.
//! * [`seq`] — the sequenced AEAD under GEM ports, MACsec associations
//!   and session records: one `salt || seq` nonce layout, one sealing
//!   limit, one replay window and one run walk over the batched GCM.
//! * [`ghash`] — GHASH over GF(2^128): bitwise reference multiply and the
//!   per-key 8-bit windowed tables the fast path uses.
//! * [`dh`] — Diffie–Hellman over the Mersenne prime 2^127 − 1.
//!   **Simulation-grade**: the group is far too small for real-world use
//!   (~2^60 security) but exercises the exact same protocol logic (TLS-like
//!   handshakes, MACsec key agreement) as a production group would.
//! * [`sig`] — hash-based signatures: Lamport one-time signatures composed
//!   into a Merkle many-time scheme, as the stand-in for the X.509/GPG RSA and
//!   ECDSA signatures used by Secure Boot, APT, and ONIE in the paper.
//! * [`pki`] — certificates, chains, and revocation built on [`sig`].
//! * [`drbg`] — HMAC-DRBG (NIST SP 800-90A) deterministic random bit
//!   generator, used wherever the simulation needs reproducible randomness.
//! * [`ct`] — constant-time comparison helpers.
//! * [`hex`] — hex encoding/decoding used by fingerprints and test vectors.
//!
//! # Example
//!
//! ```
//! use genio_crypto::gcm::AesGcm;
//!
//! # fn main() -> Result<(), genio_crypto::CryptoError> {
//! let key = [0x42u8; 16];
//! let gcm = AesGcm::new(&key)?;
//! let nonce = [7u8; 12];
//! let ct = gcm.seal(&nonce, b"OLT telemetry frame", b"header");
//! let pt = gcm.open(&nonce, &ct, b"header")?;
//! assert_eq!(pt, b"OLT telemetry frame");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ct;
pub mod dh;
pub mod drbg;
pub mod gcm;
pub mod ghash;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod pki;
pub mod seq;
pub mod sha256;
pub mod sig;

mod error;

pub use error::{CertError, CryptoError};

/// Convenience alias for fallible crypto operations.
pub type Result<T> = std::result::Result<T, CryptoError>;
