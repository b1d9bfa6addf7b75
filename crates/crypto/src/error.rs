use std::fmt;

/// Error type for all fallible operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A key had a length not supported by the algorithm.
    InvalidKeyLength {
        /// Length that was supplied, in bytes.
        got: usize,
        /// Human-readable description of the accepted lengths.
        expected: &'static str,
    },
    /// Authenticated decryption failed: the tag did not verify.
    ///
    /// The ciphertext or associated data was corrupted or forged.
    AuthenticationFailed,
    /// A ciphertext was shorter than the mandatory tag/header overhead.
    CiphertextTooShort,
    /// A received sequence number repeated one already accepted or fell
    /// below the replay window ([`crate::seq`]).
    Replayed {
        /// The rejected sequence number.
        seq: u64,
    },
    /// Sealing would reach the key's sequence limit ([`crate::seq`]); the
    /// key is spent.
    SequenceExhausted,
    /// A signature did not verify against the given public key.
    BadSignature,
    /// A one-time key was asked to sign more than once, or a Merkle signer
    /// ran out of leaf keys.
    KeyExhausted,
    /// A Merkle key was asked for a tree taller than a signer builds.
    HeightTooLarge {
        /// The height asked for.
        height: u32,
        /// The tallest tree a signer builds.
        max: u32,
    },
    /// Hex input had odd length or non-hex characters.
    InvalidHex,
    /// A certificate failed validation.
    CertificateInvalid(CertError),
    /// A Diffie-Hellman public value was outside the valid range.
    InvalidPublicValue,
    /// An encoded structure could not be parsed.
    Malformed(&'static str),
}

/// Reason a certificate was rejected; carried by
/// [`CryptoError::CertificateInvalid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CertError {
    /// The certificate signature did not verify under the issuer key.
    BadSignature,
    /// The validation time was before `not_before`.
    NotYetValid,
    /// The validation time was after `not_after`.
    Expired,
    /// The certificate serial appears on a revocation list.
    Revoked,
    /// The issuer of a chain element does not match the subject of its parent.
    IssuerMismatch,
    /// No trust anchor matched the root of the chain.
    UntrustedRoot,
    /// The certificate does not carry the key usage required for the
    /// operation (e.g. a leaf certificate used to sign another certificate).
    KeyUsageViolation,
    /// The chain was empty.
    EmptyChain,
    /// The chain exceeded the maximum permitted length.
    ChainTooLong,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidKeyLength { got, expected } => {
                write!(f, "invalid key length {got}, expected {expected}")
            }
            CryptoError::AuthenticationFailed => write!(f, "authentication failed"),
            CryptoError::CiphertextTooShort => write!(f, "ciphertext too short"),
            CryptoError::Replayed { seq } => write!(f, "replayed sequence number {seq}"),
            CryptoError::SequenceExhausted => write!(f, "sequence numbers exhausted"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::KeyExhausted => write!(f, "signing key exhausted"),
            CryptoError::HeightTooLarge { height, max } => {
                write!(f, "merkle tree height {height} above the limit {max}")
            }
            CryptoError::InvalidHex => write!(f, "invalid hex input"),
            CryptoError::CertificateInvalid(e) => write!(f, "certificate invalid: {e}"),
            CryptoError::InvalidPublicValue => write!(f, "invalid public value"),
            CryptoError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CertError::BadSignature => "bad signature",
            CertError::NotYetValid => "not yet valid",
            CertError::Expired => "expired",
            CertError::Revoked => "revoked",
            CertError::IssuerMismatch => "issuer mismatch",
            CertError::UntrustedRoot => "untrusted root",
            CertError::KeyUsageViolation => "key usage violation",
            CertError::EmptyChain => "empty chain",
            CertError::ChainTooLong => "chain too long",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = CryptoError::InvalidKeyLength {
            got: 3,
            expected: "16/24/32",
        };
        assert_eq!(e.to_string(), "invalid key length 3, expected 16/24/32");
        assert_eq!(
            CryptoError::AuthenticationFailed.to_string(),
            "authentication failed"
        );
        assert_eq!(
            CryptoError::CertificateInvalid(CertError::Expired).to_string(),
            "certificate invalid: expired"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
