use std::fmt;

use genio_crypto::CryptoError;

/// Error type for network-security operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetsecError {
    /// The packet (or record sequence) number fell outside the
    /// anti-replay window or repeated.
    ReplayDetected {
        /// Offending packet number.
        pn: u64,
    },
    /// Integrity check failed: frame tampered or wrong key.
    IntegrityFailure,
    /// Packet-number space exhausted; the SAK must be rotated.
    PnExhausted,
    /// Peer authentication failed during the handshake.
    PeerAuthentication(&'static str),
    /// The handshake transcript did not match (Finished verification).
    TranscriptMismatch,
    /// DNS name not found in the zone.
    NameNotFound(String),
    /// DNSSEC validation failed.
    DnssecInvalid(&'static str),
    /// An underlying crypto operation failed.
    Crypto(CryptoError),
}

impl fmt::Display for NetsecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetsecError::ReplayDetected { pn } => write!(f, "replay detected at pn {pn}"),
            NetsecError::IntegrityFailure => write!(f, "integrity check failed"),
            NetsecError::PnExhausted => write!(f, "packet number space exhausted"),
            NetsecError::PeerAuthentication(why) => write!(f, "peer authentication failed: {why}"),
            NetsecError::TranscriptMismatch => write!(f, "handshake transcript mismatch"),
            NetsecError::NameNotFound(name) => write!(f, "name not found: {name}"),
            NetsecError::DnssecInvalid(why) => write!(f, "dnssec validation failed: {why}"),
            NetsecError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl std::error::Error for NetsecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetsecError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for NetsecError {
    fn from(e: CryptoError) -> Self {
        NetsecError::Crypto(e)
    }
}

/// The error of a MACsec frame or session record that
/// `genio_crypto::seq::SeqAead::open_many` rejected: a replay, or else an
/// integrity failure.
pub(crate) fn open_error(e: CryptoError) -> NetsecError {
    match e {
        CryptoError::Replayed { seq } => NetsecError::ReplayDetected { pn: seq },
        _ => NetsecError::IntegrityFailure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            NetsecError::ReplayDetected { pn: 9 }.to_string(),
            "replay detected at pn 9"
        );
        assert_eq!(
            NetsecError::IntegrityFailure.to_string(),
            "integrity check failed"
        );
    }

    #[test]
    fn crypto_errors_convert() {
        let e: NetsecError = CryptoError::AuthenticationFailed.into();
        assert!(matches!(e, NetsecError::Crypto(_)));
    }
}
