use std::fmt;

/// Error type for PON simulation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PonError {
    /// The PON tree is at its configured split ratio; no more ONUs fit.
    SplitRatioExceeded {
        /// Configured maximum number of ONUs.
        capacity: usize,
    },
    /// Referenced an ONU id that does not exist on this tree.
    UnknownOnu(u32),
    /// An ONU with the same serial number is already attached.
    DuplicateSerial(String),
    /// The fiber span exceeds the maximum reach of the PON standard.
    FiberTooLong {
        /// Requested span in meters.
        meters: u32,
        /// Maximum supported reach in meters.
        max: u32,
    },
    /// An activation message arrived in a state that cannot accept it.
    InvalidActivationState {
        /// State the ONU was in.
        state: &'static str,
        /// Message kind that arrived.
        message: &'static str,
    },
    /// The OLT rejected the ONU's identity during activation.
    AdmissionDenied(String),
    /// Payload decryption failed (wrong key, tampering, or replay).
    DecryptFailed,
    /// No encryption key has been established for the GEM port.
    NoKey {
        /// The GEM port in question.
        port: u16,
    },
    /// The GEM port's frame counter is spent; the key must be
    /// re-established before the port sends again.
    CounterExhausted {
        /// The GEM port in question.
        port: u16,
    },
    /// An upstream burst arrived outside the granted window.
    OutsideGrant {
        /// The ONU that transmitted.
        onu: u32,
    },
    /// A frame counter repeated: replay detected.
    Replay,
}

impl fmt::Display for PonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PonError::SplitRatioExceeded { capacity } => {
                write!(f, "split ratio exceeded: tree supports {capacity} onus")
            }
            PonError::UnknownOnu(id) => write!(f, "unknown onu id {id}"),
            PonError::DuplicateSerial(s) => write!(f, "duplicate onu serial {s}"),
            PonError::FiberTooLong { meters, max } => {
                write!(f, "fiber span {meters} m exceeds maximum reach {max} m")
            }
            PonError::InvalidActivationState { state, message } => {
                write!(f, "activation message {message} not valid in state {state}")
            }
            PonError::AdmissionDenied(why) => write!(f, "admission denied: {why}"),
            PonError::DecryptFailed => write!(f, "payload decryption failed"),
            PonError::NoKey { port } => write!(f, "no key established for gem port {port}"),
            PonError::CounterExhausted { port } => {
                write!(f, "frame counter exhausted on gem port {port}")
            }
            PonError::OutsideGrant { onu } => {
                write!(f, "onu {onu} transmitted outside its granted window")
            }
            PonError::Replay => write!(f, "replayed frame counter"),
        }
    }
}

impl std::error::Error for PonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            PonError::SplitRatioExceeded { capacity: 32 }.to_string(),
            "split ratio exceeded: tree supports 32 onus"
        );
        assert_eq!(PonError::UnknownOnu(9).to_string(), "unknown onu id 9");
    }
}
