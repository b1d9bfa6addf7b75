//! Sequenced AEAD: the record discipline every AES-GCM traffic layer
//! shares.
//!
//! GEM ports (`genio_pon::security`), MACsec associations
//! (`genio_netsec::macsec`) and the directions of a TLS-1.3-shaped
//! session (`genio_netsec::handshake`) protect a stream of frames the
//! same way, and [`SeqAead`] is that way, written once. One `SeqAead` is
//! one key used in one direction: the sender seals with it and the
//! receiver opens with its twin.
//!
//! * **Nonce layout.** The frame with sequence number `seq` is sealed
//!   under the 96-bit nonce `salt || seq_be64`: a 4-byte salt fixed per
//!   key, then the sequence number big-endian (the fixed-field plus
//!   counter layout of RFC 5116 §3.2). Distinct sequence numbers give
//!   distinct nonces, so a key repeats no nonce as long as its sender
//!   repeats no sequence number.
//! * **Sealing limit.** A sender seals the sequence numbers
//!   `first..limit` in order, and the counter never wraps.
//!   [`SeqAead::seal_many`] is all-or-nothing: a burst that would reach
//!   `limit` seals nothing, leaves the next sequence number where it was
//!   and returns [`CryptoError::SequenceExhausted`]. The key is then
//!   spent.
//! * **Replay window.** A receiver accepts a sequence number above the
//!   highest it has accepted, or one fewer than `min(window, 127)` below
//!   that highest which it has not accepted yet; anything else is
//!   [`CryptoError::Replayed`]. Window 0 (or 1) demands strictly
//!   increasing sequence numbers. Only frames that verify move the
//!   window, so a forged frame cannot push it.
//! * **Run walk.** [`SeqAead::open_many`] opens a run of frames received
//!   under the key. A sequence number the run's starting window rejects
//!   stays rejected after anything the run accepts (the window only
//!   rises and only gains marks), so only the other frames reach
//!   [`AesGcm::open_many`], in one burst: a replay costs no AEAD open.
//!   The walk then takes the frames in arrival order against the live
//!   window and marks each one that verifies, so every result equals
//!   opening the frames one at a time, including which of two in-run
//!   duplicates is rejected. A window rejection is reported before an
//!   integrity failure.
//!
//! Each layer picks the salt, the sequence range and the window:
//!
//! | layer | salt | first | limit | window |
//! |---|---|---|---|---|
//! | GEM port | port (big-endian) `‖ 0x0000` | 0 | `u64::MAX` | 0 |
//! | MACsec association | low 32 bits of the SCI | 1 | `pn_limit` | `replay_window` |
//! | session record direction | `0x00000000` | 0 | `u64::MAX` | 0 |
//!
//! # Example
//!
//! ```
//! use genio_crypto::gcm::AesGcm;
//! use genio_crypto::seq::{Received, SeqAead};
//! use genio_crypto::CryptoError;
//!
//! # fn main() -> Result<(), CryptoError> {
//! let key = [7u8; 16];
//! let mut tx = SeqAead::new(AesGcm::new(&key)?, [0; 4], 0..u64::MAX, 0);
//! let mut rx = SeqAead::new(AesGcm::new(&key)?, [0; 4], 0..u64::MAX, 0);
//! let sealed: Vec<(u64, Vec<u8>)> = tx.seal_many(&[b"one", b"two"], |_| *b"hdr")?.collect();
//! let frames: Vec<Received> = sealed
//!     .iter()
//!     .map(|(seq, text)| Received { seq: *seq, aad: b"hdr", text })
//!     .collect();
//! assert_eq!(rx.open_many(&frames), vec![Ok(b"one".to_vec()), Ok(b"two".to_vec())]);
//! assert_eq!(rx.open_many(&frames[..1]), vec![Err(CryptoError::Replayed { seq: 0 })]);
//! # Ok(())
//! # }
//! ```

use std::ops::Range;

use genio_telemetry::Telemetry;

use crate::gcm::{AesGcm, Input, NONCE_LEN};
use crate::CryptoError;

/// The widest replay window a receiver keeps: marks for the highest
/// accepted sequence number and the 127 below it fill one `u128`.
const MAX_WINDOW: u64 = 127;

/// One received frame for [`SeqAead::open_many`].
#[derive(Debug, Clone, Copy)]
pub struct Received<'a> {
    /// The sequence number the frame carries: its nonce basis and its
    /// replay handle.
    pub seq: u64,
    /// Associated data the tag binds to the frame.
    pub aad: &'a [u8],
    /// `ciphertext || tag` as received.
    pub text: &'a [u8],
}

/// One AES-GCM key with its sequence discipline (module docs): the next
/// sequence number and the sealing limit for the sender, the replay
/// window for the receiver.
#[derive(Debug, Clone)]
pub struct SeqAead {
    aead: AesGcm,
    salt: [u8; 4],
    next: u64,
    limit: u64,
    replay: ReplayWindow,
}

impl SeqAead {
    /// Wraps `aead`: the sender seals the sequence numbers in `seqs`, in
    /// order, under nonces that start with `salt`, and the receiver keeps
    /// a replay window of `window` sequence numbers (at most 127).
    pub fn new(aead: AesGcm, salt: [u8; 4], seqs: Range<u64>, window: u64) -> Self {
        SeqAead {
            aead,
            salt,
            next: seqs.start,
            limit: seqs.end,
            replay: ReplayWindow {
                width: window.min(MAX_WINDOW),
                high: None,
                marks: 0,
            },
        }
    }

    /// Attaches telemetry to the AEAD ([`AesGcm::instrument`]).
    pub fn instrument(mut self, telemetry: &Telemetry) -> Self {
        self.aead = self.aead.instrument(telemetry);
        self
    }

    /// The nonce `salt || seq_be64`.
    fn nonce(&self, seq: u64) -> [u8; NONCE_LEN] {
        let [s0, s1, s2, s3] = self.salt;
        let [q0, q1, q2, q3, q4, q5, q6, q7] = seq.to_be_bytes();
        [s0, s1, s2, s3, q0, q1, q2, q3, q4, q5, q6, q7]
    }

    /// Seals `texts` under consecutive sequence numbers with one batched
    /// AEAD call, binding frame `seq` to the associated data
    /// `aad_of_seq(seq)`. Yields each frame's sequence number and
    /// `ciphertext || tag`, in order.
    ///
    /// # Errors
    ///
    /// [`CryptoError::SequenceExhausted`] if any frame of the burst would
    /// reach the limit; nothing is sealed and the next sequence number
    /// does not move.
    pub fn seal_many<A: AsRef<[u8]>>(
        &mut self,
        texts: &[&[u8]],
        aad_of_seq: impl Fn(u64) -> A,
    ) -> crate::Result<impl Iterator<Item = (u64, Vec<u8>)>> {
        let first = self.next;
        let end = first
            .checked_add(texts.len() as u64)
            .filter(|&end| texts.is_empty() || end <= self.limit)
            .ok_or(CryptoError::SequenceExhausted)?;
        self.next = end;
        let aads: Vec<A> = (first..end).map(aad_of_seq).collect();
        let inputs: Vec<Input> = texts
            .iter()
            .zip(&aads)
            .zip(first..)
            .map(|((&text, aad), seq)| Input {
                nonce: self.nonce(seq),
                aad: aad.as_ref(),
                text,
            })
            .collect();
        Ok((first..).zip(self.aead.seal_many(&inputs)))
    }

    /// Opens a run of frames received under this key, one result per
    /// frame in order: the run walk of the module docs.
    ///
    /// # Errors
    ///
    /// Per frame: [`CryptoError::Replayed`] if the window rejects its
    /// sequence number, else the error [`AesGcm::open`] gives for it.
    pub fn open_many(&mut self, frames: &[Received<'_>]) -> Vec<crate::Result<Vec<u8>>> {
        let start = self.replay;
        let fresh = |f: &Received<'_>| start.accepts(f.seq);
        let inputs: Vec<Input> = frames
            .iter()
            .filter(|f| fresh(f))
            .map(|f| Input {
                nonce: self.nonce(f.seq),
                aad: f.aad,
                text: f.text,
            })
            .collect();
        let mut opened = self.aead.open_many(&inputs).into_iter();
        frames
            .iter()
            .map(|f| {
                let result = if fresh(f) { opened.next() } else { None };
                if !self.replay.accepts(f.seq) {
                    return Err(CryptoError::Replayed { seq: f.seq });
                }
                // The live window accepted the frame, so the starting
                // window did too and the frame was opened.
                let plaintext = result.unwrap_or(Err(CryptoError::AuthenticationFailed))?;
                self.replay.mark(f.seq);
                Ok(plaintext)
            })
            .collect()
    }
}

/// A receiver's replay state. `Copy`, so a run keeps the state it
/// started from while the walk marks.
#[derive(Debug, Clone, Copy)]
struct ReplayWindow {
    /// Ages below this are open: `min(window, MAX_WINDOW)`.
    width: u64,
    /// The highest sequence number accepted so far.
    high: Option<u64>,
    /// Bit `age` is set once `high - age` has been accepted.
    marks: u128,
}

impl ReplayWindow {
    fn accepts(&self, seq: u64) -> bool {
        let Some(high) = self.high else { return true };
        match high.checked_sub(seq) {
            None => true,
            Some(age) => age < self.width && self.marks & bit(age) == 0,
        }
    }

    fn mark(&mut self, seq: u64) {
        match self.high {
            Some(high) if seq <= high => self.marks |= bit(high - seq),
            high => {
                let rise = high.map_or(u64::MAX, |high| seq - high);
                self.marks = shl(self.marks, rise) | 1;
                self.high = Some(seq);
            }
        }
    }
}

/// `1 << age`, or 0 past the end of the marks.
fn bit(age: u64) -> u128 {
    shl(1, age)
}

/// `x << by`, or 0 once every bit has shifted out.
fn shl(x: u128, by: u64) -> u128 {
    u32::try_from(by)
        .ok()
        .and_then(|by| x.checked_shl(by))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(salt: [u8; 4], seqs: Range<u64>, window: u64) -> (SeqAead, SeqAead) {
        let aead = AesGcm::new(&[0x5a; 16]).unwrap();
        (
            SeqAead::new(aead.clone(), salt, seqs.clone(), window),
            SeqAead::new(aead, salt, seqs, window),
        )
    }

    fn seal(tx: &mut SeqAead, texts: &[&[u8]]) -> Vec<(u64, Vec<u8>)> {
        tx.seal_many(texts, |seq| seq.to_be_bytes())
            .unwrap()
            .collect()
    }

    fn open(rx: &mut SeqAead, frames: &[(u64, Vec<u8>)]) -> Vec<crate::Result<Vec<u8>>> {
        let aads: Vec<[u8; 8]> = frames.iter().map(|(seq, _)| seq.to_be_bytes()).collect();
        let received: Vec<Received> = frames
            .iter()
            .zip(&aads)
            .map(|((seq, text), aad)| Received {
                seq: *seq,
                aad,
                text,
            })
            .collect();
        rx.open_many(&received)
    }

    #[test]
    fn frames_are_sealed_under_salt_and_sequence_number() {
        let (mut tx, _) = pair([1, 2, 3, 4], 7..100, 0);
        let aead = AesGcm::new(&[0x5a; 16]).unwrap();
        let texts: [&[u8]; 3] = [b"a", b"bb", b"ccc"];
        for (i, (seq, body)) in seal(&mut tx, &texts).into_iter().enumerate() {
            assert_eq!(seq, 7 + i as u64);
            let mut nonce = [1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0];
            nonce[4..].copy_from_slice(&seq.to_be_bytes());
            assert_eq!(body, aead.seal(&nonce, texts[i], &seq.to_be_bytes()));
        }
    }

    #[test]
    fn sealing_stops_at_the_limit_without_moving() {
        let (mut tx, _) = pair([0; 4], 1..4, 0);
        let texts: [&[u8]; 4] = [b"1", b"2", b"3", b"4"];
        assert!(matches!(
            tx.seal_many(&texts, |_| []),
            Err(CryptoError::SequenceExhausted)
        ));
        assert_eq!(seal(&mut tx, &texts[..2]).len(), 2);
        assert!(matches!(
            tx.seal_many(&texts[..2], |_| []),
            Err(CryptoError::SequenceExhausted)
        ));
        assert_eq!(seal(&mut tx, &texts[..1])[0].0, 3);
        assert!(matches!(
            tx.seal_many(&texts[..1], |_| []),
            Err(CryptoError::SequenceExhausted)
        ));
        assert_eq!(seal(&mut tx, &[]).len(), 0);
    }

    #[test]
    fn window_accepts_late_frames_once_and_rejects_old_ones() {
        let (mut tx, mut rx) = pair([0; 4], 0..u64::MAX, 4);
        let sealed = seal(&mut tx, &[b"0", b"1", b"2", b"3", b"4", b"5"]);
        let pick =
            |i: &[usize]| -> Vec<(u64, Vec<u8>)> { i.iter().map(|&i| sealed[i].clone()).collect() };
        let results = open(&mut rx, &pick(&[1, 5, 2, 2, 1, 5]));
        assert!(results[0].is_ok() && results[1].is_ok() && results[2].is_ok());
        assert_eq!(results[3], Err(CryptoError::Replayed { seq: 2 }));
        // Age 4 is outside a window of 4.
        assert_eq!(results[4], Err(CryptoError::Replayed { seq: 1 }));
        assert_eq!(results[5], Err(CryptoError::Replayed { seq: 5 }));
        assert_eq!(
            open(&mut rx, &pick(&[3, 4, 3]))[2],
            Err(CryptoError::Replayed { seq: 3 })
        );
        assert!(open(&mut rx, &pick(&[0]))[0].is_err());
    }

    #[test]
    fn replays_cost_no_open_and_forgeries_do_not_move_the_window() {
        let (mut tx, rx) = pair([0; 4], 0..u64::MAX, 0);
        let telemetry = Telemetry::enabled();
        let mut rx = rx.instrument(&telemetry);
        let opened = telemetry.counter("crypto.gcm.opened_frames");
        let sealed = seal(&mut tx, &[b"0", b"1", b"2", b"3"]);
        assert!(open(&mut rx, &sealed[..2]).iter().all(Result::is_ok));
        assert_eq!(opened.get(), 2);
        // A forged frame far ahead fails and leaves the window alone.
        let mut forged = sealed[3].clone();
        forged.1[0] ^= 1;
        forged.0 = 1000;
        let run = [
            sealed[0].clone(),
            forged,
            sealed[2].clone(),
            sealed[2].clone(),
            sealed[1].clone(),
        ];
        let results = open(&mut rx, &run);
        assert_eq!(results[0], Err(CryptoError::Replayed { seq: 0 }));
        assert_eq!(results[1], Err(CryptoError::AuthenticationFailed));
        assert_eq!(results[2].as_deref(), Ok(&b"2"[..]));
        assert_eq!(results[3], Err(CryptoError::Replayed { seq: 2 }));
        assert_eq!(results[4], Err(CryptoError::Replayed { seq: 1 }));
        // Only the forgery and the two copies of frame 2 reached the AEAD.
        assert_eq!(opened.get(), 5);
        assert!(open(&mut rx, &sealed[3..])[0].is_ok());
    }
}
