//! MACsec-shaped layer-2 protection (IEEE 802.1AE).
//!
//! The paper's mitigation **M3** uses MACsec to encrypt raw Ethernet frames
//! between OLTs and upstream equipment with AES-GCM, providing
//! confidentiality, integrity and replay protection on each point-to-point
//! hop. This module reproduces the data-plane structure:
//!
//! * a **secure channel** (SC) per transmitting peer, identified by an SCI;
//! * up to four **secure associations** (SA) per channel, numbered by a
//!   2-bit association number (AN), each holding a Secure Association Key
//!   (SAK) — rotation installs the next AN;
//! * a **SecTAG** carrying SCI, AN and a monotonically increasing packet
//!   number (PN), authenticated as associated data;
//! * a sliding **anti-replay window** on receive.
//!
//! Key distribution (MKA in real deployments) is simulated by deriving SAKs
//! from a pre-shared Connectivity Association Key (CAK) with HKDF, the same
//! trust bootstrap 802.1X-2010 uses.
//!
//! Every association, on either side, is a [`SeqAead`]
//! (`genio_crypto::seq`): the PN is its sequence number, so the nonce is
//! the SCI's low 32 bits followed by the PN, PNs run from 1 up to
//! [`MacsecConfig::pn_limit`], and the receiver keeps a
//! [`MacsecConfig::replay_window`]-wide window per (SCI, AN). A SAK
//! depends only on (CAK, SCI, AN), so the AN wrapping from 3 back to 0
//! brings back AN 0's key: a peer keeps every transmit association it has
//! used, and [`MacsecPeer::rotate_sak`] back to an AN resumes that AN's
//! PNs where they stopped. No (key, nonce) pair is sealed twice, and the
//! receiver's window for that AN accepts the resumed frames. Once every
//! AN has reached the PN limit, [`MacsecPeer::protect`] keeps returning
//! [`NetsecError::PnExhausted`]: the CAK is spent.
//!
//! Each direction has one implementation, the burst:
//! [`MacsecPeer::protect_many`] seals a TDMA burst with one AEAD call, and
//! [`MacsecPeer::validate_many`] opens each same-(SCI, AN) run through
//! the association's run walk ([`SeqAead::open_many`]).
//! [`MacsecPeer::protect`] and [`MacsecPeer::validate`] are bursts of one
//! through the same code, so PN bookkeeping, association lookup and the
//! replay check exist once.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use genio_crypto::gcm::AesGcm;
use genio_crypto::hkdf;
use genio_crypto::seq::{Received, SeqAead};
use genio_telemetry::{Counter, Histogram, Telemetry};

use crate::error::open_error;
use crate::NetsecError;

/// Association number: 2 bits, so four concurrent SAs per channel.
pub type An = u8;

/// Secure Channel Identifier (simplified to a u64 node id).
pub type Sci = u64;

/// A protected frame on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacsecFrame {
    /// SecTAG: transmitting channel.
    pub sci: Sci,
    /// SecTAG: association number that keyed this frame.
    pub an: An,
    /// SecTAG: packet number (replay handle and nonce basis).
    pub pn: u64,
    /// AES-GCM ciphertext plus tag.
    pub secure_data: Vec<u8>,
}

/// Tuning knobs for a MACsec peer.
#[derive(Debug, Clone, Copy)]
pub struct MacsecConfig {
    /// Anti-replay window size in packets. `0` enforces strict ordering.
    pub replay_window: u64,
    /// PN value at which the sender refuses to continue without rotation.
    pub pn_limit: u64,
}

impl Default for MacsecConfig {
    fn default() -> Self {
        MacsecConfig {
            replay_window: 64,
            pn_limit: u32::MAX as u64,
        }
    }
}

/// One endpoint of a MACsec-protected link.
///
/// Each peer transmits on its own secure channel (keyed by its SCI) and
/// receives on the channels of every peer sharing the CAK.
#[derive(Debug)]
pub struct MacsecPeer {
    sci: Sci,
    config: MacsecConfig,
    cak: Vec<u8>,
    /// The transmit association in use, `tx`, and its AN.
    an: An,
    tx: SeqAead,
    /// Transmit associations used before, by AN, so rotating back to
    /// one resumes its PNs.
    tx_parked: HashMap<An, SeqAead>,
    rx: HashMap<(Sci, An), SeqAead>,
    /// Count of frames rejected on receive, by cause, for the benchmarks.
    pub rejected_replay: u64,
    /// Count of integrity failures observed on receive.
    pub rejected_integrity: u64,
    protect_time: Histogram,
    validate_time: Histogram,
    tx_frames: Counter,
    rx_accepted: Counter,
    rx_replay: Counter,
    rx_integrity: Counter,
}

/// The association `an` of channel `sci`: its SAK, derived from the CAK,
/// under the channel's nonce salt and the PN range and window of `config`.
fn association(
    cak: &[u8],
    sci: Sci,
    an: An,
    config: &MacsecConfig,
) -> genio_crypto::Result<SeqAead> {
    let info = format!("macsec-sak sci={sci} an={an}");
    let sak = hkdf::derive(b"genio-mka", cak, info.as_bytes(), 16);
    let [.., s4, s5, s6, s7] = sci.to_be_bytes();
    Ok(SeqAead::new(
        AesGcm::new(&sak)?,
        [s4, s5, s6, s7],
        1..config.pn_limit,
        config.replay_window,
    ))
}

impl MacsecPeer {
    /// Creates a peer with channel id `sci`, deriving its first SAK (AN 0)
    /// from the shared `cak`.
    ///
    /// # Errors
    ///
    /// Propagates key-setup failures from the AEAD layer.
    pub fn new(sci: Sci, config: &MacsecConfig, cak: &[u8]) -> crate::Result<Self> {
        Ok(MacsecPeer {
            sci,
            config: *config,
            cak: cak.to_vec(),
            an: 0,
            tx: association(cak, sci, 0, config)?,
            tx_parked: HashMap::new(),
            rx: HashMap::new(),
            rejected_replay: 0,
            rejected_integrity: 0,
            protect_time: Histogram::disabled(),
            validate_time: Histogram::disabled(),
            tx_frames: Counter::disabled(),
            rx_accepted: Counter::disabled(),
            rx_replay: Counter::disabled(),
            rx_integrity: Counter::disabled(),
        })
    }

    /// Attaches telemetry: TX/RX latency histograms
    /// (`netsec.macsec.protect_ns` / `netsec.macsec.validate_ns`, one
    /// sample per call, whether it carries one frame or a burst) and
    /// frame-outcome counters. Handles are resolved once, here.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.protect_time = telemetry.histogram("netsec.macsec.protect_ns");
        self.validate_time = telemetry.histogram("netsec.macsec.validate_ns");
        self.tx_frames = telemetry.counter("netsec.macsec.tx_frames");
        self.rx_accepted = telemetry.counter("netsec.macsec.rx_accepted");
        self.rx_replay = telemetry.counter("netsec.macsec.rx_replay");
        self.rx_integrity = telemetry.counter("netsec.macsec.rx_integrity");
        self
    }

    /// This peer's secure channel identifier.
    pub fn sci(&self) -> Sci {
        self.sci
    }

    /// Current transmit association number.
    pub fn current_an(&self) -> An {
        self.an
    }

    /// Rotates the transmit SAK to the next association number. An AN
    /// used before resumes its packet numbers where they stopped (its SAK
    /// is the same); a new one starts at PN 1. Receivers derive the same
    /// SAK lazily from the CAK.
    ///
    /// # Errors
    ///
    /// Propagates key-setup failures from the AEAD layer.
    pub fn rotate_sak(&mut self) -> crate::Result<()> {
        let next_an = (self.an + 1) % 4;
        let next = match self.tx_parked.remove(&next_an) {
            Some(parked) => parked,
            None => association(&self.cak, self.sci, next_an, &self.config)?,
        };
        let used = std::mem::replace(&mut self.tx, next);
        self.tx_parked.insert(self.an, used);
        self.an = next_an;
        Ok(())
    }

    /// Protects an outgoing frame: a burst of one through
    /// [`MacsecPeer::protect_many`].
    ///
    /// # Errors
    ///
    /// Returns [`NetsecError::PnExhausted`] when the PN reaches the
    /// configured limit; callers must [`MacsecPeer::rotate_sak`].
    pub fn protect(&mut self, payload: &[u8]) -> crate::Result<MacsecFrame> {
        // The burst returns one frame per payload, so `pop` finds one.
        self.protect_many(&[payload])?
            .pop()
            .ok_or(NetsecError::PnExhausted)
    }

    /// Validates and decrypts an incoming frame: a burst of one through
    /// [`MacsecPeer::validate_many`].
    ///
    /// # Errors
    ///
    /// * [`NetsecError::ReplayDetected`] — PN repeated or older than the
    ///   window.
    /// * [`NetsecError::IntegrityFailure`] — tag mismatch.
    pub fn validate(&mut self, frame: &MacsecFrame) -> crate::Result<Vec<u8>> {
        // The walk yields one result per frame; none would be a rejection.
        self.validate_many(std::slice::from_ref(frame))
            .pop()
            .unwrap_or(Err(NetsecError::IntegrityFailure))
    }

    /// Protects a whole TDMA burst in one call: frame `i` carries the
    /// association's next PN plus `i` and is byte-identical to what the
    /// `i`-th sequential [`MacsecPeer::protect`] call would have produced.
    /// The burst shares one batched AEAD call ([`SeqAead::seal_many`]),
    /// paying telemetry and dispatch once per burst instead of once per
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetsecError::PnExhausted`] if *any* frame of the burst
    /// would reach the configured PN limit; the batch is all-or-nothing, so
    /// nothing is sealed and the PN does not advance in that case.
    pub fn protect_many(&mut self, payloads: &[&[u8]]) -> crate::Result<Vec<MacsecFrame>> {
        let _timer = self.protect_time.start();
        let (sci, an) = (self.sci, self.an);
        let sealed = self
            .tx
            .seal_many(payloads, |pn| aad_for(sci, an, pn))
            .map_err(|_| NetsecError::PnExhausted)?;
        self.tx_frames.incr(payloads.len() as u64);
        Ok(sealed
            .map(|(pn, secure_data)| MacsecFrame {
                sci,
                an,
                pn,
                secure_data,
            })
            .collect())
    }

    /// Validates a burst of frames in one call, returning one result per
    /// frame in input order. Outcomes are identical to looping
    /// [`MacsecPeer::validate`]: replay state advances frame by frame, so an
    /// in-burst duplicate is rejected exactly as it would be sequentially,
    /// and error precedence (replay before integrity) is preserved.
    ///
    /// Internally, each run of consecutive frames from the same (SCI, AN)
    /// goes through that association's run walk ([`SeqAead::open_many`]):
    /// one batched open of the frames its starting window accepts, then
    /// the replay bookkeeping strictly in arrival order.
    pub fn validate_many(&mut self, frames: &[MacsecFrame]) -> Vec<crate::Result<Vec<u8>>> {
        let _timer = self.validate_time.start();
        let mut results = Vec::with_capacity(frames.len());
        // (SCI, AN) is a public association identifier, not secret
        // material; grouping on it leaks nothing.
        for run in frames.chunk_by(|a, b| (a.sci, a.an) == (b.sci, b.an)) {
            self.validate_run(run, &mut results);
        }
        results
    }

    /// One same-(SCI, AN) run of [`MacsecPeer::validate_many`].
    fn validate_run(&mut self, run: &[MacsecFrame], results: &mut Vec<crate::Result<Vec<u8>>>) {
        let Some(first) = run.first() else { return };
        let assoc = match self.rx.entry((first.sci, first.an)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => match association(&self.cak, first.sci, first.an, &self.config) {
                Ok(assoc) => e.insert(assoc),
                Err(err) => {
                    // Sequential validation would fail key setup for
                    // every frame of the run the same way.
                    results.extend(run.iter().map(|_| Err(NetsecError::Crypto(err.clone()))));
                    return;
                }
            },
        };
        let aads: Vec<[u8; 17]> = run.iter().map(|f| aad_for(f.sci, f.an, f.pn)).collect();
        let received: Vec<Received> = run
            .iter()
            .zip(&aads)
            .map(|(f, aad)| Received {
                seq: f.pn,
                aad,
                text: &f.secure_data,
            })
            .collect();
        for result in assoc.open_many(&received) {
            let result = result.map_err(open_error);
            match result {
                Ok(_) => self.rx_accepted.incr(1),
                Err(NetsecError::ReplayDetected { .. }) => {
                    self.rejected_replay += 1;
                    self.rx_replay.incr(1);
                }
                Err(_) => {
                    self.rejected_integrity += 1;
                    self.rx_integrity.incr(1);
                }
            }
            results.push(result);
        }
    }
}

fn aad_for(sci: Sci, an: An, pn: u64) -> [u8; 17] {
    let mut aad = [0u8; 17];
    aad[0..8].copy_from_slice(&sci.to_be_bytes());
    aad[8] = an;
    aad[9..17].copy_from_slice(&pn.to_be_bytes());
    aad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (MacsecPeer, MacsecPeer) {
        let cfg = MacsecConfig::default();
        (
            MacsecPeer::new(0xA, &cfg, b"cak").unwrap(),
            MacsecPeer::new(0xB, &cfg, b"cak").unwrap(),
        )
    }

    #[test]
    fn protect_validate_roundtrip() {
        let (mut a, mut b) = pair();
        let f = a.protect(b"hello olt").unwrap();
        assert_eq!(b.validate(&f).unwrap(), b"hello olt");
    }

    #[test]
    fn pn_increases_per_frame() {
        let (mut a, _) = pair();
        assert_eq!(a.protect(b"1").unwrap().pn, 1);
        assert_eq!(a.protect(b"2").unwrap().pn, 2);
    }

    #[test]
    fn bidirectional_channels_are_independent() {
        let (mut a, mut b) = pair();
        let fa = a.protect(b"from a").unwrap();
        let fb = b.protect(b"from b").unwrap();
        assert_eq!(b.validate(&fa).unwrap(), b"from a");
        assert_eq!(a.validate(&fb).unwrap(), b"from b");
    }

    #[test]
    fn exact_replay_rejected() {
        let (mut a, mut b) = pair();
        let f = a.protect(b"once").unwrap();
        b.validate(&f).unwrap();
        assert_eq!(
            b.validate(&f),
            Err(NetsecError::ReplayDetected { pn: f.pn })
        );
        assert_eq!(b.rejected_replay, 1);
    }

    #[test]
    fn out_of_order_within_window_accepted() {
        let (mut a, mut b) = pair();
        let f1 = a.protect(b"1").unwrap();
        let f2 = a.protect(b"2").unwrap();
        let f3 = a.protect(b"3").unwrap();
        b.validate(&f1).unwrap();
        b.validate(&f3).unwrap();
        // f2 is older than high but inside the window and unseen: accept.
        assert_eq!(b.validate(&f2).unwrap(), b"2");
        // But a second delivery of f2 is replay.
        assert!(b.validate(&f2).is_err());
    }

    #[test]
    fn outside_window_rejected() {
        let cfg = MacsecConfig {
            replay_window: 4,
            pn_limit: u32::MAX as u64,
        };
        let mut a = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut b = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        let old = a.protect(b"old").unwrap();
        for i in 0..10 {
            let f = a.protect(format!("{i}").as_bytes()).unwrap();
            b.validate(&f).unwrap();
        }
        assert!(matches!(
            b.validate(&old),
            Err(NetsecError::ReplayDetected { .. })
        ));
    }

    #[test]
    fn strict_ordering_with_zero_window() {
        let cfg = MacsecConfig {
            replay_window: 0,
            pn_limit: u32::MAX as u64,
        };
        let mut a = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut b = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        let f1 = a.protect(b"1").unwrap();
        let f2 = a.protect(b"2").unwrap();
        b.validate(&f2).unwrap();
        assert!(
            b.validate(&f1).is_err(),
            "older frame rejected under strict ordering"
        );
    }

    #[test]
    fn tampering_detected() {
        let (mut a, mut b) = pair();
        let mut f = a.protect(b"config").unwrap();
        f.secure_data[0] ^= 1;
        assert_eq!(b.validate(&f), Err(NetsecError::IntegrityFailure));
        assert_eq!(b.rejected_integrity, 1);
    }

    #[test]
    fn sectag_tampering_detected() {
        let (mut a, mut b) = pair();
        let mut f = a.protect(b"config").unwrap();
        f.pn += 10; // forge a newer PN to slip past the replay check
        assert_eq!(b.validate(&f), Err(NetsecError::IntegrityFailure));
    }

    #[test]
    fn rotation_changes_an_and_still_validates() {
        let (mut a, mut b) = pair();
        let f0 = a.protect(b"pre").unwrap();
        b.validate(&f0).unwrap();
        a.rotate_sak().unwrap();
        assert_eq!(a.current_an(), 1);
        let f1 = a.protect(b"post").unwrap();
        assert_eq!(f1.an, 1);
        assert_eq!(f1.pn, 1, "pn resets on rotation");
        assert_eq!(b.validate(&f1).unwrap(), b"post");
    }

    #[test]
    fn rotating_back_to_an_an_resumes_its_packet_numbers() {
        let (mut a, mut b) = pair();
        let first = a.protect(b"before the wrap").unwrap();
        assert_eq!((first.an, first.pn), (0, 1));
        assert_eq!(b.validate(&first).unwrap(), b"before the wrap");
        for _ in 0..4 {
            a.rotate_sak().unwrap();
        }
        assert_eq!(a.current_an(), 0);
        let second = a.protect(b"after the wrap").unwrap();
        assert_eq!((second.an, second.pn), (0, 2));
        assert_eq!(b.validate(&second).unwrap(), b"after the wrap");
    }

    #[test]
    fn pn_exhaustion_forces_rotation() {
        let cfg = MacsecConfig {
            replay_window: 64,
            pn_limit: 3,
        };
        let mut a = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        a.protect(b"1").unwrap();
        a.protect(b"2").unwrap();
        assert_eq!(a.protect(b"3").unwrap_err(), NetsecError::PnExhausted);
        a.rotate_sak().unwrap();
        assert!(a.protect(b"3").is_ok());
    }

    #[test]
    fn protect_many_matches_looped_protect() {
        let cfg = MacsecConfig::default();
        let mut batch = MacsecPeer::new(0xA, &cfg, b"cak").unwrap();
        let mut looped = MacsecPeer::new(0xA, &cfg, b"cak").unwrap();
        let payloads: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 20 + i as usize * 13]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let frames = batch.protect_many(&refs).unwrap();
        assert_eq!(frames.len(), payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(frames[i], looped.protect(payload).unwrap(), "frame {i}");
        }
    }

    #[test]
    fn validate_many_matches_sequential_semantics() {
        let cfg = MacsecConfig::default();
        let mut a = MacsecPeer::new(0xA, &cfg, b"cak").unwrap();
        let mut c = MacsecPeer::new(0xC, &cfg, b"cak").unwrap();
        let mut rx_batch = MacsecPeer::new(0xB, &cfg, b"cak").unwrap();
        let mut rx_seq = MacsecPeer::new(0xB, &cfg, b"cak").unwrap();
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 32]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut frames = a.protect_many(&refs).unwrap();
        frames[3].secure_data[0] ^= 1; // tamper one frame mid-burst
        frames.push(frames[1].clone()); // in-burst replay
        // Interleave a second channel so run-splitting is exercised.
        let from_c = c.protect_many(&refs[..2]).unwrap();
        frames.insert(2, from_c[0].clone());
        frames.push(from_c[1].clone());
        let batch_results = rx_batch.validate_many(&frames);
        let seq_results: Vec<_> = frames.iter().map(|f| rx_seq.validate(f)).collect();
        assert_eq!(batch_results, seq_results);
        assert_eq!(rx_batch.rejected_replay, rx_seq.rejected_replay);
        assert_eq!(rx_batch.rejected_integrity, rx_seq.rejected_integrity);

        // A second burst: replays of the first burst on both channels
        // interleaved with fresh frames, one of them tampered, and an
        // in-burst duplicate of a fresh frame.
        let fresh = a.protect_many(&refs[..4]).unwrap();
        let mut frames2 = vec![
            frames[0].clone(),
            fresh[0].clone(),
            frames[4].clone(), // tampered in the first burst, never accepted
            fresh[1].clone(),
            frames[2].clone(), // channel C
            fresh[2].clone(),
            fresh[3].clone(),
            frames[3].clone(),
            fresh[1].clone(),
        ];
        frames2[5].secure_data[2] ^= 4;
        let batch_results = rx_batch.validate_many(&frames2);
        let seq_results: Vec<_> = frames2.iter().map(|f| rx_seq.validate(f)).collect();
        assert_eq!(batch_results, seq_results);
        assert!(matches!(
            batch_results[0],
            Err(NetsecError::ReplayDetected { .. })
        ));
        assert_eq!(batch_results[5], Err(NetsecError::IntegrityFailure));
        assert!(matches!(
            batch_results[8],
            Err(NetsecError::ReplayDetected { .. })
        ));
        assert_eq!(rx_batch.rejected_replay, rx_seq.rejected_replay);
        assert_eq!(rx_batch.rejected_integrity, rx_seq.rejected_integrity);
    }

    #[test]
    fn replays_of_an_earlier_run_are_not_opened() {
        let cfg = MacsecConfig::default();
        let mut a = MacsecPeer::new(0xA, &cfg, b"cak").unwrap();
        let mut rx = MacsecPeer::new(0xB, &cfg, b"cak").unwrap();
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 64]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let first = a.protect_many(&refs[..4]).unwrap();
        assert!(rx.validate_many(&first[..1]).iter().all(Result::is_ok));
        let telemetry = genio_telemetry::Telemetry::enabled();
        if let Some(assoc) = rx.rx.get_mut(&(0xA, 0)) {
            *assoc = assoc.clone().instrument(&telemetry);
        }
        let opened = telemetry.counter("crypto.gcm.opened_frames");
        assert!(rx.validate_many(&first[1..]).iter().all(Result::is_ok));
        assert_eq!(opened.get(), 3);
        // Three replays of the earlier runs around two fresh frames: only
        // the fresh frames reach the AEAD.
        let fresh = a.protect_many(&refs[4..6]).unwrap();
        let second = vec![
            first[0].clone(),
            fresh[0].clone(),
            first[2].clone(),
            first[3].clone(),
            fresh[1].clone(),
        ];
        let results = rx.validate_many(&second);
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 2);
        assert_eq!(rx.rejected_replay, 3);
        assert_eq!(opened.get(), 5);
        // A frame inside the window but not yet seen is opened, and its
        // in-run duplicate is opened too, then rejected by the walk.
        let late = a.protect_many(&refs[6..8]).unwrap();
        let results = rx.validate_many(&[late[1].clone(), late[0].clone(), late[0].clone()]);
        assert!(results[0].is_ok() && results[1].is_ok());
        assert!(matches!(
            results[2],
            Err(NetsecError::ReplayDetected { .. })
        ));
        assert_eq!(opened.get(), 8);
    }

    #[test]
    fn protect_many_is_all_or_nothing_on_pn_exhaustion() {
        let cfg = MacsecConfig {
            replay_window: 64,
            pn_limit: 4,
        };
        let mut a = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let refs: Vec<&[u8]> = (0..5).map(|_| b"x" as &[u8]).collect();
        assert_eq!(a.protect_many(&refs).unwrap_err(), NetsecError::PnExhausted);
        // The PN did not advance: a 3-frame burst (PNs 1..=3) still fits.
        assert_eq!(a.protect_many(&refs[..3]).unwrap().len(), 3);
        assert_eq!(a.protect_many(&refs[..1]).unwrap_err(), NetsecError::PnExhausted);
    }

    #[test]
    fn wrong_cak_fails_integrity() {
        let cfg = MacsecConfig::default();
        let mut a = MacsecPeer::new(1, &cfg, b"cak-a").unwrap();
        let mut b = MacsecPeer::new(2, &cfg, b"cak-b").unwrap();
        let f = a.protect(b"secret").unwrap();
        assert_eq!(b.validate(&f), Err(NetsecError::IntegrityFailure));
    }
}
