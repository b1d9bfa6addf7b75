//! Property-based tests for the MACsec anti-replay window and record
//! protection, drawn MACsec faults across burst boundaries, drawn PN
//! exhaustion, and certificate faults met by warm signature memos.

use std::collections::{HashMap, HashSet};

use genio_testkit::prelude::*;

use genio_crypto::gcm::TAG_LEN;
use genio_crypto::pki::{Certificate, CertificateAuthority, KeyUsage, RevocationList};
use genio_crypto::sig::{MerklePublicKey, MerkleSignature, MerkleSigner};
use genio_netsec::handshake::{ClientSession, HandshakeConfig, ServerSession};
use genio_netsec::macsec::{An, MacsecConfig, MacsecFrame, MacsecPeer, Sci};
use genio_netsec::onboarding::{validate_device_chain, DeviceClass, NodeIdentity};
use genio_netsec::NetsecError;

property! {
    /// In-order delivery of any number of frames is always accepted, and a
    /// second delivery of any one of them is always rejected.
    fn macsec_in_order_then_replay(count in 1usize..64, replay_at in index()) {
        let cfg = MacsecConfig::default();
        let mut tx = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut rx = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        let frames: Vec<MacsecFrame> =
            (0..count).map(|i| tx.protect(format!("{i}").as_bytes()).unwrap()).collect();
        for f in &frames {
            prop_assert!(rx.validate(f).is_ok());
        }
        let victim = &frames[replay_at.index(count)];
        prop_assert!(rx.validate(victim).is_err());
    }
}

property! {
    /// Any permutation of a window-sized batch is fully accepted: each
    /// frame exactly once, regardless of arrival order.
    fn macsec_window_permutation(order in vec(0usize..32, 32).prop_map(|mut v| {
        // Build a permutation of 0..32 deterministically from v.
        let mut perm: Vec<usize> = (0..32).collect();
        for (i, x) in v.drain(..).enumerate() {
            perm.swap(i, x % 32);
        }
        perm
    })) {
        let cfg = MacsecConfig { replay_window: 64, pn_limit: u32::MAX as u64 };
        let mut tx = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut rx = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        let frames: Vec<MacsecFrame> =
            (0..32).map(|i| tx.protect(format!("{i}").as_bytes()).unwrap()).collect();
        let mut accepted = 0;
        for &i in &order {
            if rx.validate(&frames[i]).is_ok() {
                accepted += 1;
            }
        }
        prop_assert_eq!(accepted, 32, "every frame accepted exactly once in any order");
        // And nothing is accepted twice.
        for f in &frames {
            prop_assert!(rx.validate(f).is_err());
        }
    }
}

property! {
    /// Tampering any byte of the secure data always fails validation.
    fn macsec_tamper_always_detected(payload in bytes(1..256),
                                     pos in index(), bit in 0u8..8) {
        let cfg = MacsecConfig::default();
        let mut tx = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut rx = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        let mut frame = tx.protect(&payload).unwrap();
        let idx = pos.index(frame.secure_data.len());
        frame.secure_data[idx] ^= 1 << bit;
        prop_assert!(rx.validate(&frame).is_err());
    }
}

property! {
    /// Roundtrip with arbitrary payloads under every supported window size.
    fn macsec_roundtrip_any_window(payload in bytes(0..512),
                                   window in 0u64..128) {
        let cfg = MacsecConfig { replay_window: window, pn_limit: u32::MAX as u64 };
        let mut tx = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut rx = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        let frame = tx.protect(&payload).unwrap();
        prop_assert_eq!(rx.validate(&frame).unwrap(), payload);
    }
}

/// Replay windows the fault property draws from: strict ordering, a
/// window narrower than a burst, and the default.
const WINDOWS: [u64; 3] = [0, 4, 64];

/// One drawn frame of a burst: the fault kind, a transmitter selector
/// and two free positions (a frame, a byte, a length or a SecTAG bit,
/// then a bit or a SecTAG field).
type Draw = (u8, u8, Index, Index);

/// A frame as delivered, and whether the receiver must reject it
/// (tampered, cut or with a flipped SecTAG).
type Delivered = (MacsecFrame, bool);

/// Two transmitting channels and every frame they sent, untampered, so
/// a burst can replay any of them.
struct MacsecStream {
    txs: [MacsecPeer; 2],
    sent: Vec<MacsecFrame>,
}

impl MacsecStream {
    fn fresh(&mut self, tx: usize) -> MacsecFrame {
        let n = self.sent.len();
        let payload = vec![n as u8; 1 + n * 7 % 80];
        let frame = self.txs[tx].protect(&payload).expect("PN below the limit");
        self.sent.push(frame.clone());
        frame
    }

    /// The sent frame `age` packets below `high` on `channel`, if any.
    fn at_age(&self, channel: (Sci, An), high: u64, age: Option<u64>) -> Option<&MacsecFrame> {
        let pn = high.checked_sub(age?)?;
        self.sent
            .iter()
            .find(|f| (f.sci, f.an, f.pn) == (channel.0, channel.1, pn))
    }
}

/// Builds one burst from `draws`. `earlier` is the previous burst and
/// `marks` holds each channel's highest accepted PN when this burst
/// starts (its replay window's `high`).
fn macsec_burst(
    stream: &mut MacsecStream,
    window: u64,
    draws: &[Draw],
    earlier: &[Delivered],
    marks: &HashMap<(Sci, An), u64>,
) -> Vec<Delivered> {
    let mut burst: Vec<Delivered> = Vec::new();
    for &(kind, sel, a, b) in draws {
        let tx = usize::from(sel) % 2;
        let channel = (stream.txs[tx].sci(), stream.txs[tx].current_an());
        match kind {
            0..=3 => burst.push((stream.fresh(tx), false)),
            // Replays of the earlier burst at the window's two edges.
            4 | 5 => {
                let age = if kind == 4 {
                    window.checked_sub(1)
                } else {
                    Some(window)
                };
                let edge = marks
                    .get(&channel)
                    .and_then(|&high| stream.at_age(channel, high, age));
                burst.extend(edge.map(|f| (f.clone(), false)));
            }
            6 if !earlier.is_empty() => burst.push(earlier[a.index(earlier.len())].clone()),
            7 if !burst.is_empty() => {
                let dup = burst[a.index(burst.len())].clone();
                burst.push(dup);
            }
            // A fresh frame that overtakes the one before it.
            8 => {
                let at = burst.len().saturating_sub(1);
                burst.insert(at, (stream.fresh(tx), false));
            }
            9 => {
                let mut frame = stream.fresh(tx);
                let at = a.index(frame.secure_data.len());
                frame.secure_data[at] ^= 1 << b.index(8);
                burst.push((frame, true));
            }
            10 => {
                let mut frame = stream.fresh(tx);
                frame.secure_data.truncate(a.index(TAG_LEN));
                burst.push((frame, true));
            }
            11 => {
                stream.txs[tx]
                    .rotate_sak()
                    .expect("a derived SAK is a valid key");
                burst.push((stream.fresh(tx), false));
            }
            // A SecTAG bit flipped in flight: PN, SCI or AN.
            12 => {
                let mut frame = stream.fresh(tx);
                match b.index(3) {
                    0 => frame.pn ^= 1 << a.index(64),
                    1 => frame.sci ^= 1 << a.index(64),
                    _ => frame.an ^= 1 << a.index(8),
                }
                burst.push((frame, true));
            }
            _ => {}
        }
    }
    burst
}

property! {
    /// MACsec faults drawn across burst boundaries, under replay windows
    /// 0, 4 and 64: two consecutive bursts from two interleaved channels
    /// mix in-order frames, replays of the earlier burst at age
    /// `window - 1` and `window`, in-burst duplicates and reorders, bit
    /// flips in ciphertext or tag, payloads cut below the tag, flipped
    /// PN, SCI or AN bits and AN rotations (wrapping past AN 3). Frame by
    /// frame, `validate_many` equals `validate` on a twin receiver, both
    /// count the same rejections, no tampered frame is ever accepted, and
    /// no (SCI, AN, PN) is sealed twice.
    fn macsec_burst_faults_match_one_at_a_time(window_sel in 0usize..3,
                                               first in vec((0u8..13, 0u8..2, index(), index()), 0..24),
                                               second in vec((0u8..13, 0u8..2, index(), index()), 0..24)) {
        let window = WINDOWS[window_sel];
        let cfg = MacsecConfig { replay_window: window, pn_limit: u32::MAX as u64 };
        let txs = [0xA, 0xC].map(|sci| MacsecPeer::new(sci, &cfg, b"cak").unwrap());
        let mut stream = MacsecStream { txs, sent: Vec::new() };
        let mut batch = MacsecPeer::new(0xB, &cfg, b"cak").unwrap();
        let mut twin = MacsecPeer::new(0xB, &cfg, b"cak").unwrap();
        let mut earlier = Vec::new();
        let mut marks: HashMap<(Sci, An), u64> = HashMap::new();
        for draws in [first, second] {
            let burst = macsec_burst(&mut stream, window, &draws, &earlier, &marks);
            let frames: Vec<MacsecFrame> = burst.iter().map(|(f, _)| f.clone()).collect();
            let got = batch.validate_many(&frames);
            let want: Vec<_> = frames.iter().map(|f| twin.validate(f)).collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(batch.rejected_replay, twin.rejected_replay);
            prop_assert_eq!(batch.rejected_integrity, twin.rejected_integrity);
            for ((frame, must_fail), result) in burst.iter().zip(&got) {
                prop_assert!(!must_fail || result.is_err(),
                             "tampered frame {} on ({:#x}, {}) accepted", frame.pn, frame.sci, frame.an);
                if result.is_ok() {
                    let high = marks.entry((frame.sci, frame.an)).or_insert(frame.pn);
                    *high = (*high).max(frame.pn);
                }
            }
            earlier = burst;
        }
        let mut sealed = HashSet::new();
        for frame in &stream.sent {
            prop_assert!(sealed.insert((frame.sci, frame.an, frame.pn)),
                         "(SCI {:#x}, AN {}, PN {}) sealed twice", frame.sci, frame.an, frame.pn);
        }
    }
}

property! {
    /// PN exhaustion drawn at the limit and inside bursts: a PN limit of
    /// 2–40, then bursts of 0–11 frames mixed with SAK rotations (wrapping
    /// past AN 3, so an AN resumes its PNs). Each `protect_many` either
    /// seals every frame under the current AN's next PNs, or, exactly when
    /// the burst would reach the limit, returns `PnExhausted` and leaves
    /// the next PN where it was: the next burst on that AN, and the final
    /// one-frame drain of the current AN up to `pn_limit - 1`, continue
    /// from it. No (SCI, AN, PN) is sealed twice, and a receiver opens
    /// every sealed frame.
    fn macsec_pn_exhaustion_is_all_or_nothing(pn_limit in 2u64..41,
                                              steps in vec((0u8..4, 0usize..12), 0..32)) {
        let cfg = MacsecConfig { replay_window: 64, pn_limit };
        let mut tx = MacsecPeer::new(0xA, &cfg, b"cak").unwrap();
        let mut rx = MacsecPeer::new(0xB, &cfg, b"cak").unwrap();
        // The model: each AN's next PN. A burst returns the current AN's
        // next PN after it.
        let mut next: HashMap<An, u64> = HashMap::new();
        let mut sealed = HashSet::new();
        let mut seal = |tx: &mut MacsecPeer, rx: &mut MacsecPeer, size: usize| {
            let an = tx.current_an();
            let first = next.get(&an).copied().unwrap_or(1);
            let payloads: Vec<Vec<u8>> = (0..size).map(|i| vec![i as u8; 1 + i * 7 % 40]).collect();
            let texts: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let fits = size == 0 || first + size as u64 <= pn_limit;
            match tx.protect_many(&texts) {
                Ok(frames) => {
                    prop_assert!(fits, "AN {} sealed PNs {}..{} past the limit {}",
                                 an, first, first + size as u64, pn_limit);
                    prop_assert_eq!(frames.len(), size);
                    for (frame, pn) in frames.iter().zip(first..) {
                        prop_assert_eq!((frame.sci, frame.an, frame.pn), (0xA, an, pn));
                        prop_assert!(sealed.insert((frame.sci, frame.an, frame.pn)),
                                     "(SCI {:#x}, AN {}, PN {}) sealed twice", frame.sci, frame.an, frame.pn);
                    }
                    next.insert(an, first + size as u64);
                    let want: Vec<Result<Vec<u8>, NetsecError>> = payloads.into_iter().map(Ok).collect();
                    prop_assert_eq!(rx.validate_many(&frames), want);
                    Ok(first + size as u64)
                }
                Err(err) => {
                    prop_assert_eq!(err, NetsecError::PnExhausted);
                    prop_assert!(!fits, "AN {} refused PNs {}..{} under the limit {}",
                                 an, first, first + size as u64, pn_limit);
                    Ok(first)
                }
            }
        };
        for (kind, size) in steps {
            if kind == 0 {
                tx.rotate_sak().unwrap();
            } else {
                seal(&mut tx, &mut rx, size)?;
            }
        }
        // Drain the current AN one frame at a time, up to its last PN.
        let at = seal(&mut tx, &mut rx, 0)?;
        for _ in at..pn_limit {
            seal(&mut tx, &mut rx, 1)?;
        }
        prop_assert_eq!(tx.protect(b"past the limit"), Err(NetsecError::PnExhausted));
    }
}

/// Validity window of the memo property's device certificates.
const LEAF_WINDOW: (u64, u64) = (100, 10_000);
/// Validity window of its root certificates.
const ROOT_WINDOW: (u64, u64) = (100, 100_000);
/// Its sessions' time, until a fault moves it.
const NOW: u64 = 5_000;

/// One enrolment seen from the OLT: an ONU and an OLT identity, and the
/// anchor, CRL and time both ends validate under.
struct Fleet {
    onu: NodeIdentity,
    olt: NodeIdentity,
    anchor: MerklePublicKey,
    crl: RevocationList,
    now: u64,
}

impl Fleet {
    fn enrol(seed: &[u8]) -> Fleet {
        let mut ca = CertificateAuthority::self_signed("genio-root", seed, ROOT_WINDOW, 2).unwrap();
        let mut identity = |name: &str, class: DeviceClass| {
            // Four leaves: up to three warm sessions and the faulted one.
            let signer = MerkleSigner::from_seed(&[seed, name.as_bytes()].concat(), 2);
            let usages = vec![class.key_usage()];
            let leaf = ca
                .issue(name, signer.public(), LEAF_WINDOW, usages)
                .unwrap();
            NodeIdentity {
                name: name.into(),
                class,
                chain: vec![leaf, ca.certificate().clone()],
                signer,
            }
        };
        let onu = identity("onu-1", DeviceClass::Onu);
        let olt = identity("olt-1", DeviceClass::Olt);
        Fleet {
            onu,
            olt,
            anchor: ca.public(),
            crl: RevocationList::new(),
            now: NOW,
        }
    }

    /// The same fleet with every signature parsed afresh from its bytes,
    /// so no memo answers, and each signer a copy at the same leaf.
    fn cold(&self) -> Fleet {
        let twin = |id: &NodeIdentity| NodeIdentity {
            name: id.name.clone(),
            class: id.class,
            chain: id
                .chain
                .iter()
                .map(|cert| Certificate {
                    tbs: cert.tbs.clone(),
                    signature: MerkleSignature::from_bytes(&cert.signature.to_bytes()).unwrap(),
                })
                .collect(),
            signer: id.signer.clone(),
        };
        Fleet {
            onu: twin(&self.onu),
            olt: twin(&self.olt),
            anchor: self.anchor,
            crl: self.crl.clone(),
            now: self.now,
        }
    }

    /// The admission check of the ONU's chain, as the OLT's
    /// `CertificateAdmission` runs it.
    fn admit(&self) -> Result<(), NetsecError> {
        validate_device_chain(&self.onu.chain, &self.anchor, &self.crl, self.now)
    }

    /// One join, as genio-perf's `join_storm` runs it: the mutual-auth
    /// handshake, then the admission check.
    fn session(&mut self, seed: u64) -> Result<(), NetsecError> {
        let config = HandshakeConfig {
            require_client_auth: true,
            now: self.now,
        };
        let anchors = [self.anchor];
        let seed = seed.to_be_bytes();
        let (hello, client) = ClientSession::start(&config, &seed)?;
        let (flight, server) = ServerSession::respond(&config, &hello, &mut self.olt, &seed)?;
        let (answer, _) =
            client.finish(&config, &flight, Some(&mut self.onu), &anchors, &self.crl)?;
        server.finish(&config, &answer, &anchors, &self.crl)?;
        self.admit()
    }
}

property! {
    /// A warm memo never admits what a cold check refuses. After 1–3
    /// sessions over one enrolment, which leave every certificate
    /// signature's memo warm, one drawn fault: the ONU or the OLT revoked;
    /// the time moved past `not_after` or before `not_before`; one `tbs`
    /// field of a leaf or root (serial, subject, usages or public key)
    /// changed under its old signature; or both chains' roots swapped for
    /// another CA's of the same name, trusted or not. The next session
    /// fails with exactly the error of a cold session over the same chains
    /// with freshly parsed signatures, and so does the admission check.
    fn warm_memos_refuse_what_cold_checks_refuse(seed in bytes(1..16),
                                                 warm in 1u64..4,
                                                 fault in 0u8..6,
                                                 side in 0usize..2,
                                                 at in 0usize..2,
                                                 field in 0u8..4,
                                                 offset in 0u64..100) {
        let mut fleet = Fleet::enrol(&seed);
        for s in 0..warm {
            prop_assert_eq!(fleet.session(s), Ok(()));
        }
        let target = if side == 0 { &mut fleet.onu } else { &mut fleet.olt };
        match fault {
            0 => {
                let leaf = &target.chain[0].tbs;
                fleet.crl.revoke(&leaf.issuer, leaf.serial);
            }
            1 => fleet.now = LEAF_WINDOW.1 + 1 + offset * 1_000,
            2 => fleet.now = offset,
            3 => {
                let tbs = &mut target.chain[at].tbs;
                match field {
                    0 => tbs.serial += 1,
                    1 => tbs.subject.push('x'),
                    2 => tbs.usages.push(KeyUsage::CodeSign),
                    _ => tbs.public_key[0] ^= 1,
                }
            }
            _ => {
                let other = CertificateAuthority::self_signed(
                    "genio-root", &[&seed[..], b"-other"].concat(), ROOT_WINDOW, 1,
                ).unwrap();
                for id in [&mut fleet.onu, &mut fleet.olt] {
                    id.chain[1] = other.certificate().clone();
                }
                if fault == 5 {
                    fleet.anchor = other.public();
                }
            }
        }
        let mut cold = fleet.cold();
        let want = cold.session(warm);
        prop_assert!(want.is_err(), "fault {} on side {} admitted cold", fault, side);
        prop_assert_eq!(fleet.session(warm), want);
        prop_assert_eq!(fleet.admit(), cold.admit());
    }
}
