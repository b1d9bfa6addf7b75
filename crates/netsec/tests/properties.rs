//! Property-based tests for the MACsec anti-replay window and record
//! protection, and drawn MACsec faults across burst boundaries.

use std::collections::{HashMap, HashSet};

use genio_testkit::prelude::*;

use genio_crypto::gcm::TAG_LEN;
use genio_netsec::macsec::{An, MacsecConfig, MacsecFrame, MacsecPeer, Sci};

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
