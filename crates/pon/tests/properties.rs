//! Property-based tests for the PON substrate: DBA invariants, replay
//! monotonicity, drawn GEM faults across burst boundaries and topology
//! bounds.

use std::collections::{HashMap, HashSet};

use genio_testkit::prelude::*;

use genio_crypto::gcm::TAG_LEN;
use genio_pon::frame::DownstreamFrame;
use genio_pon::security::GemCrypto;
use genio_pon::tdma::{compute_map, BandwidthRequest, DbaConfig, ServiceClass};
use genio_pon::topology::PonTree;

fn arb_requests() -> impl Strategy<Value = Vec<BandwidthRequest>> {
    vec(
        (1u32..64, 0u64..500_000, 0u8..3).prop_map(|(onu, bytes, class)| BandwidthRequest {
            onu,
            queued_bytes: bytes,
            class: match class {
                0 => ServiceClass::Fixed,
                1 => ServiceClass::Assured,
                _ => ServiceClass::BestEffort,
            },
        }),
        0..20,
    )
}

property! {
    /// The DBA never grants more than cycle capacity, never grants any ONU
    /// more than the max share, never grants more than requested in total
    /// per ONU, and windows never overlap.
    fn dba_invariants(requests in arb_requests(), max_share in 1u32..=10) {
        let config = DbaConfig {
            cycle_ns: 125_000,
            bytes_per_ns: 1.25,
            max_share: max_share as f64 / 10.0,
        };
        let map = compute_map(&config, &requests);
        let capacity = (config.cycle_ns as f64 * config.bytes_per_ns) as u64;
        prop_assert!(map.total_bytes() <= capacity);

        let per_onu_cap = (capacity as f64 * config.max_share) as u64;
        for grant in map.grants() {
            prop_assert!(grant.bytes <= per_onu_cap + 1, "onu {} over cap", grant.onu);
            let requested: u64 = requests
                .iter()
                .filter(|r| r.onu == grant.onu)
                .map(|r| r.queued_bytes)
                .sum();
            prop_assert!(grant.bytes <= requested, "granted more than queued");
        }
        let grants: Vec<_> = map.grants().collect();
        for w in grants.windows(2) {
            prop_assert!(w[0].start_ns + w[0].duration_ns <= w[1].start_ns);
        }
        if let Some(f) = map.fairness_index() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
        }
    }
}

property! {
    /// Fixed-class demand is never starved by best-effort demand.
    fn dba_fixed_priority(fixed_bytes in 1u64..50_000, be_bytes in 1u64..1_000_000) {
        let config = DbaConfig { cycle_ns: 125_000, bytes_per_ns: 1.25, max_share: 1.0 };
        let map = compute_map(&config, &[
            BandwidthRequest { onu: 1, queued_bytes: fixed_bytes, class: ServiceClass::Fixed },
            BandwidthRequest { onu: 2, queued_bytes: be_bytes, class: ServiceClass::BestEffort },
        ]);
        let capacity = (config.cycle_ns as f64 * config.bytes_per_ns) as u64;
        let expected = fixed_bytes.min(capacity);
        prop_assert_eq!(map.grant(1).map(|g| g.bytes).unwrap_or(0), expected);
    }
}

property! {
    /// GEM crypto: any frame decrypts exactly once; all later attempts are
    /// replays, in any order of a delivered prefix.
    fn gem_replay_exactly_once(count in 1usize..20) {
        let mut olt = GemCrypto::new(b"prop");
        let mut onu = GemCrypto::new(b"prop");
        olt.establish_key(5, 1);
        onu.establish_key(5, 1);
        let frames: Vec<_> = (0..count)
            .map(|i| olt.encrypt_downstream(5, 1, format!("{i}").as_bytes()).unwrap())
            .collect();
        // Deliver in order: all accepted.
        for f in &frames {
            prop_assert!(onu.decrypt(f).is_ok());
        }
        // Every replay rejected.
        for f in &frames {
            prop_assert!(onu.decrypt(f).is_err());
        }
    }
}

/// GEM ports both receivers key, and one only the OLT keys.
const KEYED_PORTS: [u16; 2] = [1, 2];
const UNKEYED_PORT: u16 = 9;

/// One drawn step of a burst: the fault kind, a port selector and two
/// free positions (a frame, a byte, a length or a header bit, then a bit
/// or a header field).
type Draw = (u8, u8, Index, Index);

/// A frame as delivered, whether the receiver must reject it (tampered,
/// cut, with a flipped header, or sent on a port it has no key for), and
/// the key epoch of its port when the OLT sealed it.
type Delivered = (DownstreamFrame, bool, u64);

/// A burst as delivered: its frames, and the re-keys both receivers make
/// on the way, each as `(frames delivered before it, port)`.
struct Burst {
    frames: Vec<Delivered>,
    rekeys: Vec<(usize, u16)>,
}

/// The OLT side: seals a stream of frames and keeps every frame it sent,
/// untampered and with its key epoch, so a burst can replay any of them.
struct GemStream {
    olt: GemCrypto,
    sent: Vec<(DownstreamFrame, u64)>,
    /// Key epoch of each port: 0 from its first key, one more a re-key.
    epochs: HashMap<u16, u64>,
    /// Every `(port, epoch, counter)` sealed so far, and how many seals
    /// repeated one.
    sealed: HashSet<(u16, u64, u64)>,
    resealed: usize,
}

impl GemStream {
    fn new(olt: GemCrypto) -> GemStream {
        GemStream {
            olt,
            sent: Vec::new(),
            epochs: HashMap::new(),
            sealed: HashSet::new(),
            resealed: 0,
        }
    }

    fn epoch(&self, port: u16) -> u64 {
        self.epochs.get(&port).copied().unwrap_or(0)
    }

    fn fresh(&mut self, port: u16) -> (DownstreamFrame, u64) {
        let n = self.sent.len();
        let payload = vec![n as u8; 1 + n * 7 % 80];
        let frame = self
            .olt
            .encrypt_downstream(port, 1, &payload)
            .expect("the OLT keys every port");
        let epoch = self.epoch(port);
        if !self.sealed.insert((port, epoch, frame.counter)) {
            self.resealed += 1;
        }
        self.sent.push((frame.clone(), epoch));
        (frame, epoch)
    }

    fn rekey(&mut self, port: u16) {
        self.olt.establish_key(port, 1);
        *self.epochs.entry(port).or_insert(0) += 1;
    }
}

fn gem_receiver() -> GemCrypto {
    let mut onu = GemCrypto::new(b"faults");
    for port in KEYED_PORTS {
        onu.establish_key(port, 1);
    }
    onu
}

/// Builds one burst from `draws`. `earlier` is the previous burst's
/// frames and `marks` holds each port's key epoch and highest accepted
/// counter when this burst starts (the runs' starting `recv_high`).
fn gem_burst(
    stream: &mut GemStream,
    draws: &[Draw],
    earlier: &[Delivered],
    marks: &[(u16, u64, u64)],
) -> Burst {
    let mut burst: Vec<Delivered> = Vec::new();
    let mut rekeys = Vec::new();
    for &(kind, sel, a, b) in draws {
        let port = KEYED_PORTS[usize::from(sel) % KEYED_PORTS.len()];
        let fresh = |stream: &mut GemStream, must_fail| {
            let (frame, epoch) = stream.fresh(port);
            (frame, must_fail, epoch)
        };
        match kind {
            0..=3 => burst.push(fresh(stream, false)),
            // A replay of the frame at the port's starting mark.
            4 => {
                let at_mark =
                    marks
                        .iter()
                        .find(|(p, _, _)| *p == port)
                        .and_then(|&(_, epoch, high)| {
                            stream
                                .sent
                                .iter()
                                .find(|(f, e)| f.port == port && *e == epoch && f.counter == high)
                        });
                burst.extend(at_mark.map(|(f, e)| (f.clone(), false, *e)));
            }
            // A replay of any frame of the earlier burst, as delivered.
            5 if !earlier.is_empty() => burst.push(earlier[a.index(earlier.len())].clone()),
            6 if !burst.is_empty() => {
                let dup = burst[a.index(burst.len())].clone();
                burst.push(dup);
            }
            // A fresh frame that overtakes the one before it.
            7 => {
                let at = burst.len().saturating_sub(1);
                let frame = fresh(stream, false);
                burst.insert(at, frame);
            }
            8 => {
                let (mut frame, _, epoch) = fresh(stream, true);
                let at = a.index(frame.payload.len());
                frame.payload[at] ^= 1 << b.index(8);
                burst.push((frame, true, epoch));
            }
            9 => {
                let (mut frame, _, epoch) = fresh(stream, true);
                frame.payload.truncate(a.index(TAG_LEN));
                burst.push((frame, true, epoch));
            }
            10 => {
                let (frame, epoch) = stream.fresh(UNKEYED_PORT);
                burst.push((frame, true, epoch));
            }
            // A header bit flipped in flight: the counter or the target.
            11 => {
                let (mut frame, _, epoch) = fresh(stream, true);
                if b.index(2) == 0 {
                    frame.counter ^= 1 << a.index(64);
                } else {
                    frame.target ^= 1 << a.index(32);
                }
                burst.push((frame, true, epoch));
            }
            // A re-key of the port: the OLT now, both receivers once the
            // frames delivered so far have arrived.
            12 => {
                stream.rekey(port);
                rekeys.push((burst.len(), port));
            }
            _ => {}
        }
    }
    Burst {
        frames: burst,
        rekeys,
    }
}

property! {
    /// GEM faults drawn across burst boundaries: two consecutive bursts
    /// of one sealed stream mix in-order frames on two interleaved
    /// ports, replays of the earlier burst at and below each run's
    /// starting `recv_high`, in-burst duplicates and reorders, bit flips
    /// in ciphertext or tag, payloads cut below the tag, flipped counter
    /// or target bits, frames on a port the receiver has no key for, and
    /// re-keys of a port on both ends, between bursts and inside them
    /// (a receiver re-keys where the OLT did, in delivery order, so a
    /// reordered frame can cross it). Frame by frame, `decrypt_many` over
    /// the runs between re-keys equals `decrypt` on a twin receiver, no
    /// tampered frame is ever accepted, no `(port, epoch, counter)` is
    /// sealed twice, and every accepted frame was sealed in the
    /// receiver's current key epoch: none sealed before a receiver's
    /// re-key opens after it.
    fn gem_burst_faults_match_one_at_a_time(first in vec((0u8..13, 0u8..2, index(), index()), 0..24),
                                            second in vec((0u8..13, 0u8..2, index(), index()), 0..24)) {
        let mut olt = GemCrypto::new(b"faults");
        for port in KEYED_PORTS.into_iter().chain([UNKEYED_PORT]) {
            olt.establish_key(port, 1);
        }
        let mut stream = GemStream::new(olt);
        let (mut batch, mut twin) = (gem_receiver(), gem_receiver());
        let mut receiver_epochs: HashMap<u16, u64> = HashMap::new();
        let mut earlier = Vec::new();
        let mut marks: Vec<(u16, u64, u64)> = Vec::new();
        for draws in [first, second] {
            let burst = gem_burst(&mut stream, &draws, &earlier, &marks);
            let frames: Vec<DownstreamFrame> = burst.frames.iter().map(|(f, _, _)| f.clone()).collect();
            // Cut the burst at its re-keys: both receivers re-key there,
            // and each run between re-keys opens as one burst.
            let mut got = Vec::new();
            let mut want = Vec::new();
            let mut opened_in = Vec::new();
            let mut start = 0;
            for cut in burst.rekeys.iter().copied().map(Some).chain([None]) {
                let end = cut.map_or(frames.len(), |(at, _)| at);
                let run = &frames[start..end];
                got.extend(batch.decrypt_many(run));
                want.extend(run.iter().map(|f| twin.decrypt(f)));
                opened_in.extend(run.iter().map(|f| receiver_epochs.get(&f.port).copied().unwrap_or(0)));
                start = end;
                if let Some((_, port)) = cut {
                    batch.establish_key(port, 1);
                    twin.establish_key(port, 1);
                    *receiver_epochs.entry(port).or_insert(0) += 1;
                }
            }
            prop_assert_eq!(&got, &want);
            for (((frame, must_fail, sealed_in), result), opened_in) in
                burst.frames.iter().zip(&got).zip(opened_in)
            {
                prop_assert!(!must_fail || result.is_err(),
                             "forged frame {} on port {} accepted", frame.counter, frame.port);
                if result.is_ok() {
                    prop_assert_eq!(*sealed_in, opened_in,
                                    "frame {} on port {} opened across a re-key",
                                    frame.counter, frame.port);
                    marks.retain(|(p, _, _)| *p != frame.port);
                    marks.push((frame.port, *sealed_in, frame.counter));
                }
            }
            earlier = burst.frames;
        }
        prop_assert_eq!(stream.resealed, 0, "a (port, epoch, counter) was sealed twice");
    }
}

property! {
    /// Topology: RTT is monotone in drop-fiber length and ids are unique.
    fn topology_rtt_monotone(lengths in vec(1u32..30_000, 2..16)) {
        let mut tree = PonTree::builder("olt").split_ratio(32).trunk_m(5_000).build();
        let mut ids = Vec::new();
        for (i, len) in lengths.iter().enumerate() {
            ids.push((tree.attach_onu(&format!("s{i}"), *len).unwrap(), *len));
        }
        let unique: std::collections::HashSet<_> = ids.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(unique.len(), ids.len());
        for (id_a, len_a) in &ids {
            for (id_b, len_b) in &ids {
                if len_a < len_b {
                    prop_assert!(tree.rtt_ns(*id_a).unwrap() <= tree.rtt_ns(*id_b).unwrap());
                }
            }
        }
    }
}
