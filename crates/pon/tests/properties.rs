//! Property-based tests for the PON substrate: DBA invariants, replay
//! monotonicity, drawn GEM faults across burst boundaries and topology
//! bounds.

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

/// One drawn frame of a burst: the fault kind, a port selector and two
/// free positions (a frame, a byte, a length or a header bit, then a bit
/// or a header field).
type Draw = (u8, u8, Index, Index);

/// A frame as delivered, and whether the receiver must reject it
/// (tampered, cut, with a flipped header, or sent on a port it has no
/// key for).
type Delivered = (DownstreamFrame, bool);

/// The OLT side: seals a stream of frames and keeps every frame it sent,
/// untampered, so a burst can replay any of them.
struct GemStream {
    olt: GemCrypto,
    sent: Vec<DownstreamFrame>,
}

impl GemStream {
    fn fresh(&mut self, port: u16) -> DownstreamFrame {
        let n = self.sent.len();
        let payload = vec![n as u8; 1 + n * 7 % 80];
        let frame = self
            .olt
            .encrypt_downstream(port, 1, &payload)
            .expect("the OLT keys every port");
        self.sent.push(frame.clone());
        frame
    }
}

fn gem_receiver() -> GemCrypto {
    let mut onu = GemCrypto::new(b"faults");
    for port in KEYED_PORTS {
        onu.establish_key(port, 1);
    }
    onu
}

/// Builds one burst from `draws`. `earlier` is the previous burst and
/// `marks` holds each port's highest accepted counter when this burst
/// starts (the runs' starting `recv_high`).
fn gem_burst(
    stream: &mut GemStream,
    draws: &[Draw],
    earlier: &[Delivered],
    marks: &[(u16, u64)],
) -> Vec<Delivered> {
    let mut burst: Vec<Delivered> = Vec::new();
    for &(kind, sel, a, b) in draws {
        let port = KEYED_PORTS[usize::from(sel) % KEYED_PORTS.len()];
        match kind {
            0..=3 => burst.push((stream.fresh(port), false)),
            // A replay of the frame at the port's starting mark.
            4 => {
                let at_mark = marks
                    .iter()
                    .find(|(p, _)| *p == port)
                    .and_then(|&(_, high)| {
                        stream
                            .sent
                            .iter()
                            .find(|f| f.port == port && f.counter == high)
                    });
                burst.extend(at_mark.map(|f| (f.clone(), false)));
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
                burst.insert(at, (stream.fresh(port), false));
            }
            8 => {
                let mut frame = stream.fresh(port);
                let at = a.index(frame.payload.len());
                frame.payload[at] ^= 1 << b.index(8);
                burst.push((frame, true));
            }
            9 => {
                let mut frame = stream.fresh(port);
                frame.payload.truncate(a.index(TAG_LEN));
                burst.push((frame, true));
            }
            10 => burst.push((stream.fresh(UNKEYED_PORT), true)),
            // A header bit flipped in flight: the counter or the target.
            11 => {
                let mut frame = stream.fresh(port);
                if b.index(2) == 0 {
                    frame.counter ^= 1 << a.index(64);
                } else {
                    frame.target ^= 1 << a.index(32);
                }
                burst.push((frame, true));
            }
            _ => {}
        }
    }
    burst
}

property! {
    /// GEM faults drawn across burst boundaries: two consecutive bursts
    /// of one sealed stream mix in-order frames on two interleaved
    /// ports, replays of the earlier burst at and below each run's
    /// starting `recv_high`, in-burst duplicates and reorders, bit flips
    /// in ciphertext or tag, payloads cut below the tag, flipped counter
    /// or target bits and frames on a port the receiver has no key for.
    /// Frame by frame, `decrypt_many` equals `decrypt` on a twin
    /// receiver, and no tampered frame is ever accepted.
    fn gem_burst_faults_match_one_at_a_time(first in vec((0u8..12, 0u8..2, index(), index()), 0..24),
                                            second in vec((0u8..12, 0u8..2, index(), index()), 0..24)) {
        let mut olt = GemCrypto::new(b"faults");
        for port in KEYED_PORTS.into_iter().chain([UNKEYED_PORT]) {
            olt.establish_key(port, 1);
        }
        let mut stream = GemStream { olt, sent: Vec::new() };
        let (mut batch, mut twin) = (gem_receiver(), gem_receiver());
        let mut earlier = Vec::new();
        let mut marks: Vec<(u16, u64)> = Vec::new();
        for draws in [first, second] {
            let burst = gem_burst(&mut stream, &draws, &earlier, &marks);
            let frames: Vec<DownstreamFrame> = burst.iter().map(|(f, _)| f.clone()).collect();
            let got = batch.decrypt_many(&frames);
            let want: Vec<_> = frames.iter().map(|f| twin.decrypt(f)).collect();
            prop_assert_eq!(&got, &want);
            for ((frame, must_fail), result) in burst.iter().zip(&got) {
                prop_assert!(!must_fail || result.is_err(),
                             "forged frame {} on port {} accepted", frame.counter, frame.port);
                if result.is_ok() {
                    marks.retain(|(p, _)| *p != frame.port);
                    marks.push((frame.port, frame.counter));
                }
            }
            earlier = burst;
        }
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
