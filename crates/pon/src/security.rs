//! Payload protection for GEM ports (mitigation **M3**, optical segment).
//!
//! ITU-T G.987.3 recommends AES-based payload encryption between OLT and
//! ONU so that the physically broadcast downstream cannot be read by fiber
//! taps or promiscuous ONUs. This module implements that with AES-GCM keyed
//! per GEM port. Each port key is a [`SeqAead`] (`genio_crypto::seq`): the
//! frame counter is its sequence number, so the nonce is
//! `port || 0x0000 || counter`, counters start at 0 and never wrap
//! ([`PonError::CounterExhausted`]), and the receiver's window of 0
//! accepts only counters above the highest it has accepted (replay
//! defence).
//!
//! Each direction has one implementation, the burst: an OLT seals and an
//! ONU opens a whole TDMA burst per port with one AEAD call
//! ([`GemCrypto::encrypt_downstream_many`], [`GemCrypto::decrypt_many`]).
//! The single-frame calls [`GemCrypto::encrypt_downstream`] and
//! [`GemCrypto::decrypt`] are bursts of one through the same code, so key
//! lookup, counters and the replay check exist once.

use std::collections::HashMap;

use genio_crypto::drbg::HmacDrbg;
use genio_crypto::gcm::AesGcm;
use genio_crypto::seq::{Received, SeqAead};
use genio_crypto::CryptoError;

use crate::frame::{DownstreamFrame, GemPort, PayloadKind};
use crate::topology::OnuId;
use crate::PonError;

/// Encryption engine for one side of a PON tree (the OLT holds one; each
/// ONU conceptually holds the mirror image for its own ports).
///
/// # Example
///
/// ```
/// use genio_pon::security::GemCrypto;
///
/// # fn main() -> genio_pon::Result<()> {
/// let mut olt = GemCrypto::new(b"tree-1 master");
/// let mut onu = GemCrypto::new(b"tree-1 master");
/// olt.establish_key(101, 5);
/// onu.establish_key(101, 5);
/// let frame = olt.encrypt_downstream(101, 5, b"meter reading")?;
/// assert_eq!(onu.decrypt(&frame)?, b"meter reading");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GemCrypto {
    master_seed: Vec<u8>,
    ports: HashMap<GemPort, SeqAead>,
    /// Key epoch of every port keyed so far: 0 from its first
    /// [`GemCrypto::establish_key`], one more at each re-key.
    epochs: HashMap<GemPort, u64>,
}

impl GemCrypto {
    /// Creates an engine from the tree's master keying seed. Both ends must
    /// be constructed from the same seed (the key agreement itself is
    /// modelled in `genio-netsec`).
    pub fn new(master_seed: &[u8]) -> Self {
        GemCrypto {
            master_seed: master_seed.to_vec(),
            ports: HashMap::new(),
            epochs: HashMap::new(),
        }
    }

    /// Derives and installs the AES-128 key for `port` bound to `onu`.
    ///
    /// Each call starts a new key epoch for the port, with its counter
    /// at 0. Epoch 0, the first call, derives the key from the master
    /// seed, the port and the ONU; re-establishing a keyed port (key
    /// rotation) starts epoch `e + 1`, whose key also binds the epoch.
    /// So a rotation never seals a counter again under the same key,
    /// and frames from before it fail to open after it
    /// ([`PonError::DecryptFailed`]). Both ends must rotate in step.
    pub fn establish_key(&mut self, port: GemPort, onu: OnuId) {
        let epoch = *self
            .epochs
            .entry(port)
            .and_modify(|epoch| *epoch += 1)
            .or_insert(0);
        let label = match epoch {
            0 => format!("gem-port {port} onu {onu}"),
            _ => format!("gem-port {port} onu {onu} epoch {epoch}"),
        };
        let mut drbg = HmacDrbg::new(&self.master_seed);
        drbg.reseed(label.as_bytes());
        let key = drbg.bytes(16);
        // A 16-byte key is always accepted; bail (leaving the port
        // keyless, so traffic is dropped) rather than panic the OLT
        // data plane on the impossible branch.
        let Ok(aead) = AesGcm::new(&key) else { return };
        let [hi, lo] = port.to_be_bytes();
        self.ports
            .insert(port, SeqAead::new(aead, [hi, lo, 0, 0], 0..u64::MAX, 0));
    }

    /// Encrypts a downstream payload for `port`, producing a broadcastable
    /// frame with the next counter value: a burst of one through
    /// [`GemCrypto::encrypt_downstream_many`].
    ///
    /// # Errors
    ///
    /// Returns [`PonError::NoKey`] if the port has no established key, and
    /// [`PonError::CounterExhausted`] once its counter space is spent.
    pub fn encrypt_downstream(
        &mut self,
        port: GemPort,
        target: OnuId,
        plaintext: &[u8],
    ) -> crate::Result<DownstreamFrame> {
        // The burst returns one frame per plaintext, so `pop` finds one.
        self.encrypt_downstream_many(port, target, &[plaintext])?
            .pop()
            .ok_or(PonError::NoKey { port })
    }

    /// Decrypts and replay-checks a received frame: a burst of one through
    /// the run walk of [`GemCrypto::decrypt_many`].
    ///
    /// # Errors
    ///
    /// * [`PonError::NoKey`] — port not keyed.
    /// * [`PonError::Replay`] — counter not strictly greater than the highest
    ///   seen (replayed or reordered frame).
    /// * [`PonError::DecryptFailed`] — tag mismatch (tampering or wrong key).
    pub fn decrypt(&mut self, frame: &DownstreamFrame) -> crate::Result<Vec<u8>> {
        let mut results = Vec::with_capacity(1);
        self.decrypt_run(std::slice::from_ref(frame), &mut results);
        // The walk yields one result per frame; none would be a rejection.
        results.pop().unwrap_or(Err(PonError::DecryptFailed))
    }

    /// Encrypts a whole downstream burst for one `port` with a single
    /// batched AEAD call ([`genio_crypto::gcm::AesGcm::seal_many`]).
    ///
    /// Frame `i` carries the port's next counter plus `i` and is
    /// byte-identical to the frame the `i`-th sequential
    /// [`GemCrypto::encrypt_downstream`] call would have produced.
    ///
    /// # Errors
    ///
    /// Returns [`PonError::NoKey`] if the port has no established key, and
    /// [`PonError::CounterExhausted`] if the burst would run past the last
    /// counter; the counter does not advance on error.
    pub fn encrypt_downstream_many(
        &mut self,
        port: GemPort,
        target: OnuId,
        plaintexts: &[&[u8]],
    ) -> crate::Result<Vec<DownstreamFrame>> {
        let aead = self.ports.get_mut(&port).ok_or(PonError::NoKey { port })?;
        let aad = aad_for(port, target);
        let sealed = aead
            .seal_many(plaintexts, |_| aad)
            .map_err(|_| PonError::CounterExhausted { port })?;
        Ok(sealed
            .map(|(counter, payload)| DownstreamFrame {
                port,
                target,
                counter,
                payload,
                kind: PayloadKind::Encrypted,
            })
            .collect())
    }

    /// Encrypts a mixed-port downstream burst: one OLT-side call covering a
    /// whole TDMA cycle. Consecutive items addressed to the same
    /// `(port, target)` pair are sealed together via
    /// [`GemCrypto::encrypt_downstream_many`]; every frame is byte-identical
    /// to its sequential [`GemCrypto::encrypt_downstream`] counterpart, and
    /// per-item errors (e.g. an unkeyed port) do not abort the rest of the
    /// burst.
    pub fn encrypt_downstream_burst(
        &mut self,
        items: &[(GemPort, OnuId, &[u8])],
    ) -> Vec<crate::Result<DownstreamFrame>> {
        let mut results = Vec::with_capacity(items.len());
        for run in items.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let Some(&(port, target, _)) = run.first() else {
                continue;
            };
            let plaintexts: Vec<&[u8]> = run.iter().map(|&(_, _, p)| p).collect();
            match self.encrypt_downstream_many(port, target, &plaintexts) {
                Ok(frames) => results.extend(frames.into_iter().map(Ok)),
                Err(err) => results.extend(std::iter::repeat_n(err, run.len()).map(Err)),
            }
        }
        results
    }

    /// Decrypts and replay-checks a received burst, one result per frame.
    ///
    /// Consecutive frames for the same port are opened with one batched
    /// AEAD call; the replay check then runs strictly in arrival order, so
    /// the per-frame results (including which duplicate of a replayed
    /// counter is rejected) are exactly those of looping
    /// [`GemCrypto::decrypt`].
    pub fn decrypt_many(&mut self, frames: &[DownstreamFrame]) -> Vec<crate::Result<Vec<u8>>> {
        let mut results = Vec::with_capacity(frames.len());
        for run in frames.chunk_by(|a, b| a.port == b.port) {
            self.decrypt_run(run, &mut results);
        }
        results
    }

    /// Opens one same-port run of a burst through the port key's run walk
    /// ([`SeqAead::open_many`]): a counter at or below the highest one
    /// accepted before the run costs no AEAD open, and the results equal
    /// looping [`GemCrypto::decrypt`].
    fn decrypt_run(&mut self, run: &[DownstreamFrame], results: &mut Vec<crate::Result<Vec<u8>>>) {
        let Some(first) = run.first() else { return };
        let port = first.port;
        let Some(aead) = self.ports.get_mut(&port) else {
            results.extend(run.iter().map(|_| Err(PonError::NoKey { port })));
            return;
        };
        let aads: Vec<[u8; 6]> = run.iter().map(|f| aad_for(f.port, f.target)).collect();
        let received: Vec<Received> = run
            .iter()
            .zip(&aads)
            .map(|(f, aad)| Received {
                seq: f.counter,
                aad,
                text: &f.payload,
            })
            .collect();
        results.extend(aead.open_many(&received).into_iter().map(|result| {
            result.map_err(|err| match err {
                CryptoError::Replayed { .. } => PonError::Replay,
                _ => PonError::DecryptFailed,
            })
        }));
    }

    /// Builds a cleartext frame (what the tree carries when M3 is disabled).
    pub fn cleartext_downstream(
        port: GemPort,
        target: OnuId,
        counter: u64,
        payload: &[u8],
    ) -> DownstreamFrame {
        DownstreamFrame {
            port,
            target,
            counter,
            payload: payload.to_vec(),
            kind: PayloadKind::Clear,
        }
    }
}

fn aad_for(port: GemPort, target: OnuId) -> [u8; 6] {
    let mut aad = [0u8; 6];
    aad[0..2].copy_from_slice(&port.to_be_bytes());
    aad[2..6].copy_from_slice(&target.to_be_bytes());
    aad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (GemCrypto, GemCrypto) {
        let mut a = GemCrypto::new(b"seed");
        let mut b = GemCrypto::new(b"seed");
        a.establish_key(10, 1);
        b.establish_key(10, 1);
        (a, b)
    }

    #[test]
    fn roundtrip() {
        let (mut olt, mut onu) = pair();
        let f = olt.encrypt_downstream(10, 1, b"data").unwrap();
        assert_eq!(f.kind, PayloadKind::Encrypted);
        assert_eq!(onu.decrypt(&f).unwrap(), b"data");
    }

    #[test]
    fn counters_increase() {
        let (mut olt, _) = pair();
        let f0 = olt.encrypt_downstream(10, 1, b"a").unwrap();
        let f1 = olt.encrypt_downstream(10, 1, b"b").unwrap();
        assert_eq!(f0.counter, 0);
        assert_eq!(f1.counter, 1);
    }

    #[test]
    fn replay_rejected() {
        let (mut olt, mut onu) = pair();
        let f = olt.encrypt_downstream(10, 1, b"once").unwrap();
        assert!(onu.decrypt(&f).is_ok());
        assert_eq!(onu.decrypt(&f), Err(PonError::Replay));
    }

    #[test]
    fn stale_counter_rejected() {
        let (mut olt, mut onu) = pair();
        let f0 = olt.encrypt_downstream(10, 1, b"first").unwrap();
        let f1 = olt.encrypt_downstream(10, 1, b"second").unwrap();
        assert!(onu.decrypt(&f1).is_ok());
        // Old frame arriving late is treated as replay.
        assert_eq!(onu.decrypt(&f0), Err(PonError::Replay));
    }

    #[test]
    fn tampering_rejected() {
        let (mut olt, mut onu) = pair();
        let mut f = olt.encrypt_downstream(10, 1, b"payload").unwrap();
        f.payload[0] ^= 0xff;
        assert_eq!(onu.decrypt(&f), Err(PonError::DecryptFailed));
    }

    #[test]
    fn retargeted_frame_rejected() {
        // Flipping the target ONU breaks AAD binding even with intact payload.
        let (mut olt, mut onu) = pair();
        let mut f = olt.encrypt_downstream(10, 1, b"payload").unwrap();
        f.target = 99;
        assert_eq!(onu.decrypt(&f), Err(PonError::DecryptFailed));
    }

    #[test]
    fn unkeyed_port_errors() {
        let (mut olt, _) = pair();
        assert_eq!(
            olt.encrypt_downstream(99, 1, b"x").unwrap_err(),
            PonError::NoKey { port: 99 }
        );
    }

    #[test]
    fn different_ports_use_different_keys() {
        let mut olt = GemCrypto::new(b"seed");
        olt.establish_key(1, 1);
        olt.establish_key(2, 1);
        let fa = olt.encrypt_downstream(1, 1, b"same plaintext").unwrap();
        let fb = olt.encrypt_downstream(2, 1, b"same plaintext").unwrap();
        assert_ne!(fa.payload, fb.payload);
    }

    #[test]
    fn key_rotation_resets_counters() {
        let (mut olt, mut onu) = pair();
        let f = olt.encrypt_downstream(10, 1, b"pre-rotation").unwrap();
        onu.decrypt(&f).unwrap();
        olt.establish_key(10, 1);
        onu.establish_key(10, 1);
        let f2 = olt.encrypt_downstream(10, 1, b"post-rotation").unwrap();
        assert_eq!(f2.counter, 0);
        assert_eq!(onu.decrypt(&f2).unwrap(), b"post-rotation");
    }

    #[test]
    fn rekey_starts_a_fresh_key_epoch() {
        let (mut olt, mut onu) = pair();
        let before = olt.encrypt_downstream(10, 1, b"aaaa").unwrap();
        olt.establish_key(10, 1);
        onu.establish_key(10, 1);
        let after = olt.encrypt_downstream(10, 1, b"bbbb").unwrap();
        assert_eq!((before.counter, after.counter), (0, 0));
        // Under one key and nonce the ciphertext XOR would equal the
        // plaintext XOR (keystream reuse).
        let xor = |x: &[u8], y: &[u8]| -> Vec<u8> { x.iter().zip(y).map(|(a, b)| a ^ b).collect() };
        assert_ne!(
            xor(&before.payload[..4], &after.payload[..4]),
            xor(b"aaaa", b"bbbb")
        );
        assert_eq!(onu.decrypt(&before), Err(PonError::DecryptFailed));
        assert_eq!(onu.decrypt(&after).unwrap(), b"bbbb");
    }

    #[test]
    fn cleartext_helper_marks_kind() {
        let f = GemCrypto::cleartext_downstream(5, 2, 0, b"visible");
        assert_eq!(f.kind, PayloadKind::Clear);
        assert_eq!(f.payload, b"visible");
    }

    #[test]
    fn burst_encrypt_matches_looped_encrypt() {
        let (mut batch_olt, _) = pair();
        let (mut loop_olt, _) = pair();
        let payloads: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 1 + usize::from(i) * 31]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let burst = batch_olt.encrypt_downstream_many(10, 1, &refs).unwrap();
        for (frame, pt) in burst.iter().zip(payloads.iter()) {
            let single = loop_olt.encrypt_downstream(10, 1, pt).unwrap();
            assert_eq!(frame, &single);
        }
        // Counters continue seamlessly after the burst.
        assert_eq!(
            batch_olt.encrypt_downstream(10, 1, b"next").unwrap().counter,
            7
        );
    }

    #[test]
    fn burst_decrypt_matches_sequential_semantics() {
        let (mut olt, mut batch_onu) = pair();
        let (_, mut loop_onu) = pair();
        olt.establish_key(11, 1);
        batch_onu.establish_key(11, 1);
        loop_onu.establish_key(11, 1);
        // Interleave two ports, tamper one frame, replay another in-burst.
        let mut frames = Vec::new();
        for i in 0..3u8 {
            frames.push(olt.encrypt_downstream(10, 1, &[i; 20]).unwrap());
            frames.push(olt.encrypt_downstream(11, 1, &[i ^ 0x55; 20]).unwrap());
        }
        frames[2].payload[0] ^= 0xff; // tampered
        let replayed = frames[0].clone();
        frames.push(replayed); // in-burst replay
        let batch = batch_onu.decrypt_many(&frames);
        let sequential: Vec<_> = frames.iter().map(|f| loop_onu.decrypt(f)).collect();
        assert_eq!(batch, sequential);
        assert!(matches!(batch[2], Err(PonError::DecryptFailed)));
        assert!(matches!(batch[6], Err(PonError::Replay)));

        // A second burst: replays of the first burst's frames (rejected
        // against the run's starting mark) interleaved with fresh frames,
        // one of them tampered, plus an in-burst duplicate.
        let mut frames2 = vec![frames[0].clone(), frames[4].clone()];
        for i in 3..6u8 {
            frames2.push(olt.encrypt_downstream(10, 1, &[i; 20]).unwrap());
            frames2.push(frames[1].clone());
        }
        frames2[2].payload[3] ^= 0x10; // tampered fresh frame
        frames2.push(frames2[4].clone()); // in-burst replay of a fresh frame
        let batch = batch_onu.decrypt_many(&frames2);
        let sequential: Vec<_> = frames2.iter().map(|f| loop_onu.decrypt(f)).collect();
        assert_eq!(batch, sequential);
        assert_eq!(batch[0], Err(PonError::Replay));
        assert_eq!(batch[2], Err(PonError::DecryptFailed));
        assert!(batch[4].is_ok());
        assert_eq!(batch[8], Err(PonError::Replay));
    }

    #[test]
    fn replays_of_an_earlier_run_are_not_opened() {
        let (mut olt, mut onu) = pair();
        let telemetry = genio_telemetry::Telemetry::enabled();
        if let Some(state) = onu.ports.get_mut(&10) {
            *state = state.clone().instrument(&telemetry);
        }
        let opened = telemetry.counter("crypto.gcm.opened_frames");
        let first: Vec<_> = (0..4u8)
            .map(|i| olt.encrypt_downstream(10, 1, &[i; 64]).unwrap())
            .collect();
        assert!(onu.decrypt_many(&first).iter().all(Result::is_ok));
        assert_eq!(opened.get(), 4);
        // Two replays of the first run around two fresh frames: only the
        // fresh frames reach the AEAD.
        let fresh: Vec<_> = (4..6u8)
            .map(|i| olt.encrypt_downstream(10, 1, &[i; 64]).unwrap())
            .collect();
        let second = vec![
            first[1].clone(),
            fresh[0].clone(),
            first[3].clone(),
            fresh[1].clone(),
        ];
        let results = onu.decrypt_many(&second);
        assert_eq!(results[0], Err(PonError::Replay));
        assert_eq!(results[2], Err(PonError::Replay));
        assert!(results[1].is_ok() && results[3].is_ok());
        assert_eq!(opened.get(), 6);
        // An in-run duplicate is above the starting mark, so it is opened
        // and then rejected by the walk, exactly as `decrypt` would.
        let dup = olt.encrypt_downstream(10, 1, b"dup").unwrap();
        let results = onu.decrypt_many(&[dup.clone(), dup]);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(PonError::Replay));
        assert_eq!(opened.get(), 8);
    }

    #[test]
    fn mixed_port_burst_matches_looped_encrypt() {
        let (mut batch_olt, _) = pair();
        let (mut loop_olt, _) = pair();
        batch_olt.establish_key(11, 2);
        loop_olt.establish_key(11, 2);
        // Port 99 is unkeyed: its items fail without aborting the burst.
        let items: Vec<(GemPort, OnuId, &[u8])> = vec![
            (10, 1, b"a"),
            (10, 1, b"bb"),
            (11, 2, b"ccc"),
            (99, 3, b"dddd"),
            (10, 1, b"eeeee"),
        ];
        let burst = batch_olt.encrypt_downstream_burst(&items);
        for ((port, target, pt), got) in items.iter().zip(burst.iter()) {
            let want = loop_olt.encrypt_downstream(*port, *target, pt);
            assert_eq!(got, &want);
        }
        assert_eq!(burst[3], Err(PonError::NoKey { port: 99 }));
    }

    #[test]
    fn burst_encrypt_unkeyed_port_errors_without_side_effects() {
        let (mut olt, _) = pair();
        let err = olt.encrypt_downstream_many(99, 1, &[b"x" as &[u8]]);
        assert_eq!(err.unwrap_err(), PonError::NoKey { port: 99 });
        let unkeyed = GemCrypto::cleartext_downstream(99, 1, 0, b"x");
        let results = olt.decrypt_many(std::slice::from_ref(&unkeyed));
        assert_eq!(results, vec![Err(PonError::NoKey { port: 99 })]);
    }
}
