//! A TLS-1.3-shaped authenticated key exchange (mitigation **M4**).
//!
//! The paper mandates "secure key exchange protocols (e.g., TLS 1.3)" for
//! onboarding and registration. This module reproduces the 1-RTT shape of
//! TLS 1.3 over the workspace's own primitives:
//!
//! 1. `ClientHello` — client random + ephemeral DH share.
//! 2. `ServerFlight` — server random + DH share, certificate chain,
//!    `CertificateVerify` (signature over the running transcript hash) and
//!    `Finished` (HMAC under a transcript-bound key).
//! 3. `ClientFlight` — optional client certificate + `CertificateVerify`
//!    (mutual authentication), and the client `Finished`.
//!
//! Keys derive from an HKDF schedule over the DH shared secret and the
//! transcript hash, so a man-in-the-middle who substitutes DH shares cannot
//! produce a valid `CertificateVerify` without the certified private key —
//! exactly the property M4 relies on.
//!
//! Application records are protected by [`SessionKeys`]: each direction
//! is one sequenced AEAD (`genio_crypto::seq::SeqAead`), so records carry
//! strictly increasing sequence numbers and the receiving side rejects a
//! replayed or stale record with [`NetsecError::ReplayDetected`], as
//! TLS 1.3's implicit record sequence does. The single record calls
//! (`seal_client`, `open_server`, …) are bursts of one through the same
//! batched path as `seal_client_many` and friends, so sequence numbering
//! and the replay check exist once per direction.

use genio_crypto::dh::KeyPair;
use genio_crypto::drbg::HmacDrbg;
use genio_crypto::gcm::AesGcm;
use genio_crypto::hkdf;
use genio_crypto::hmac::HmacSha256;
use genio_crypto::pki::{validate_chain, Certificate, KeyUsage, RevocationList};
use genio_crypto::seq::{Received, SeqAead};
use genio_crypto::sha256::Sha256;
use genio_crypto::sig::{MerklePublicKey, MerkleSignature};

use crate::error::open_error;
use crate::onboarding::NodeIdentity;
use crate::NetsecError;

/// Handshake parameters.
#[derive(Debug, Clone, Copy)]
pub struct HandshakeConfig {
    /// Require the client to present and prove a certificate (mutual auth).
    pub require_client_auth: bool,
    /// Validation time for certificate windows.
    pub now: u64,
}

/// First flight: client random and ephemeral share.
#[derive(Debug, Clone)]
pub struct ClientHello {
    /// 32-byte client random.
    pub random: [u8; 32],
    /// Ephemeral DH public value.
    pub dh_public: u128,
}

/// Server response flight.
#[derive(Debug, Clone)]
pub struct ServerFlight {
    /// 32-byte server random.
    pub random: [u8; 32],
    /// Ephemeral DH public value.
    pub dh_public: u128,
    /// Server certificate chain, leaf first.
    pub chain: Vec<Certificate>,
    /// Signature over the transcript hash up to (and including) the chain.
    pub certificate_verify: MerkleSignature,
    /// HMAC over the transcript under the server finished key.
    pub finished: [u8; 32],
}

/// Client completion flight.
#[derive(Debug, Clone)]
pub struct ClientFlight {
    /// Client certificate chain (present under mutual auth).
    pub chain: Option<Vec<Certificate>>,
    /// Signature over the transcript (present under mutual auth).
    pub certificate_verify: Option<MerkleSignature>,
    /// HMAC over the transcript under the client finished key.
    pub finished: [u8; 32],
}

/// An AEAD-protected application record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Per-direction sequence number (nonce basis and replay handle).
    pub seq: u64,
    /// Ciphertext plus tag.
    pub body: Vec<u8>,
}

/// Directional record protection derived from a completed handshake.
///
/// Each direction is a [`SeqAead`] (`genio_crypto::seq`) built once here at
/// session setup, with its AES key schedule and 16 KiB GHASH tables, and
/// reused for every record; no per-record (or per-batch) key material is
/// ever re-derived. A record's nonce is its sequence number under a zero
/// salt, sequence numbers start at 0, and the receiving side's window
/// of 0 accepts only a sequence number above the highest it has opened,
/// so a replayed or stale record is [`NetsecError::ReplayDetected`].
/// Session setup itself is cheap because `AesGcm::new` constructs the
/// GHASH tables via the shift-based recurrence in `genio_crypto::ghash`
/// instead of 128 bitwise field multiplies.
#[derive(Debug)]
pub struct SessionKeys {
    client: SeqAead,
    server: SeqAead,
    /// Hash of the full handshake transcript (channel binding token).
    pub transcript_hash: [u8; 32],
}

impl SessionKeys {
    /// Seals a record in the client→server direction: a burst of one
    /// through [`SessionKeys::seal_client_many`].
    ///
    /// # Errors
    ///
    /// [`NetsecError::PnExhausted`] once the direction's sequence numbers
    /// are spent.
    pub fn seal_client(&mut self, plaintext: &[u8]) -> crate::Result<Record> {
        // The burst returns one record per plaintext, so `pop` finds one.
        self.seal_client_many(&[plaintext])?
            .pop()
            .ok_or(NetsecError::PnExhausted)
    }

    /// Opens a client→server record: a burst of one through
    /// [`SessionKeys::open_client_many`].
    ///
    /// # Errors
    ///
    /// * [`NetsecError::ReplayDetected`] if the record's sequence number
    ///   is not above every one opened before in this direction (a replayed
    ///   or stale record).
    /// * [`NetsecError::IntegrityFailure`] on tag mismatch.
    pub fn open_client(&mut self, record: &Record) -> crate::Result<Vec<u8>> {
        // One result per record; none would be a rejection.
        self.open_client_many(std::slice::from_ref(record))
            .pop()
            .unwrap_or(Err(NetsecError::IntegrityFailure))
    }

    /// Seals a record in the server→client direction.
    ///
    /// # Errors
    ///
    /// See [`SessionKeys::seal_client`].
    pub fn seal_server(&mut self, plaintext: &[u8]) -> crate::Result<Record> {
        self.seal_server_many(&[plaintext])?
            .pop()
            .ok_or(NetsecError::PnExhausted)
    }

    /// Opens a server→client record.
    ///
    /// # Errors
    ///
    /// See [`SessionKeys::open_client`].
    pub fn open_server(&mut self, record: &Record) -> crate::Result<Vec<u8>> {
        self.open_server_many(std::slice::from_ref(record))
            .pop()
            .unwrap_or(Err(NetsecError::IntegrityFailure))
    }

    /// Seals a burst of client→server records with one batched AEAD call.
    /// Record `i` carries the direction's next sequence number plus `i` and
    /// is byte-identical to the `i`-th sequential
    /// [`SessionKeys::seal_client`].
    ///
    /// # Errors
    ///
    /// See [`SessionKeys::seal_client`]; nothing is sealed then.
    pub fn seal_client_many(&mut self, plaintexts: &[&[u8]]) -> crate::Result<Vec<Record>> {
        seal_records(&mut self.client, plaintexts, b"c")
    }

    /// Opens a burst of client→server records, one result per record,
    /// each equal to what [`SessionKeys::open_client`] gives it in order.
    pub fn open_client_many(&mut self, records: &[Record]) -> Vec<crate::Result<Vec<u8>>> {
        open_records(&mut self.client, records, b"c")
    }

    /// Seals a burst of server→client records with one batched AEAD call.
    ///
    /// # Errors
    ///
    /// See [`SessionKeys::seal_client_many`].
    pub fn seal_server_many(&mut self, plaintexts: &[&[u8]]) -> crate::Result<Vec<Record>> {
        seal_records(&mut self.server, plaintexts, b"s")
    }

    /// Opens a burst of server→client records, one result per record.
    pub fn open_server_many(&mut self, records: &[Record]) -> Vec<crate::Result<Vec<u8>>> {
        open_records(&mut self.server, records, b"s")
    }
}

/// Seals `plaintexts` as the next records of one direction, bound to the
/// direction label `aad`.
fn seal_records(
    direction: &mut SeqAead,
    plaintexts: &[&[u8]],
    aad: &'static [u8],
) -> crate::Result<Vec<Record>> {
    let sealed = direction
        .seal_many(plaintexts, |_| aad)
        .map_err(|_| NetsecError::PnExhausted)?;
    Ok(sealed.map(|(seq, body)| Record { seq, body }).collect())
}

/// Opens records of one direction through its run walk.
fn open_records(
    direction: &mut SeqAead,
    records: &[Record],
    aad: &'static [u8],
) -> Vec<crate::Result<Vec<u8>>> {
    let received: Vec<Received> = records
        .iter()
        .map(|r| Received {
            seq: r.seq,
            aad,
            text: &r.body,
        })
        .collect();
    direction
        .open_many(&received)
        .into_iter()
        .map(|r| r.map_err(open_error))
        .collect()
}

fn hash_hello(t: &mut Sha256, random: &[u8; 32], dh_public: u128) {
    t.update(random);
    t.update(&dh_public.to_be_bytes());
}

fn hash_chain(t: &mut Sha256, chain: &[Certificate]) {
    for cert in chain {
        t.update(&cert.tbs.encode());
    }
}

#[derive(Debug, Clone)]
struct KeySchedule {
    master: [u8; 32],
}

impl KeySchedule {
    fn from_shared(shared: &[u8; 16]) -> Self {
        let hs = hkdf::extract(b"genio-tls13", shared);
        KeySchedule {
            master: hkdf::extract(&hs, b"derived"),
        }
    }

    fn finished_key(&self, label: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        hkdf::expand(&self.master, label.as_bytes(), &mut out);
        out
    }

    fn traffic_key(&self, label: &str, transcript: &[u8; 32]) -> [u8; 16] {
        let mut info = Vec::with_capacity(label.len() + 32);
        info.extend_from_slice(label.as_bytes());
        info.extend_from_slice(transcript);
        let mut out = [0u8; 16];
        hkdf::expand(&self.master, &info, &mut out);
        out
    }

    fn session_keys(&self, transcript: [u8; 32]) -> crate::Result<SessionKeys> {
        let ck = self.traffic_key("c ap traffic", &transcript);
        let sk = self.traffic_key("s ap traffic", &transcript);
        let direction = |key: &[u8; 16]| -> crate::Result<SeqAead> {
            Ok(SeqAead::new(AesGcm::new(key)?, [0; 4], 0..u64::MAX, 0))
        };
        Ok(SessionKeys {
            client: direction(&ck)?,
            server: direction(&sk)?,
            transcript_hash: transcript,
        })
    }
}

/// Client-side handshake state between `start` and `finish`.
#[derive(Debug)]
pub struct ClientSession {
    keypair: KeyPair,
    transcript: Sha256,
}

impl ClientSession {
    /// Generates the client's ephemeral share and opening flight.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` reserved for RNG failure modes.
    pub fn start(_config: &HandshakeConfig, seed: &[u8]) -> crate::Result<(ClientHello, Self)> {
        let mut rng = HmacDrbg::new(seed);
        rng.reseed(b"client");
        let keypair = KeyPair::generate(&mut rng);
        let mut random = [0u8; 32];
        rng.fill(&mut random);
        let hello = ClientHello {
            random,
            dh_public: keypair.public(),
        };
        let mut transcript = Sha256::new();
        hash_hello(&mut transcript, &hello.random, hello.dh_public);
        Ok((
            hello,
            ClientSession {
                keypair,
                transcript,
            },
        ))
    }

    /// Processes the server flight, authenticates the server, and (under
    /// mutual auth) proves the client identity.
    ///
    /// # Errors
    ///
    /// * [`NetsecError::Crypto`] wrapping certificate-validation failures.
    /// * [`NetsecError::PeerAuthentication`] if `CertificateVerify` fails or
    ///   the server key lacks `ServerAuth`.
    /// * [`NetsecError::TranscriptMismatch`] if `Finished` does not verify.
    pub fn finish(
        mut self,
        config: &HandshakeConfig,
        flight: &ServerFlight,
        identity: Option<&mut NodeIdentity>,
        trust_anchors: &[MerklePublicKey],
        crl: &RevocationList,
    ) -> crate::Result<(ClientFlight, SessionKeys)> {
        hash_hello(&mut self.transcript, &flight.random, flight.dh_public);
        hash_chain(&mut self.transcript, &flight.chain);

        validate_chain(&flight.chain, trust_anchors, crl, config.now)?;
        let leaf = &flight.chain[0];
        if !leaf.allows(KeyUsage::ServerAuth) {
            return Err(NetsecError::PeerAuthentication(
                "server key lacks ServerAuth",
            ));
        }
        let transcript_at_cv = self.transcript.clone().finalize();
        if !flight
            .certificate_verify
            .verify(&transcript_at_cv, &leaf.tbs.public_key)
        {
            return Err(NetsecError::PeerAuthentication("certificate verify failed"));
        }
        self.transcript
            .update(&flight.certificate_verify.to_bytes());

        let shared = self.keypair.shared_secret(flight.dh_public)?;
        let schedule = KeySchedule::from_shared(&shared);

        let transcript_at_sf = self.transcript.clone().finalize();
        let expected = HmacSha256::mac(&schedule.finished_key("s finished"), &transcript_at_sf);
        if !genio_crypto::ct::eq(&expected, &flight.finished) {
            return Err(NetsecError::TranscriptMismatch);
        }
        self.transcript.update(&flight.finished);

        // Client authentication.
        let (chain, certificate_verify) = match (config.require_client_auth, identity) {
            (true, Some(id)) => {
                hash_chain(&mut self.transcript, &id.chain);
                let t = self.transcript.clone().finalize();
                let sig = id.signer.sign(&t)?;
                self.transcript.update(&sig.to_bytes());
                (Some(id.chain.clone()), Some(sig))
            }
            (true, None) => {
                return Err(NetsecError::PeerAuthentication(
                    "client certificate required",
                ))
            }
            (false, _) => (None, None),
        };

        let transcript_at_cf = self.transcript.clone().finalize();
        let finished = HmacSha256::mac(&schedule.finished_key("c finished"), &transcript_at_cf);
        self.transcript.update(&finished);

        let final_transcript = self.transcript.finalize();
        let keys = schedule.session_keys(final_transcript)?;
        Ok((
            ClientFlight {
                chain,
                certificate_verify,
                finished,
            },
            keys,
        ))
    }
}

/// Server-side handshake state between `respond` and `finish`.
#[derive(Debug)]
pub struct ServerSession {
    schedule: KeySchedule,
    transcript: Sha256,
}

impl ServerSession {
    /// Produces the server flight in response to a `ClientHello`.
    ///
    /// # Errors
    ///
    /// * [`NetsecError::Crypto`] on invalid client DH values or signer
    ///   exhaustion.
    pub fn respond(
        _config: &HandshakeConfig,
        hello: &ClientHello,
        identity: &mut NodeIdentity,
        seed: &[u8],
    ) -> crate::Result<(ServerFlight, Self)> {
        let mut rng = HmacDrbg::new(seed);
        rng.reseed(b"server");
        let keypair = KeyPair::generate(&mut rng);
        let mut random = [0u8; 32];
        rng.fill(&mut random);

        let mut transcript = Sha256::new();
        hash_hello(&mut transcript, &hello.random, hello.dh_public);
        hash_hello(&mut transcript, &random, keypair.public());
        hash_chain(&mut transcript, &identity.chain);

        let transcript_at_cv = transcript.clone().finalize();
        let certificate_verify = identity.signer.sign(&transcript_at_cv)?;
        transcript.update(&certificate_verify.to_bytes());

        let shared = keypair.shared_secret(hello.dh_public)?;
        let schedule = KeySchedule::from_shared(&shared);

        let transcript_at_sf = transcript.clone().finalize();
        let finished = HmacSha256::mac(&schedule.finished_key("s finished"), &transcript_at_sf);
        transcript.update(&finished);

        let flight = ServerFlight {
            random,
            dh_public: keypair.public(),
            chain: identity.chain.clone(),
            certificate_verify,
            finished,
        };
        Ok((
            flight,
            ServerSession {
                schedule,
                transcript,
            },
        ))
    }

    /// Processes the client flight and derives the session keys.
    ///
    /// # Errors
    ///
    /// * [`NetsecError::PeerAuthentication`] under mutual auth when the
    ///   client chain or proof is missing/invalid.
    /// * [`NetsecError::TranscriptMismatch`] if the client `Finished` fails.
    pub fn finish(
        mut self,
        config: &HandshakeConfig,
        flight: &ClientFlight,
        trust_anchors: &[MerklePublicKey],
        crl: &RevocationList,
    ) -> crate::Result<SessionKeys> {
        if config.require_client_auth {
            let chain = flight
                .chain
                .as_ref()
                .ok_or(NetsecError::PeerAuthentication("client chain missing"))?;
            let cv = flight
                .certificate_verify
                .as_ref()
                .ok_or(NetsecError::PeerAuthentication("client proof missing"))?;
            validate_chain(chain, trust_anchors, crl, config.now)?;
            let leaf = &chain[0];
            if !leaf.allows(KeyUsage::ClientAuth) {
                return Err(NetsecError::PeerAuthentication(
                    "client key lacks ClientAuth",
                ));
            }
            hash_chain(&mut self.transcript, chain);
            let t = self.transcript.clone().finalize();
            if !cv.verify(&t, &leaf.tbs.public_key) {
                return Err(NetsecError::PeerAuthentication(
                    "client certificate verify failed",
                ));
            }
            self.transcript.update(&cv.to_bytes());
        }

        let transcript_at_cf = self.transcript.clone().finalize();
        let expected =
            HmacSha256::mac(&self.schedule.finished_key("c finished"), &transcript_at_cf);
        if !genio_crypto::ct::eq(&expected, &flight.finished) {
            return Err(NetsecError::TranscriptMismatch);
        }
        self.transcript.update(&flight.finished);

        let final_transcript = self.transcript.finalize();
        self.schedule.session_keys(final_transcript)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onboarding::{DeviceClass, Enrollment};

    fn fleet() -> (Enrollment, NodeIdentity, NodeIdentity) {
        let mut e = Enrollment::new(b"hs-fleet", (0, 1_000_000), 6).unwrap();
        let client = e
            .enroll("onu-client", DeviceClass::Onu, b"client-key")
            .unwrap();
        let server = e
            .enroll("olt-server", DeviceClass::Olt, b"server-key")
            .unwrap();
        (e, client, server)
    }

    fn run(
        config: &HandshakeConfig,
        client_id: Option<&mut NodeIdentity>,
        server_id: &mut NodeIdentity,
        anchors: &[MerklePublicKey],
        crl: &RevocationList,
    ) -> crate::Result<(SessionKeys, SessionKeys)> {
        let (hello, client) = ClientSession::start(config, b"seed-c")?;
        let (flight, server) = ServerSession::respond(config, &hello, server_id, b"seed-s")?;
        let (cf, ck) = client.finish(config, &flight, client_id, anchors, crl)?;
        let sk = server.finish(config, &cf, anchors, crl)?;
        Ok((ck, sk))
    }

    #[test]
    fn server_only_handshake_succeeds() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let (mut ck, mut sk) = run(&cfg, None, &mut server, &[e.trust_anchor()], e.crl()).unwrap();
        let rec = ck.seal_client(b"ping").unwrap();
        assert_eq!(sk.open_client(&rec).unwrap(), b"ping");
        let rec = sk.seal_server(b"pong").unwrap();
        assert_eq!(ck.open_server(&rec).unwrap(), b"pong");
        assert_eq!(ck.transcript_hash, sk.transcript_hash);
    }

    #[test]
    fn mutual_handshake_succeeds() {
        let (e, mut client, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: true,
            now: 10,
        };
        let (mut ck, mut sk) = run(
            &cfg,
            Some(&mut client),
            &mut server,
            &[e.trust_anchor()],
            e.crl(),
        )
        .unwrap();
        let rec = ck.seal_client(b"authenticated").unwrap();
        assert_eq!(sk.open_client(&rec).unwrap(), b"authenticated");
    }

    #[test]
    fn missing_client_cert_rejected_under_mutual_auth() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: true,
            now: 10,
        };
        let err = run(&cfg, None, &mut server, &[e.trust_anchor()], e.crl());
        assert!(matches!(err, Err(NetsecError::PeerAuthentication(_))));
    }

    #[test]
    fn untrusted_server_rejected() {
        let (e, _, _) = fleet();
        let mut rogue_fleet = Enrollment::new(b"rogue", (0, 1_000_000), 5).unwrap();
        let mut rogue = rogue_fleet
            .enroll("rogue-olt", DeviceClass::Olt, b"rk")
            .unwrap();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let err = run(&cfg, None, &mut rogue, &[e.trust_anchor()], e.crl());
        assert!(err.is_err());
    }

    #[test]
    fn onu_cert_cannot_act_as_server() {
        // Key-usage enforcement: a ClientAuth-only leaf must be rejected in
        // the server role even though its chain is valid.
        let (e, mut client, _) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let err = run(&cfg, None, &mut client, &[e.trust_anchor()], e.crl());
        assert!(matches!(err, Err(NetsecError::PeerAuthentication(_))));
    }

    #[test]
    fn mitm_dh_substitution_detected() {
        // Attacker replaces the server DH share in flight. The Finished MAC
        // (keyed from the DH secret) no longer verifies on the client.
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let (hello, client) = ClientSession::start(&cfg, b"seed-c").unwrap();
        let (mut flight, _server_state) =
            ServerSession::respond(&cfg, &hello, &mut server, b"seed-s").unwrap();
        let mut rng = HmacDrbg::new(b"attacker");
        let attacker = KeyPair::generate(&mut rng);
        flight.dh_public = attacker.public();
        let err = client.finish(&cfg, &flight, None, &[e.trust_anchor()], e.crl());
        assert!(err.is_err(), "substituted share must break the handshake");
    }

    #[test]
    fn tampered_finished_detected() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let (hello, client) = ClientSession::start(&cfg, b"seed-c").unwrap();
        let (mut flight, _) = ServerSession::respond(&cfg, &hello, &mut server, b"seed-s").unwrap();
        flight.finished[0] ^= 1;
        let err = client.finish(&cfg, &flight, None, &[e.trust_anchor()], e.crl());
        assert_eq!(err.unwrap_err(), NetsecError::TranscriptMismatch);
    }

    #[test]
    fn record_tampering_detected() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let (mut ck, mut sk) = run(&cfg, None, &mut server, &[e.trust_anchor()], e.crl()).unwrap();
        let mut rec = ck.seal_client(b"data").unwrap();
        rec.body[0] ^= 1;
        assert_eq!(sk.open_client(&rec), Err(NetsecError::IntegrityFailure));
    }

    #[test]
    fn directions_use_distinct_keys() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let (mut ck, mut sk) = run(&cfg, None, &mut server, &[e.trust_anchor()], e.crl()).unwrap();
        let rec = ck.seal_client(b"msg").unwrap();
        // A client record must not open as a server record.
        assert!(sk.open_server(&rec).is_err());
    }

    #[test]
    fn server_cert_cannot_act_as_client() {
        // Mutual auth with the roles swapped on the client side: an OLT
        // (ServerAuth-only) identity presented as the client must be
        // rejected by the server's usage check.
        let mut e = Enrollment::new(b"hs-fleet-2", (0, 1_000_000), 6).unwrap();
        let mut olt_as_client = e.enroll("olt-a", DeviceClass::Olt, b"ka").unwrap();
        let mut olt_server = e.enroll("olt-b", DeviceClass::Olt, b"kb").unwrap();
        let cfg = HandshakeConfig {
            require_client_auth: true,
            now: 10,
        };
        let err = run(
            &cfg,
            Some(&mut olt_as_client),
            &mut olt_server,
            &[e.trust_anchor()],
            e.crl(),
        );
        assert!(matches!(err, Err(NetsecError::PeerAuthentication(_))));
    }

    #[test]
    fn expired_server_cert_rejected() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 2_000_000,
        };
        let err = run(&cfg, None, &mut server, &[e.trust_anchor()], e.crl());
        assert!(err.is_err());
    }

    #[test]
    fn batched_records_match_sequential_records() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        // Two independent sessions from the same handshake inputs would have
        // different DH secrets, so compare batched vs sequential *within* one
        // session pair: seal a burst on the client pair, replay the same
        // plaintexts sequentially on the server pair of a fresh handshake and
        // check self-consistency instead of cross-session bytes.
        let (mut ck, mut sk) = run(&cfg, None, &mut server, &[e.trust_anchor()], e.crl()).unwrap();
        let payloads: Vec<Vec<u8>> = (0..9u8)
            .map(|i| vec![i; 3 + usize::from(i) * 17])
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();

        // Client burst, opened as a burst on the server side.
        let recs = ck.seal_client_many(&refs).unwrap();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        let opened = sk.open_client_many(&recs);
        for (got, want) in opened.iter().zip(payloads.iter()) {
            assert_eq!(got.as_ref().unwrap(), want);
        }

        // A batched record must be indistinguishable from a sequential one:
        // the next sequential seal continues the sequence and still opens.
        let rec = ck.seal_client(b"after burst").unwrap();
        assert_eq!(rec.seq, 9);
        assert_eq!(sk.open_client(&rec).unwrap(), b"after burst");

        // Server direction, batch sealed and sequentially opened.
        let srecs = sk.seal_server_many(&refs).unwrap();
        for (r, want) in srecs.iter().zip(payloads.iter()) {
            assert_eq!(&ck.open_server(r).unwrap(), want);
        }
    }

    #[test]
    fn replayed_record_is_rejected() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let (mut ck, mut sk) = run(&cfg, None, &mut server, &[e.trust_anchor()], e.crl()).unwrap();
        // Client to server, one record at a time: a record opened twice,
        // and an older record opened after a newer one.
        let old = ck.seal_client(b"old").unwrap();
        let new = ck.seal_client(b"new").unwrap();
        assert_eq!(sk.open_client(&old).unwrap(), b"old");
        assert_eq!(
            sk.open_client(&old),
            Err(NetsecError::ReplayDetected { pn: old.seq })
        );
        assert_eq!(sk.open_client(&new).unwrap(), b"new");
        assert_eq!(
            sk.open_client(&old),
            Err(NetsecError::ReplayDetected { pn: old.seq })
        );
        // Server to client, through the batched open: a duplicate in the
        // burst, a stale record after a newer one, and a replay of an
        // earlier burst.
        let recs = sk.seal_server_many(&[b"a", b"b", b"c"]).unwrap();
        let burst = [
            recs[0].clone(),
            recs[0].clone(),
            recs[2].clone(),
            recs[1].clone(),
        ];
        assert_eq!(
            ck.open_server_many(&burst),
            vec![
                Ok(b"a".to_vec()),
                Err(NetsecError::ReplayDetected { pn: recs[0].seq }),
                Ok(b"c".to_vec()),
                Err(NetsecError::ReplayDetected { pn: recs[1].seq }),
            ]
        );
        assert_eq!(
            ck.open_server_many(&recs[2..]),
            vec![Err(NetsecError::ReplayDetected { pn: recs[2].seq })]
        );
        // The client direction rejects the same way through its batch.
        assert_eq!(
            sk.open_client_many(&[new.clone(), old]),
            vec![
                Err(NetsecError::ReplayDetected { pn: new.seq }),
                Err(NetsecError::ReplayDetected { pn: 0 }),
            ]
        );
    }

    #[test]
    fn batched_open_reports_per_record_tampering() {
        let (e, _, mut server) = fleet();
        let cfg = HandshakeConfig {
            require_client_auth: false,
            now: 10,
        };
        let (mut ck, mut sk) = run(&cfg, None, &mut server, &[e.trust_anchor()], e.crl()).unwrap();
        let payloads: [&[u8]; 4] = [b"a", b"bb", b"ccc", b"dddd"];
        let mut recs = ck.seal_client_many(&payloads).unwrap();
        recs[2].body[0] ^= 0x80;
        let opened = sk.open_client_many(&recs);
        assert_eq!(opened.len(), 4);
        for (i, r) in opened.iter().enumerate() {
            if i == 2 {
                assert!(matches!(r, Err(NetsecError::IntegrityFailure)));
            } else {
                assert_eq!(r.as_ref().unwrap(), payloads[i]);
            }
        }
    }
}
