//! `join_storm`: ONUs re-joining after an outage, one session per unit.
//!
//! A session is the mutual-auth handshake under the current CRL, PON
//! activation through a certificate-checking admission policy, GEM key
//! set-up on both ends, and the first secured frame sealed and opened.
//! Each episode enrols a fresh tree (set-up, not timed): a CA, the ONUs,
//! and the OLT identities it signs with in turn. ONU 0 is revoked
//! half-way and must be refused from then on.

use genio_crypto::{CertError, CryptoError};
use genio_netsec::handshake::{ClientSession, HandshakeConfig, ServerSession};
use genio_netsec::onboarding::{validate_device_chain, DeviceClass, Enrollment, NodeIdentity};
use genio_netsec::NetsecError;
use genio_pon::activation::{ActivationController, CertificateAdmission};
use genio_pon::frame::GemPort;
use genio_pon::security::GemCrypto;
use genio_pon::topology::{OnuId, PonTree};
use genio_pon::PonError;

use crate::run::{alternate, Outcome, Pacer, Plan};
use crate::spans::{Recorder, Unit};
use crate::stats::{Digest, Rng};

/// Size of one episode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// ONUs on the tree.
    pub onus: usize,
    /// Times every ONU re-joins.
    pub rounds: usize,
    /// Rounds served by one OLT identity before the next takes over.
    pub olt_rounds: usize,
    /// ONU 0 is revoked before this round.
    pub revoke_before: usize,
    /// Height of the episode CA's Merkle key (`2^h - 1` certificates).
    pub ca_height: u32,
}

/// The measured episode: 4 ONUs × 64 rounds, 4 OLT identities in turn.
pub const FULL: Shape = Shape {
    onus: 4,
    rounds: 64,
    olt_rounds: 16,
    revoke_before: 32,
    ca_height: 4,
};

/// The smoke episode.
pub const SMOKE: Shape = Shape {
    onus: 2,
    rounds: 4,
    olt_rounds: 2,
    revoke_before: 2,
    ca_height: 3,
};

impl Shape {
    fn olts(self) -> usize {
        self.rounds.div_ceil(self.olt_rounds.max(1))
    }

    /// Every identity signs at most once per session it takes part in,
    /// so no signer may serve more sessions than it has one-time keys.
    fn fits(self) -> bool {
        self.rounds <= SIGNER_CAPACITY
            && self.onus * self.olt_rounds <= SIGNER_CAPACITY
            && self.onus + self.olts() < 1 << self.ca_height
    }

    /// Sessions in one episode.
    pub fn sessions(self) -> usize {
        self.onus * self.rounds
    }
}

/// One-time signatures of an identity from `Enrollment::enroll`
/// (a height-6 Merkle key).
const SIGNER_CAPACITY: usize = 64;
const VALIDITY: (u64, u64) = (0, 1_000_000);
const NOW: u64 = 500;
const FRAME: usize = 256;
const PORT_BASE: GemPort = 2048;

/// Separates the input streams of episodes, so no episode of one seed
/// repeats an episode of another.
fn episode_tag(tag: u64, e: u64) -> u64 {
    tag ^ e.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A freshly enrolled tree: its CA, ONUs and activation state.
struct Episode {
    ca: Enrollment,
    onus: Vec<NodeIdentity>,
    ids: Vec<OnuId>,
    evidence: Vec<Vec<u8>>,
    pon: PonTree,
    controller: ActivationController,
}

/// Enrols episode `e`: the tree, and the OLT identities it signs with in
/// turn.
fn enroll_episode(seed: u64, e: u64, shape: Shape) -> Result<(Episode, Vec<NodeIdentity>), String> {
    if !shape.fits() {
        return Err(format!(
            "episode shape {shape:?} exceeds a signer's capacity"
        ));
    }
    let mut rng = Rng::new(seed, episode_tag(0x454e_524f, e));
    let mut ca = Enrollment::new(&rng.bytes(32), VALIDITY, shape.ca_height)
        .map_err(|err| err.to_string())?;
    let tree = format!("olt-{e}");
    let olts = (0..shape.olts())
        .map(|k| ca.enroll(&format!("{tree}-key{k}"), DeviceClass::Olt, &rng.bytes(32)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| err.to_string())?;
    let mut pon = PonTree::builder(&tree).split_ratio(shape.onus).build();
    let mut onus = Vec::with_capacity(shape.onus);
    let mut ids = Vec::with_capacity(shape.onus);
    for o in 0..shape.onus {
        let name = format!("onu-{e}-{o}");
        onus.push(
            ca.enroll(&name, DeviceClass::Onu, &rng.bytes(32))
                .map_err(|err| err.to_string())?,
        );
        let fiber_m = 500 + rng.below(19_000) as u32;
        ids.push(
            pon.attach_onu(&name, fiber_m)
                .map_err(|err| err.to_string())?,
        );
    }
    let evidence = onus.iter().map(leaf_evidence).collect();
    let controller = admission(&ca, &onus);
    let episode = Episode {
        ca,
        onus,
        ids,
        evidence,
        pon,
        controller,
    };
    Ok((episode, olts))
}

/// The bytes an ONU announces as certificate evidence: its encoded leaf.
fn leaf_evidence(identity: &NodeIdentity) -> Vec<u8> {
    identity
        .chain
        .first()
        .map(|leaf| leaf.tbs.encode())
        .unwrap_or_default()
}

/// The OLT's activation controller under M4 admission: the evidence must
/// be the ONU's enrolled leaf, and its chain must validate under `ca`'s
/// CRL as it stands now. The OLT installs a new controller whenever the
/// CRL changes.
fn admission(ca: &Enrollment, onus: &[NodeIdentity]) -> ActivationController {
    let anchor = ca.trust_anchor();
    let crl = ca.crl().clone();
    let known: Vec<_> = onus
        .iter()
        .map(|id| (id.name.clone(), leaf_evidence(id), id.chain.clone()))
        .collect();
    let policy = CertificateAdmission::new(move |serial: &str, evidence: &[u8]| {
        known.iter().any(|(name, leaf, chain)| {
            name == serial
                && leaf.as_slice() == evidence
                && validate_device_chain(chain, &anchor, &crl, NOW).is_ok()
        })
    });
    ActivationController::new(Box::new(policy))
}

/// Why a session did not complete.
#[derive(Debug)]
enum Refusal {
    Netsec(NetsecError),
    Pon(PonError),
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::Netsec(e) => write!(f, "{e}"),
            Refusal::Pon(e) => write!(f, "{e}"),
        }
    }
}

/// What a completed session produced.
struct Joined {
    id: OnuId,
    transcripts_match: bool,
    delivered: bool,
    transcript: [u8; 32],
    frame_tag: Vec<u8>,
}

/// Per-session inputs, drawn before the session's clock starts.
struct SessionInputs {
    client_seed: Vec<u8>,
    server_seed: Vec<u8>,
    payload: Vec<u8>,
}

fn session(
    rec: &mut Recorder,
    unit: &Unit,
    ep: &mut Episode,
    olt: &mut NodeIdentity,
    o: usize,
    inputs: &SessionInputs,
) -> Result<Joined, Refusal> {
    let config = HandshakeConfig {
        require_client_auth: true,
        now: NOW,
    };
    let anchors = [ep.ca.trust_anchor()];
    let crl = ep.ca.crl();
    let (hello, client) = rec
        .call(unit, "netsec.handshake.client_start", || {
            ClientSession::start(&config, &inputs.client_seed)
        })
        .map_err(Refusal::Netsec)?;
    let (flight, server) = rec
        .call(unit, "netsec.handshake.server_respond", || {
            ServerSession::respond(&config, &hello, olt, &inputs.server_seed)
        })
        .map_err(Refusal::Netsec)?;
    let onu = ep.onus.get_mut(o);
    let (client_flight, device_keys) = rec
        .call(unit, "netsec.handshake.client_finish", || {
            client.finish(&config, &flight, onu, &anchors, crl)
        })
        .map_err(Refusal::Netsec)?;
    let infra_keys = rec
        .call(unit, "netsec.handshake.server_finish", || {
            server.finish(&config, &client_flight, &anchors, crl)
        })
        .map_err(Refusal::Netsec)?;

    let serial = ep
        .onus
        .get(o)
        .map(|id| id.name.as_str())
        .unwrap_or_default();
    let evidence = ep.evidence.get(o).map(Vec::as_slice).unwrap_or_default();
    let (controller, pon) = (&mut ep.controller, &mut ep.pon);
    let id = rec
        .call(unit, "pon.activation", || {
            controller.activate(pon, serial, Some(evidence))
        })
        .map_err(Refusal::Pon)?;

    let port = PORT_BASE + o as GemPort;
    let mut olt_gem = rec.call(unit, "pon.gem.establish_key", || {
        let mut gem = GemCrypto::new(&infra_keys.transcript_hash);
        gem.establish_key(port, id);
        gem
    });
    let mut onu_gem = rec.call(unit, "pon.gem.establish_key", || {
        let mut gem = GemCrypto::new(&device_keys.transcript_hash);
        gem.establish_key(port, id);
        gem
    });
    let frame = rec
        .call(unit, "pon.gem.seal", || {
            olt_gem.encrypt_downstream(port, id, &inputs.payload)
        })
        .map_err(Refusal::Pon)?;
    let opened = rec
        .call(unit, "pon.gem.open", || onu_gem.decrypt(&frame))
        .map_err(Refusal::Pon)?;
    Ok(Joined {
        id,
        transcripts_match: device_keys.transcript_hash == infra_keys.transcript_hash,
        delivered: opened == inputs.payload,
        transcript: device_keys.transcript_hash,
        frame_tag: frame.payload,
    })
}

/// Runs `join_storm` on one replica per recorder.
pub fn run(seed: u64, plan: &Plan, recs: &mut [Recorder]) -> Result<Vec<Outcome>, String> {
    let shape = if plan.smoke { SMOKE } else { FULL };
    let mut outs: Vec<Outcome> = recs.iter().map(|_| Outcome::default()).collect();
    let mut pacer = Pacer::start(plan, shape.sessions());
    let mut e = 0u64;
    while pacer.more(&outs) {
        let mut episodes = Vec::with_capacity(recs.len());
        for (rec, out) in recs.iter().zip(outs.iter_mut()) {
            let t0 = rec.now_ns();
            episodes.push(enroll_episode(seed, e, shape)?);
            let setup = rec.now_ns().saturating_sub(t0);
            out.setup_ns.push(setup);
            pacer.pause(setup);
        }
        let mut rng = Rng::new(seed, episode_tag(0x5345_5353, e));
        for round in 0..shape.rounds {
            if round == shape.revoke_before {
                for (episode, _) in episodes.iter_mut() {
                    if let Some(onu) = episode.onus.first() {
                        episode.ca.revoke(onu);
                    }
                    episode.controller = admission(&episode.ca, &episode.onus);
                }
            }
            for o in 0..shape.onus {
                let inputs = SessionInputs {
                    client_seed: rng.bytes(16),
                    server_seed: rng.bytes(16),
                    payload: rng.bytes(FRAME),
                };
                let revoked = o == 0 && round >= shape.revoke_before;
                let warm = pacer.is_warmup(&outs);
                let k = outs.first().map_or(0, |o| o.units);
                let replicas = recs
                    .iter_mut()
                    .zip(outs.iter_mut())
                    .zip(episodes.iter_mut());
                for ((rec, out), (episode, olts)) in alternate(k, replicas) {
                    let Some(olt) = olts.get_mut(round / shape.olt_rounds) else {
                        return Err(format!("no OLT identity left for round {round}"));
                    };
                    let unit = rec.begin("bench.session");
                    let result = session(rec, &unit, episode, olt, o, &inputs);
                    let dur = rec.end(unit, !warm);
                    out.unit(warm, dur);
                    let id = episode.ids.get(o).copied();
                    check(out, result, revoked, id, warm, dur);
                }
            }
        }
        e += 1;
    }
    Ok(outs)
}

fn check(
    out: &mut Outcome,
    result: Result<Joined, Refusal>,
    revoked: bool,
    id: Option<OnuId>,
    warm: bool,
    dur_ns: u64,
) {
    let mut digest = Digest::default();
    match (result, revoked) {
        (Ok(joined), false) => {
            out.attempted += 1;
            if joined.transcripts_match && joined.delivered && Some(joined.id) == id {
                digest.bytes(&joined.transcript);
                digest.tail(&joined.frame_tag);
                if !warm {
                    out.items += 1;
                    out.samples_ns.push(dur_ns);
                }
            } else {
                out.wrong(format!(
                    "session for onu {id:?} produced wrong keys or frame"
                ));
            }
        }
        (Ok(_), true) => out.wrong(format!("revoked onu {id:?} was admitted")),
        (
            Err(Refusal::Netsec(NetsecError::Crypto(CryptoError::CertificateInvalid(
                CertError::Revoked,
            )))),
            true,
        ) => {
            digest.word(u64::MAX);
            out.count("netsec.handshake.refused", 1);
        }
        (Err(err), true) => out.wrong(format!("revoked onu {id:?} refused for {err}")),
        (Err(_), false) => {
            out.attempted += 1;
            out.failed += 1;
        }
    }
    out.digest.word(digest.0);
}
