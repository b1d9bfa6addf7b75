//! E-L2 — **Lesson 2**: encryption's engineering and computational cost.
//!
//! Expected shape: MACsec/GEM protection is measurably slower than the
//! plaintext path but stays within the same order of magnitude; the
//! mutual-auth handshake dominates per-session cost; certificate
//! management grows linearly with the fleet. Includes the replay-window
//! ablation called out in DESIGN.md.

use std::sync::Once;

use genio_crypto::gcm::{AesGcm, Input};
use genio_testkit::bench::{BenchmarkId, Criterion, Throughput};
use genio_bench::{gcm_round_trip, print_experiment_once};
use genio_netsec::macsec::{MacsecConfig, MacsecPeer};
use genio_netsec::onboarding::{onboard_with_ledger, DeviceClass, Enrollment};
use genio_pon::security::GemCrypto;

static PRINTED: Once = Once::new();
static GATE_PRINTED: Once = Once::new();

/// Frames per batched data-plane call (one TDMA burst).
const BURST: usize = 32;

/// Minimum-size frames per batched call in the 64-byte row: the frames of
/// one `subscriber_64` cycle in one direction (32 ONUs × 16).
const SMALL_BURST: usize = 512;
/// Payload bytes of the 64-byte row's frames.
const SMALL_FRAME: usize = 64;

/// Required speedup of the table-driven batched path over the bitwise/S-box
/// reference path, per 1500-byte seal+open. Hardware-independent ratio gate:
/// both sides are measured in the same run.
const MIN_SPEEDUP: f64 = 5.0;

fn print_table() {
    // Certificate-management ledger across a small fleet (the Lesson 2
    // operational cost).
    let mut enrollment = Enrollment::new(b"bench-fleet", (0, 1_000_000), 7).unwrap();
    let mut olt = enrollment
        .enroll("olt-1", DeviceClass::Olt, b"olt")
        .unwrap();
    let mut devices = Vec::new();
    for i in 0..8 {
        devices.push(
            enrollment
                .enroll(
                    &format!("onu-{i}"),
                    DeviceClass::Onu,
                    format!("k{i}").as_bytes(),
                )
                .unwrap(),
        );
    }
    for (i, onu) in devices.iter_mut().enumerate() {
        onboard_with_ledger(
            &mut enrollment,
            onu,
            &mut olt,
            10,
            format!("s{i}").as_bytes(),
        )
        .unwrap();
    }
    let l = enrollment.ledger;
    let body = format!(
        "certificate operations for 1 OLT + 8 ONUs, one onboarding each:\n\
         issued {}  chains validated {}  signatures {}  total {}\n\n\
         (throughput numbers follow in the bench-runner output; compare\n\
         macsec/protect vs plaintext/copy for the data-plane overhead)",
        l.issued,
        l.chains_validated,
        l.signatures,
        l.total()
    );
    print_experiment_once(
        &PRINTED,
        "E-L2 / Lesson 2 — cost of encryption and authentication",
        &body,
    );
}

fn bench(c: &mut Criterion) {
    c.experiment_id("E-L2");
    print_table();
    const FRAME: usize = 1500;
    let payload = vec![0xabu8; FRAME];

    // Plaintext baseline: what the link does without M3.
    let mut group = c.benchmark_group("lesson2/dataplane");
    group.throughput(Throughput::Bytes(FRAME as u64));
    group.bench_function("plaintext_copy", |b| {
        b.iter(|| std::hint::black_box(payload.clone()))
    });
    group.bench_function("macsec_protect", |b| {
        let cfg = MacsecConfig::default();
        let mut peer = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        b.iter(|| std::hint::black_box(peer.protect(&payload).unwrap()))
    });
    group.bench_function("macsec_roundtrip", |b| {
        let cfg = MacsecConfig::default();
        let mut tx = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        let mut rx = MacsecPeer::new(2, &cfg, b"cak").unwrap();
        b.iter(|| {
            let f = tx.protect(&payload).unwrap();
            std::hint::black_box(rx.validate(&f).unwrap())
        })
    });
    group.bench_function("gem_encrypt", |b| {
        let mut gem = GemCrypto::new(b"tree");
        gem.establish_key(1, 1);
        b.iter(|| std::hint::black_box(gem.encrypt_downstream(1, 1, &payload).unwrap()))
    });
    group.finish();

    // Batched data plane: whole TDMA bursts per call via the
    // `seal_many`/`open_many` fast path.
    let burst: Vec<&[u8]> = (0..BURST).map(|_| payload.as_slice()).collect();
    let mut group = c.benchmark_group("lesson2/dataplane_batched");
    group.throughput(Throughput::Bytes((FRAME * BURST) as u64));
    group.bench_function("gcm_seal_open_batch32", |b| {
        let gcm = AesGcm::new(&[0x42u8; 16]).unwrap();
        let inputs: Vec<Input> = (0..BURST as u64)
            .map(|i| {
                let mut nonce = [0u8; 12];
                nonce[..8].copy_from_slice(&i.to_be_bytes());
                Input {
                    nonce,
                    aad: b"hdr",
                    text: &payload,
                }
            })
            .collect();
        b.iter(|| std::hint::black_box(gcm_round_trip(&gcm, &inputs)))
    });
    // Minimum-size frames: per-frame costs (the tail CTR blocks, the tag
    // block, one GHASH chain per frame) dominate, not the byte kernels.
    let small = vec![0x5au8; SMALL_FRAME];
    group.throughput(Throughput::Bytes((SMALL_FRAME * SMALL_BURST) as u64));
    group.bench_function("gcm_seal_open_batch512x64", |b| {
        let gcm = AesGcm::new(&[0x42u8; 16]).unwrap();
        let aad = [0x17u8; 17];
        let inputs: Vec<Input> = (0..SMALL_BURST as u64)
            .map(|i| {
                let mut nonce = [0u8; 12];
                nonce[4..].copy_from_slice(&i.to_be_bytes());
                Input {
                    nonce,
                    aad: &aad,
                    text: &small,
                }
            })
            .collect();
        b.iter(|| std::hint::black_box(gcm_round_trip(&gcm, &inputs)))
    });
    group.throughput(Throughput::Bytes((FRAME * BURST) as u64));
    group.bench_function("macsec_protect_batch32", |b| {
        let cfg = MacsecConfig::default();
        let mut peer = MacsecPeer::new(1, &cfg, b"cak").unwrap();
        b.iter(|| std::hint::black_box(peer.protect_many(&burst).unwrap()))
    });
    group.bench_function("gem_encrypt_batch32", |b| {
        let mut gem = GemCrypto::new(b"tree");
        gem.establish_key(1, 1);
        b.iter(|| std::hint::black_box(gem.encrypt_downstream_many(1, 1, &burst).unwrap()))
    });
    group.finish();

    // The bitwise/S-box reference path on the same workload: the oracle the
    // fast path is differentially proven against, and the denominator of
    // the asserted speedup gate below.
    let mut group = c.benchmark_group("lesson2/dataplane_reference");
    group.throughput(Throughput::Bytes(FRAME as u64));
    group.sample_size(20);
    group.bench_function("gcm_seal_open_reference", |b| {
        let gcm = AesGcm::new(&[0x42u8; 16]).unwrap();
        let nonce = [9u8; 12];
        b.iter(|| {
            let sealed = gcm.seal_reference(&nonce, &payload, b"hdr");
            std::hint::black_box(gcm.open_reference(&nonce, &sealed, b"hdr").unwrap())
        })
    });
    group.finish();

    // Ablation: replay-window size (64 vs 0 vs 1024) on the validate path.
    let mut group = c.benchmark_group("lesson2/replay_window_ablation");
    for window in [0u64, 64, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            let cfg = MacsecConfig {
                replay_window: w,
                pn_limit: u32::MAX as u64,
            };
            let mut tx = MacsecPeer::new(1, &cfg, b"cak").unwrap();
            let mut rx = MacsecPeer::new(2, &cfg, b"cak").unwrap();
            b.iter(|| {
                let f = tx.protect(&payload).unwrap();
                std::hint::black_box(rx.validate(&f).unwrap())
            })
        });
    }
    group.finish();

    // Per-session control-plane cost: enrolment plus one full mutual-auth
    // onboarding. A fresh enrolment per iteration keeps the hash-based
    // signing keys from exhausting and matches the real per-device flow.
    let mut group = c.benchmark_group("lesson2/control_plane");
    group.sample_size(20);
    group.bench_function("enroll_and_onboard", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut enrollment = Enrollment::new(&i.to_be_bytes(), (0, 1_000_000), 4).unwrap();
            let mut onu = enrollment.enroll("onu", DeviceClass::Onu, b"onu").unwrap();
            let mut olt = enrollment.enroll("olt", DeviceClass::Olt, b"olt").unwrap();
            std::hint::black_box(
                onboard_with_ledger(&mut enrollment, &mut onu, &mut olt, 10, &i.to_be_bytes())
                    .unwrap(),
            )
        })
    });
    group.finish();

    // --- E-L2 verdict: table-driven batched path vs reference path, with
    // an asserted lower bound on the speedup. Both rows come from this run,
    // so the gate is a hardware-independent ratio.
    let median = |name: &str| {
        c.records()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    };
    let (
        Some(ref_ns),
        Some(batch_ns),
        Some(single_seal_ns),
        Some(batch_protect_ns),
        Some(small_ns),
    ) = (
        median("lesson2/dataplane_reference/gcm_seal_open_reference"),
        median("lesson2/dataplane_batched/gcm_seal_open_batch32"),
        median("lesson2/dataplane/macsec_roundtrip"),
        median("lesson2/dataplane_batched/macsec_protect_batch32"),
        median("lesson2/dataplane_batched/gcm_seal_open_batch512x64"),
    )
    else {
        // A `--filter` run can skip rows; no verdict then.
        return;
    };

    let fast_per_frame = batch_ns / BURST as f64;
    let speedup = ref_ns / fast_per_frame;
    let mut body = String::new();
    body.push_str(&format!(
        "1500-byte frames, seal+open unless noted; batch = {BURST} frames/call\n\n"
    ));
    body.push_str(&format!(
        "  {:<28} {:>14} {:>14}\n",
        "path", "per frame", "vs reference"
    ));
    for (label, ns) in [
        ("reference (bitwise/S-box)", ref_ns),
        ("fast batched (per frame)", fast_per_frame),
        ("macsec roundtrip (single)", single_seal_ns),
        ("macsec protect (batched)", batch_protect_ns / BURST as f64),
    ] {
        body.push_str(&format!(
            "  {:<28} {:>11.2} us {:>13.2}x\n",
            label,
            ns / 1e3,
            ref_ns / ns
        ));
    }
    body.push_str(&format!(
        "\n{SMALL_FRAME}-byte frames, batch = {SMALL_BURST} frames/call: \
         {:.1} ns per frame seal+open\n",
        small_ns / SMALL_BURST as f64
    ));
    body.push_str(&format!(
        "\nbatched fast-path speedup over reference: {speedup:.1}x \
         (bound >= {MIN_SPEEDUP:.1}x)\n"
    ));
    print_experiment_once(
        &GATE_PRINTED,
        "E-L2 / line-rate data plane — table-driven batched AES-GCM vs reference",
        &body,
    );

    assert!(
        speedup >= MIN_SPEEDUP,
        "E-L2 bound violated: batched fast path only {speedup:.2}x faster than the \
         reference path per 1500-byte seal+open (required >= {MIN_SPEEDUP:.1}x)"
    );
}

genio_testkit::bench_main!(bench);
