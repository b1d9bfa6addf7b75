#!/usr/bin/env bash
# Hermetic verification gate for the GENIO workspace. No network, no
# external tools beyond cargo and a POSIX shell.
#
#   scripts/verify.sh           build + tests + examples smoke + the
#                               genio-analyzer ratchet gate (new static-
#                               analysis findings vs analyzer-baseline.json
#                               fail the build, and so do baseline entries
#                               the scan no longer finds) + the traffic-
#                               fault properties (GEM, MACsec, sequenced
#                               AEAD), the signature properties, the
#                               AES-GCM kernel's differential
#                               properties, the fleet-engine differential
#                               tests and the telemetry properties under
#                               seeds 1-64 + the genio-perf smoke digests
#                               (scripts/genio-perf-digests.txt)
#   scripts/verify.sh --quick   the above, then a quick bench pass that
#                               merges one experiment report per bench
#                               target under crates/bench/benches/ into a
#                               candidate document, gates it through
#                               genio-sentinel against the committed
#                               BENCH_genio.json (anchored hot paths
#                               hard-fail on >25% median regressions
#                               beyond the noise band), and promotes it
#                               to BENCH_genio.json at the repo root
#
# A reproducing seed for any property failure is printed by the harness;
# re-run with GENIO_TEST_SEED=0x... to replay it.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "usage: scripts/verify.sh [--quick]" >&2; exit 2 ;;
    esac
done

echo "==> cargo build --release"
cargo build --release

# Determinism under load: the release trace_properties binary, built
# once and called directly, runs under seeds 1-64 in 4 concurrent
# background lanes, once beside the workspace tests and once beside the
# same-seed fleet and trace cmp pairs. Everything those steps run is
# built first, so the load meets the tests and the pairs themselves, not
# their compilation. Each lane repeats its 16 seeds until the step it
# covers has returned (a stop file, checked between passes), then prints
# its pass count; a failed seed fails its lane, and a failed lane fails
# the gate.
echo "==> determinism-under-load gate (trace properties under 64 seeds in 4 concurrent lanes)"
trace_properties=$(cargo test --release -q -p genio-pon --test trace_properties --no-run \
    --message-format=json | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p')
[ -x "$trace_properties" ] || { echo "trace_properties test binary not found" >&2; exit 1; }
cargo test --workspace -q --no-run
cargo build --release -q --example fleet_determinism --example trace_determinism
stop_file=target/trace-load.stop
loop_pids=()
trap 'kill "${loop_pids[@]}" 2>/dev/null || true' EXIT
start_trace_load() {
    rm -f "$stop_file"
    for lane in 1 2 3 4; do
        (
            passes=0
            until [ -e "$stop_file" ]; do
                for seed in $(seq "$lane" 4 64); do
                    GENIO_TEST_SEED=$seed "$trace_properties" -q >/dev/null ||
                        { echo "trace_properties failed under GENIO_TEST_SEED=$seed" >&2; exit 1; }
                done
                passes=$((passes + 1))
            done
            echo "trace load lane $lane: $passes pass(es) of its 16 seeds"
        ) &
        loop_pids+=("$!")
    done
}
stop_trace_load() {
    touch "$stop_file"
    for pid in "${loop_pids[@]}"; do
        wait "$pid" || { echo "trace properties failed under concurrent load" >&2; exit 1; }
    done
    loop_pids=()
}
start_trace_load

echo "==> cargo test --workspace -q  (includes the examples smoke test; under the trace load)"
cargo test --workspace -q
stop_trace_load

echo "==> GCM vector gate (committed KAT corpus, table paths AND their _reference twins)"
cargo test --release -q -p genio-crypto --test gcm_vectors
echo "both AES-GCM implementations reproduce vectors/gcm_kat.txt"

echo "==> genio-analyzer determinism gate (cold vs warm scan must be byte-identical)"
rm -rf target/genio-analyzer
cargo run --release -q -p genio-analyzer -- --json target/genio-analyzer/report-cold.json >/dev/null
cargo run --release -q -p genio-analyzer -- --json target/genio-analyzer/report-warm.json >/dev/null
cmp target/genio-analyzer/report-cold.json target/genio-analyzer/report-warm.json
echo "cold and cache-warm reports agree"

echo "==> genio-analyzer ratchet gate (self-scan vs analyzer-baseline.json)"
# The baseline shrinks in the change that fixes a finding: a stale entry
# would let that exact site come back without failing this gate.
cargo run --release -q -p genio-analyzer | tee target/genio-analyzer/ratchet.txt
if grep -q 'baseline finding(s) fixed' target/genio-analyzer/ratchet.txt; then
    echo "analyzer-baseline.json lists findings the scan no longer finds;" \
        "rewrite it with --write-baseline" >&2
    exit 1
fi

echo "==> genio-analyzer fixture self-check (exact finding IDs on the miniws corpus)"
cargo run --release -q -p genio-analyzer -- \
    --root crates/analyzer/tests/fixtures/miniws \
    --no-cache --baseline /dev/null \
    --expect crates/analyzer/tests/fixtures/miniws-expected.txt
echo "fixture corpus matches miniws-expected.txt finding for finding"

echo "==> genio-analyzer diff-determinism gate (two --diff HEAD scans must agree byte-for-byte)"
# A dirty working tree may legitimately introduce findings (exit 1), so
# the determinism check compares the emitted documents, not exit codes.
cargo run --release -q -p genio-analyzer -- --diff HEAD \
    --json target/genio-analyzer/diff-a.json \
    --sarif target/genio-analyzer/diff-a.sarif >/dev/null || true
cargo run --release -q -p genio-analyzer -- --diff HEAD \
    --json target/genio-analyzer/diff-b.json \
    --sarif target/genio-analyzer/diff-b.sarif >/dev/null || true
cmp target/genio-analyzer/diff-a.json target/genio-analyzer/diff-b.json
cmp target/genio-analyzer/diff-a.sarif target/genio-analyzer/diff-b.sarif
if git diff --quiet HEAD 2>/dev/null; then
    # Clean tree: an empty change set must yield an empty diff (exit 0).
    cargo run --release -q -p genio-analyzer -- --diff HEAD >/dev/null
    echo "clean tree: empty change set produced an empty finding diff"
fi
echo "diff scans are deterministic (json and SARIF agree across runs)"

echo "==> genio-analyzer SARIF export gate (document re-parses with the testkit JSON parser)"
cargo test --release -q -p genio-analyzer --test sarif_export
echo "SARIF 2.1.0 export validated"

echo "==> seed gate (GEM, MACsec, crypto, AES-GCM kernel, fleet-engine and telemetry properties under seeds 1-64)"
# Each spec is crate:test-binary:filter. Each test binary is built once
# and called directly under every seed; the crypto properties binary
# runs whole (the sequenced-AEAD property beside the signature
# serialization and one-bit-flip properties, about 0.1 s a seed),
# genio-crypto's gcm_differential binary checks the burst kernel's
# lockstep groups, pairs and single chains against the reference path
# (about 0.2 s a seed), genio-pon's engine_differential binary checks
# the fleet engine against the reference stepper, and genio-telemetry's
# properties pin the exporter round trip and the ring accounting that
# the trace drop counts rest on.
for spec in genio-pon:properties: genio-pon:engine_differential: \
    genio-netsec:properties: genio-crypto:properties: \
    genio-crypto:gcm_differential: genio-telemetry:properties:; do
    IFS=: read -r crate test filter <<<"$spec"
    binary=$(cargo test --release -q -p "$crate" --test "$test" --no-run \
        --message-format=json | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p')
    [ -x "$binary" ] || { echo "$crate $test test binary not found" >&2; exit 1; }
    "$binary" --list ${filter:+"$filter"} | grep -q ': test$' ||
        { echo "no $crate $test test matches '$filter'" >&2; exit 1; }
    for seed in $(seq 1 64); do
        GENIO_TEST_SEED=$seed "$binary" -q ${filter:+"$filter"} >/dev/null ||
            { echo "$crate $test failed under GENIO_TEST_SEED=$seed" >&2; exit 1; }
    done
done
echo "traffic fault, crypto, AES-GCM kernel, fleet engine and telemetry properties hold under all 64 seeds"

echo "==> determinism-under-load gate, second pass (the trace load beside the fleet and trace cmp pairs)"
# The same-seed fleet and trace pairs below run while the lanes load
# the scheduler.
start_trace_load

echo "==> fleet-determinism gate (two same-seed engine runs must be byte-identical)"
rm -rf target/genio-fleet
mkdir -p target/genio-fleet
cargo run --release -q --example fleet_determinism > target/genio-fleet/run-a.txt
cargo run --release -q --example fleet_determinism > target/genio-fleet/run-b.txt
cmp target/genio-fleet/run-a.txt target/genio-fleet/run-b.txt
echo "same-seed fleet runs agree (digests, counters, stats)"

echo "==> trace-determinism gate (two same-seed traced runs must export identical span trees)"
cargo run --release -q --example trace_determinism > target/genio-fleet/trace-a.txt
cargo run --release -q --example trace_determinism > target/genio-fleet/trace-b.txt
cmp target/genio-fleet/trace-a.txt target/genio-fleet/trace-b.txt
echo "same-seed traced runs export byte-identical genio-trace/v1 documents"

stop_trace_load
trap - EXIT
echo "fleet span trees validate and re-export byte-identically under all 64 seeds, under load"

echo "==> genio-perf byte-identity gate (seed-5 smoke digests vs scripts/genio-perf-digests.txt)"
cargo build --release --offline -q --manifest-path genio-perf/Cargo.toml
mkdir -p target/genio-perf-smoke
while read -r workload want; do
    case "$workload" in ''|'#'*) continue ;; esac
    doc="target/genio-perf-smoke/$workload.json"
    log="target/genio-perf-smoke/$workload.log"
    if ! genio-perf/target/release/genio-perf --workload "$workload" --seed 5 --smoke \
        --json "$doc" >"$log" 2>&1; then
        cat "$log" >&2
        echo "genio-perf $workload smoke run failed" >&2
        exit 1
    fi
    got=$(sed -n 's/.*"digest":"\(0x[0-9a-f]*\)".*/\1/p' "$doc")
    if [ "$got" != "$want" ]; then
        echo "genio-perf $workload seed-5 smoke digest is $got, expected $want" >&2
        exit 1
    fi
    echo "$workload $got"
done < scripts/genio-perf-digests.txt
echo "genio-perf smoke outputs are byte-identical to the committed digests"

echo "==> bench sentinel self-check (committed BENCH_genio.json diffs clean against itself)"
cargo run --release -q -p genio-sentinel --bin genio-sentinel -- \
    --baseline BENCH_genio.json --candidate BENCH_genio.json \
    --anchor fleet_sim --anchor telemetry_overhead \
    --anchor lesson2/dataplane --anchor lesson2/control_plane
echo "sentinel parses and passes the committed document"

if [ "$QUICK" -eq 1 ]; then
    echo "==> cargo bench (quick profile)"
    rm -rf target/genio-bench
    cargo bench -p genio-bench --benches -- --quick

    echo "==> merging reports into a candidate document"
    # One report per bench target: derive the expected count from the
    # sources so adding a bench never needs a hand-edit here.
    bench_sources=(crates/bench/benches/*.rs)
    expected="${#bench_sources[@]}"
    reports=(target/genio-bench/*.json)
    count="${#reports[@]}"
    if [ "$count" -ne "$expected" ]; then
        echo "expected $expected experiment reports (one per crates/bench/benches/*.rs), found $count: ${reports[*]}" >&2
        exit 1
    fi
    {
        printf '{"schema":"genio-bench/v1","experiments":['
        sep=""
        for r in "${reports[@]}"; do
            printf '%s' "$sep"
            cat "$r"
            sep=","
        done
        printf ']}\n'
    } > target/genio-bench/BENCH_candidate.json

    echo "==> bench sentinel regression gate (candidate vs committed BENCH_genio.json)"
    # Anchored hot paths hard-fail above max(1.25x, the per-bench noise
    # band), and so does an anchored bench missing from the candidate;
    # everything else is a warn-only envelope — quick-mode medians on
    # unanchored micro-benches are too jittery to gate on.
    cargo run --release -q -p genio-sentinel --bin genio-sentinel -- \
        --baseline BENCH_genio.json \
        --candidate target/genio-bench/BENCH_candidate.json \
        --anchor fleet_sim --anchor telemetry_overhead \
        --anchor lesson2/dataplane --anchor lesson2/control_plane \
        --json target/genio-bench/sentinel-report.json

    mv target/genio-bench/BENCH_candidate.json BENCH_genio.json
    echo "wrote BENCH_genio.json ($count experiments; sentinel report in target/genio-bench/)"
fi

echo "==> verify OK"
