#!/usr/bin/env bash
# Build the benchmark, run its self-tests, run every workload plus the
# traced replay on the reduced sample, and check the report's shape.
# Meant for CI (a later change wires it into .github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

# Frozen surface: the benchmark may not call API that ROADMAP nominates
# for deletion, or later clean-ups could not land without editing it.
forbidden='candidates_for_(scan|dense_scan|gather)|CandidateScratch|MorselPolicy|set_threads|JoinInput|JoinStats|write_snapshot_(legacy|unchecksummed)|legacy-format|--load|"--threads", "([02-9]|1[0-9])'
if grep -rnE "$forbidden" benchmark/src; then
    echo "smoke: benchmark/src uses API outside the frozen surface" >&2
    exit 1
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

target="${CARGO_TARGET_DIR:-benchmark/target}"
report=benchmark/out/smoke.json
mkdir -p benchmark/out
"$target/release/benchmark" run --smoke --seed 1 --out "$report"

# Schema: pinned, every workload, every metric it owes, the ledger.
grep -q '"pinned": true' "$report" || { echo "smoke: run was not pinned" >&2; exit 1; }
for name in serve_point serve_scan annotate_rw cold_query call_oneshot \
    setup_s latency_p50_ms latency_p95_ms throughput_ops_s peak_rss_mb failed_share \
    write_p50_ms write_p95_ms checkpoint_p50_ms stored_bytes_per_input_byte \
    layers serve.unattributed_us.serve_point trace.rtt_overhead_share; do
    grep -q "\"$name\"" "$report" || { echo "smoke: report lacks $name" >&2; exit 1; }
done
# A report compares clean against itself: parses, pinned, same seed.
"$target/release/benchmark" compare "$report" "$report" >/dev/null
echo "smoke: ok"
