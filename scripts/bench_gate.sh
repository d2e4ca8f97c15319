#!/usr/bin/env bash
# Wall-clock regression gate: measures every experiment scenario (median
# of 3 runs) and compares against the committed baseline in
# BENCH_experiments.json, failing on a >25% wall-clock regression or any
# drift in event counts or scalar results (both are deterministic, so
# drift means the simulation changed, not the machine).
#
# A second gate covers the sharded executor: the e3x scenario (64
# tenants over an 8-domain chain) runs serially and with --shards 4,
# requiring equal event counts and byte-identical exports everywhere,
# and a >=1.5x median wall-clock win when the host has >=4 CPUs.
#
# The comparison reports land in $BENCH_ARTIFACT_DIR (default
# target/bench-gate) for CI to upload. Knobs:
#   BENCH_GATE_TOLERANCE    allowed wall-clock regression, percent (25)
#   BENCH_GATE_RUNS         runs per scenario, median taken (3)
#   BENCH_GATE_SHARDS       worker count for the shards gate (4)
#   BENCH_GATE_MIN_SPEEDUP  required serial/sharded speedup (1.5)
#
# After an intentional perf change, refresh the baseline with
#   cargo run --release -p fcc-bench --bin bench_gate -- update
# and commit BENCH_experiments.json (the update also appends the new
# medians to the BENCH_history.json trajectory).
set -euo pipefail
cd "$(dirname "$0")/.."

artifacts="${BENCH_ARTIFACT_DIR:-target/bench-gate}"
tolerance="${BENCH_GATE_TOLERANCE:-25}"
runs="${BENCH_GATE_RUNS:-3}"
shards="${BENCH_GATE_SHARDS:-4}"
min_speedup="${BENCH_GATE_MIN_SPEEDUP:-1.5}"
mkdir -p "$artifacts"

echo "==> build (release)"
cargo build --release -p fcc-bench --bin bench_gate

echo "==> bench gate (median of $runs runs, tolerance ${tolerance}%)"
./target/release/bench_gate check \
    --baseline BENCH_experiments.json \
    --runs "$runs" \
    --tolerance "$tolerance" \
    --report "$artifacts/bench-comparison.json"

echo "==> shards gate (e3x, --shards $shards, >=${min_speedup}x where measurable)"
./target/release/bench_gate shards \
    --shards "$shards" \
    --runs "$runs" \
    --min-speedup "$min_speedup" \
    --report "$artifacts/shards-report.json"

echo "bench gates passed; reports at $artifacts/"
