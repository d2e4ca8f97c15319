#!/usr/bin/env bash
# Workspace quality gate: formatting, lints, tests, the four model
# checks (coherence, reconfiguration, scheduler isolation, routing) and
# the scenario and perfbench smokes. CI runs exactly this script; run
# it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings, unwrap/expect banned in library code)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: broken intra-doc links fail the gate)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> fcc-lint (determinism & layering gate)"
lint_artifacts="${LINT_ARTIFACT_DIR:-target/lint}"
mkdir -p "$lint_artifacts"
cargo run --release -p fcc-lint -- --json "$lint_artifacts/lint-report.json"

echo "==> cargo test"
cargo test --workspace -q

echo "==> coherence model check (exhaustive, small configs)"
cargo run --release -p fcc-verify --bin check-coherence

echo "==> reconfiguration model check (hot-add/hot-remove plans vs in-flight traffic)"
cargo run --release -p fcc-verify --bin check-reconfig

echo "==> scheduler isolation model check (credit partitions vs every demand schedule)"
cargo run --release -p fcc-verify --bin check-sched

artifacts="${TELEMETRY_ARTIFACT_DIR:-target/telemetry-smoke}"
mkdir -p "$artifacts"

echo "==> routing model check (escape-VC CDG acyclic, credit ledgers conserve)"
cargo run --release -p fcc-verify --bin check-routing -- \
    --report "$artifacts/routing-report.json"
grep -q '"status":"ok"' "$artifacts/routing-report.json"

echo "==> traced experiment smoke (telemetry export end to end)"
cargo run --release -p fcc-bench --bin experiments -- --quick e3a \
    --json "$artifacts/results.json" \
    --trace "$artifacts/trace.json" \
    --metrics "$artifacts/metrics.json"
cargo run --release -p fcc-telemetry --bin trace-report -- "$artifacts/trace.json" \
    > "$artifacts/trace-report.txt"
grep -q "time by category" "$artifacts/trace-report.txt"

echo "==> churn smoke (E11: managed drain loses nothing, never wedges)"
cargo run --release -p fcc-bench --bin experiments -- --quick --seed 11 e11 \
    --json "$artifacts/churn-results.json" \
    --trace "$artifacts/churn-trace.json"
grep -q '"managed_lost_objects": 0' "$artifacts/churn-results.json"
grep -q '"managed_deadlocked": 0' "$artifacts/churn-results.json"
# Reconfiguration epochs must be visible in the exported trace.
grep -q 'reconfig' "$artifacts/churn-trace.json"

echo "==> interference smoke (E12: scheduler bounds victim p99, ledgers audit clean)"
cargo run --release -p fcc-bench --bin experiments -- --quick e12 \
    --json "$artifacts/e12-results.json"
grep -q '"ledger_violations": 0' "$artifacts/e12-results.json"
grep -q '"isolation_bounded": 1' "$artifacts/e12-results.json"

echo "==> serving smoke (E13: per-tenant SLO bounded at peak, nothing lost, ledgers clean)"
cargo run --release -p fcc-bench --bin experiments -- --quick e13 \
    --json "$artifacts/e13-results.json"
grep -q '"lost_objects": 0' "$artifacts/e13-results.json"
grep -q '"ledger_violations": 0' "$artifacts/e13-results.json"
grep -q '"slo_bounded": 1' "$artifacts/e13-results.json"

echo "==> wormhole pod smoke (E14: spine-leaf pod drains deadlock-free, credits conserved)"
cargo run --release -p fcc-bench --bin experiments -- --quick e14 \
    --json "$artifacts/e14-results.json" \
    --trace "$artifacts/e14-trace.json" \
    --metrics "$artifacts/e14-metrics.json"
grep -q '"deadlock_events": 0' "$artifacts/e14-results.json"
grep -q '"credit_violations": 0' "$artifacts/e14-results.json"
grep -q '"quiesced_clean": 1' "$artifacts/e14-results.json"
# The K-domain capture path (eight domains absorbed in order) must export
# a trace that trace-report reads.
cargo run --release -p fcc-telemetry --bin trace-report -- "$artifacts/e14-trace.json" \
    > "$artifacts/e14-trace-report.txt"
grep -q "time by category" "$artifacts/e14-trace-report.txt"

echo "==> perfbench smoke (quick workloads reproduce their reference outputs)"
# tenants-recorded is the only FIFO workload whose recorded trace digest
# is checked, so a drift in span order fails here.
for workload in pod-wormhole serve-diurnal tenants-recorded; do
    python3 perfbench/run.py --workload "$workload" --quick --seconds 0 --trace 0 \
        > "$artifacts/perfbench-$workload.txt"
    tail -n 1 "$artifacts/perfbench-$workload.txt" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
done

echo "==> perfbench lockfile unchanged (the smoke above must not rewrite it)"
# A crate or dependency change that alters the benchmark's resolved graph
# shows up here instead of silently landing in the benchmark's checkout.
git diff --exit-code -- perfbench/Cargo.lock

echo "all checks passed"
