#!/usr/bin/env bash
# Interleaved A/B timing of one perfbench workload: a parent revision
# against the working tree.
#
#   scripts/perf_ab.sh <parent-rev> <workload> [pairs] [seconds] [first-seed]
#
# The parent is exported with `git archive` into a temporary directory;
# the working tree runs in place. Each side builds into its own target
# directory, and pair k runs both sides at seed first-seed+k-1 (default
# seeds 1..pairs), alternating which side goes first. A held-out check is
# one more call with another first seed, e.g. `... 1 50 7919`.
#
# Fails (exit 1) if either side reports incorrect outputs, failed ops, or
# outputs_match 0: both sides check their outputs against the same
# references, so passing sides produced identical outputs. Prints each
# pair's end-to-end metrics (parent/change) as it goes, then each side's
# median and quartiles per end-to-end metric, the
# pairs the change won, and the verdict of the rule for claiming a gain:
# at least nine tenths of the pairs won, and a median gap larger than the
# parent's interquartile range. Then one traced run per side (--trace 1,
# the first pair's seed, the same seconds) prints every per-layer metric
# as parent/change, and fails (exit 1) if any sim.events* or sim.msgs.*
# work count, sched.admit_ratio, serve.requests or memnode.endpoint_calls
# differs: those are deterministic work outputs, so a change that keeps
# the work must keep them exactly. Exit 2 on misuse.
#
# Set PERF_AB_TARGET_DIR to keep both sides' build output between calls
# (held-out runs then skip the rebuild); by default it is temporary.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs] [seconds] [first-seed]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-50}
first=${5:-1}

if ! git rev-parse --verify -q "$rev^{commit}" > /dev/null; then
    echo "perf_ab: unknown revision $rev" >&2
    exit 2
fi
if ! git diff --quiet "$rev" -- perfbench BENCHMARK.json; then
    echo "perf_ab: perfbench/ or BENCHMARK.json differ from $rev;" \
        "both sides must run the same benchmark" >&2
    exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base"
git archive "$rev" | tar -x -C "$work/base"
targets=${PERF_AB_TARGET_DIR:-$work}

# run <side> <seed> [trace]: one run, its JSON line appended to
# <side>.jsonl (untraced) or <side>.traced.jsonl (--trace 1).
run() {
    local side=$1 seed=$2 trace=${3:-0} dir out
    if [ "$side" = base ]; then dir="$work/base"; else dir=.; fi
    out="$work/$side.jsonl"
    [ "$trace" = 1 ] && out="$work/$side.traced.jsonl"
    (cd "$dir" && CARGO_TARGET_DIR="$targets/$side-target" \
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" | tail -n 1 >> "$out")
}

echo "perf_ab: $workload, $pairs pair(s) of ${seconds} s, parent $rev vs working tree"
# pair_line: every end-to-end metric of the latest pair, parent/change.
pair_line() {
    python3 - "$work/base.jsonl" "$work/new.jsonl" BENCHMARK.json <<'PY'
import json
import sys

base, new = (json.loads(open(path).readlines()[-1])["metrics"] for path in sys.argv[1:3])
names = [m["name"] for m in json.load(open(sys.argv[3]))["end_to_end"]]
print(", ".join(f"{n} {base[n]['value']:.4g}/{new[n]['value']:.4g}" for n in names))
PY
}
for k in $(seq 1 "$pairs"); do
    seed=$((first + k - 1))
    order="base new"
    [ $((k % 2)) -eq 1 ] && order="new base"
    for side in $order; do
        run "$side" "$seed"
    done
    echo "  pair $k (seed $seed, $order; parent/change): $(pair_line)"
done
# One traced run per side at the first pair's seed, for the per-layer
# comparison printed after the end-to-end summary.
for side in base new; do
    run "$side" "$first" 1
done

python3 - "$work/base.jsonl" "$work/new.jsonl" BENCHMARK.json <<'EOF'
import json
import statistics
import sys

base = [json.loads(line) for line in open(sys.argv[1])]
new = [json.loads(line) for line in open(sys.argv[2])]
spec = json.load(open(sys.argv[3]))["end_to_end"]

bad = False
for side, runs in (("parent", base), ("change", new)):
    for k, r in enumerate(runs, 1):
        m = r["metrics"]
        if not r["correct"] or r["failed"] != 0 or m["outputs_match"]["value"] != 1:
            print(f"FAIL: {side} pair {k}: correct={r['correct']} failed={r['failed']}"
                  f" outputs_match={m['outputs_match']['value']}")
            bad = True
if len(base) != len(new) or not base:
    print("FAIL: missing runs")
    bad = True
if bad:
    sys.exit(1)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{'metric':<20} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
      f" {'delta':>8} {'won':>6}  verdict")
for metric in spec:
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    b = [r["metrics"][name]["value"] for r in base]
    n = [r["metrics"][name]["value"] for r in new]
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    won = sum((y < x) if lower else (y > x) for x, y in zip(b, n))
    delta = (nmed - bmed) / bmed if bmed else 0.0
    gap = (bmed - nmed) if lower else (nmed - bmed)
    if won >= 0.9 * len(b) and gap > bq3 - bq1:
        verdict = "gain"
    elif -gap > bound * abs(bmed):
        verdict = f"worse than bound {bound:.0%}"
    else:
        verdict = f"no gain claimable; within bound {bound:.0%}"
    fmt = lambda m, q1, q3: f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
    print(f"{name:<20} {fmt(bmed, bq1, bq3):>32} {fmt(nmed, nq1, nq3):>32}"
          f" {delta:>+8.1%} {won:>3}/{len(b):<2}  {verdict}")
EOF

python3 - "$work/base.traced.jsonl" "$work/new.traced.jsonl" BENCHMARK.json "$first" <<'EOF'
import json
import sys

base, new = (json.loads(open(path).readline()) for path in sys.argv[1:3])
spec = json.load(open(sys.argv[3]))["per_layer"]
EXACT = ("sched.admit_ratio", "serve.requests", "memnode.endpoint_calls")
print(f"per-layer, one traced run per side at seed {sys.argv[4]} (parent/change):")
bad = False
for side, r in (("parent", base), ("change", new)):
    if not r["correct"] or r["failed"] != 0:
        print(f"FAIL: {side} traced run: correct={r['correct']} failed={r['failed']}")
        bad = True
for metric in spec:
    name = metric["name"]
    b, n = base["metrics"][name]["value"], new["metrics"][name]["value"]
    mark = ""
    if b != n and (name.startswith(("sim.events", "sim.msgs.")) or name in EXACT):
        mark = "  FAIL: work count differs"
        bad = True
    print(f"  {name:<32} {b:.6g}/{n:.6g} {metric['unit']}{mark}")
sys.exit(1 if bad else 0)
EOF
