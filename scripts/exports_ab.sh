#!/usr/bin/env bash
# Exactness check for a change that must not alter any output: runs
# `experiments all` built from a parent revision and from the working tree
# and compares stdout and the --json/--trace/--metrics exports byte for
# byte, and every scenario's engine event count from --perf (its
# wall-clock fields are ignored), so the work done must match too.
#
#   scripts/exports_ab.sh <parent-rev> [work-dir]
#
# The parent is exported with `git archive`; the working tree builds in
# place. Each side builds `experiments` into its own target directory (the
# parent's under the work directory, keyed by its commit). Both sides run
# `all` full and --quick, at --shards 1 and 4. When a configuration's
# outputs differ, both sides re-run it one id at a time (every id that
# `experiments list` prints) and the script names each scenario that
# differs, so a deliberate re-baseline can show that it is confined; event
# counts that differ are named per scenario straight from --perf. Exit
# 0 means every run matched, 1 that some output differs, 2 misuse. A full
# traced `all` writes a ~580 MB trace per side, so each run's outputs are
# deleted once compared.
#
# The work directory (default: temporary, removed on exit) keeps the
# parent's build between calls when given.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <parent-rev> [work-dir]" >&2
    exit 2
fi
if ! sha=$(git rev-parse --verify -q "$1^{commit}"); then
    echo "exports_ab: unknown revision $1" >&2
    exit 2
fi

if [ $# -eq 2 ]; then
    work=$2
    mkdir -p "$work"
else
    work=$(mktemp -d "${TMPDIR:-/tmp}/exports_ab.XXXXXX")
    trap 'rm -rf "$work"' EXIT
fi
rm -rf "$work/base" "$work/out"
mkdir -p "$work/base" "$work/out"
git archive "$sha" | tar -x -C "$work/base"

echo "exports_ab: building parent $sha and the working tree"
(cd "$work/base" && CARGO_TARGET_DIR="$work/target-$sha" \
    cargo build --release -q -p fcc-bench --bin experiments)
cargo build --release -q -p fcc-bench --bin experiments
base_bin="$work/target-$sha/release/experiments"
new_bin="${CARGO_TARGET_DIR:-target}/release/experiments"

# Prints "<id> <events>" for each scenario of an `experiments --perf` file.
events_of() {
    sed -n 's/^  "\([^"]*\)": {"wall_ms": [^,]*, "events": \([0-9]*\),.*/\1 \2/p' "$1"
}

# Runs `experiments <args>` on both sides and compares the outputs; names
# each differing file and each scenario whose event count differs, and
# returns 1 when any does.
same_outputs() {
    local label=$1 side bin out f
    shift
    for side in base new; do
        bin=$base_bin
        [ "$side" = new ] && bin=$new_bin
        out="$work/out/$side"
        mkdir -p "$out"
        if ! "$bin" "$@" --json "$out/results.json" \
            --trace "$out/trace.json" --metrics "$out/metrics.json" \
            --perf "$out/perf.json" > "$out/stdout.txt" 2> "$out/stderr.txt"; then
            echo "exports_ab: $label: the $side run failed" >&2
            cat "$out/stderr.txt" >&2
            exit 1
        fi
    done
    local same=0
    for f in stdout.txt results.json trace.json metrics.json; do
        if ! cmp -s "$work/out/base/$f" "$work/out/new/$f"; then
            echo "exports_ab: $label: $f differs from the parent" >&2
            same=1
        fi
    done
    local moved
    moved=$(awk 'NR == FNR { base[$1] = $2; next }
        !($1 in base) || base[$1] != $2 {
            printf " %s (%s -> %s)", $1, ($1 in base) ? base[$1] : "none", $2 }' \
        <(events_of "$work/out/base/perf.json") <(events_of "$work/out/new/perf.json"))
    if [ -n "$moved" ]; then
        echo "exports_ab: $label: events differ from the parent:$moved" >&2
        same=1
    fi
    rm -rf "$work/out/base" "$work/out/new"
    return $same
}

ids=$("$new_bin" list | awk -F'|' '{ gsub(/ /, "", $2) } $2 != "" && $2 != "id" { print $2 }')
status=0
for scale in full quick; do
    for shards in 1 4; do
        flags=(--shards "$shards")
        [ "$scale" = quick ] && flags+=(--quick)
        label="all $scale --shards $shards"
        if same_outputs "$label" "${flags[@]}" all; then
            echo "exports_ab: $label: stdout, json, trace, metrics and events identical"
            continue
        fi
        status=1
        differing=()
        for id in $ids; do
            if ! same_outputs "$id $scale --shards $shards" "${flags[@]}" "$id"; then
                differing+=("$id")
            fi
        done
        echo "exports_ab: $label: differing scenarios: ${differing[*]:-none when run alone}"
    done
done
if [ "$status" -ne 0 ]; then
    echo "exports_ab: outputs differ from $sha" >&2
    exit 1
fi
echo "exports_ab: all runs identical to $sha"
