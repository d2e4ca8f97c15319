#!/usr/bin/env bash
# Exactness check for a change that must not alter any output: runs
# `experiments all` built from a parent revision and from the working tree
# and compares stdout and the --json/--trace/--metrics exports byte for
# byte.
#
#   scripts/exports_ab.sh <parent-rev> [work-dir]
#
# The parent is exported with `git archive`; the working tree builds in
# place. Each side builds `experiments` into its own target directory (the
# parent's under the work directory, keyed by its commit). Both sides run
# `all` full and --quick, at --shards 1 and 4. The script names the first
# file that differs and exits 1; exit 0 means every run matched; exit 2 on
# misuse. A full traced `all` writes a ~580 MB trace per side, so each
# configuration's outputs are deleted once compared.
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

for scale in full quick; do
    for shards in 1 4; do
        flags=(--shards "$shards")
        [ "$scale" = quick ] && flags+=(--quick)
        label="all $scale --shards $shards"
        for side in base new; do
            bin=$base_bin
            [ "$side" = new ] && bin=$new_bin
            out="$work/out/$side"
            mkdir -p "$out"
            if ! "$bin" "${flags[@]}" all --json "$out/results.json" \
                --trace "$out/trace.json" --metrics "$out/metrics.json" \
                > "$out/stdout.txt" 2> "$out/stderr.txt"; then
                echo "exports_ab: $label: the $side run failed" >&2
                cat "$out/stderr.txt" >&2
                exit 1
            fi
        done
        for f in stdout.txt results.json trace.json metrics.json; do
            if ! cmp -s "$work/out/base/$f" "$work/out/new/$f"; then
                echo "exports_ab: $label: $f differs from the parent" >&2
                cmp "$work/out/base/$f" "$work/out/new/$f" >&2 || true
                exit 1
            fi
        done
        echo "exports_ab: $label: stdout, json, trace and metrics identical"
        rm -rf "$work/out/base" "$work/out/new"
    done
done
echo "exports_ab: all runs identical to $sha"
