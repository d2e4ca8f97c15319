#!/usr/bin/env python3
"""Host-cost benchmark of the fcc simulator.

Run from the repository root:

    python3 perfbench/run.py --workload pod-wormhole --seed 0 --seconds 50 --trace 0

Builds `perfbench/` (a crate of its own that depends on the simulator's
crates by path), runs one workload for `--seconds` of host time, checks
every deterministic output, and prints a report followed by one JSON
line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` they are the
per-layer ones. See `perfbench/README.md`.

Exit codes: 0 with a result, 1 when the workload crashed or produced no
result, 2 when the benchmark could not be built or was misused.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
RUN_TIMEOUT_S = 170

WORKLOADS = {
    "pod-wormhole": "256-host wormhole spine-leaf pod, all-to-all 1 KiB writes",
    "serve-diurnal": "48 open-loop KV clients on the 8-domain FIFO chain, 3 modes",
    "tenants-recorded": "64 tenants on the 8-domain chain, telemetry recorded and rendered",
}

# name, unit, what it measures. Host times are medians over the run's
# repetitions: a shared host's speed moves between levels that can hold
# for a whole run, and across runs a run's median stayed steadier than
# its best repetition (see README.md).
END_TO_END = [
    ("wall_s", "s", "host time from end of set-up to final results (median of N)"),
    ("setup_s", "s", "host time to build the workload before the first event (median of N)"),
    ("events_per_s", "1/s", "simulated events per host second inside ShardedEngine::run (median of N)"),
    ("peak_rss_mb", "MB", "peak resident memory of the workload process"),
    ("ops_completed_frac", "frac", "1 - ops_failed_frac: operations completed at quiescence / issued"),
    ("outputs_match", "bool", "1 when every deterministic output equals the reference"),
]

# name, unit, layer, the end-to-end metric (and workload) it should move
LAYERS = [
    ("sim.events", "count", "fcc-sim engine", "events_per_s, all"),
    *[
        (f"sim.events.{k}", "count", "fcc-sim engine", "events_per_s, all")
        for k in ("switch", "fha", "fea", "gateway", "loadgen", "serve", "core", "nic", "other")
    ],
    *[
        (f"sim.msgs.{p}", "count", "fcc-sim engine", "events_per_s, all")
        for p in (
            "FlitMsg", "Kick", "HostRequest", "HostCompletion", "ResponseDue",
            "KvRequest", "KvReply", "SchedTick", "other",
        )
    ],
    ("sim.run_s", "s", "fcc-sim engine", "events_per_s, all"),
    ("sim.calendar.ns_per_op", "ns", "fcc-sim engine", "events_per_s, all"),
    ("sim.deadlock_scan_s", "s", "fcc-sim engine", "wall_s, all"),
    ("shard.events_max_over_mean", "ratio", "fcc-sim shard", "events_per_s, tenants-recorded"),
    ("shard.cross_frac", "frac", "fcc-sim shard", "events_per_s, tenants-recorded"),
    ("shard.speedup", "ratio", "fcc-sim shard", "events_per_s, tenants-recorded"),
    ("fabric.vc.ns_per_worm", "ns", "fcc-fabric", "events_per_s, pod-wormhole"),
    ("fabric.route.ns_per_lookup", "ns", "fcc-fabric", "events_per_s, pod-wormhole"),
    ("fabric.audit_s", "s", "fcc-fabric", "wall_s, all"),
    ("setup.plan_s", "s", "fcc-fabric", "setup_s, all"),
    ("setup.instantiate_s", "s", "fcc-fabric", "setup_s, all"),
    ("setup.install_s", "s", "fcc-fabric", "setup_s, all"),
    ("proto.crc.ns_per_flit", "ns", "fcc-proto", "events_per_s, all"),
    ("memnode.endpoint_s", "s", "device endpoints", "wall_s, serve-diurnal and pod-wormhole"),
    ("memnode.endpoint_calls", "count", "device endpoints", "wall_s, serve-diurnal and pod-wormhole"),
    ("sched.partition.us_per_window", "us", "fcc-sched", "wall_s, serve-diurnal and tenants-recorded"),
    ("sched.admit_ratio", "frac", "fcc-sched", "wall_s, serve-diurnal and tenants-recorded"),
    ("serve.requests", "count", "fcc-serve", "wall_s, serve-diurnal"),
    ("telemetry.slo.ns_per_record", "ns", "fcc-telemetry", "wall_s, serve-diurnal"),
    ("telemetry.export_s", "s", "fcc-telemetry", "wall_s and peak_rss_mb, tenants-recorded"),
    ("telemetry.trace_bytes", "bytes", "fcc-telemetry", "wall_s and peak_rss_mb, tenants-recorded"),
    ("loadgen.self_s", "s", "load generators", "separates generator cost in sim.run_s"),
    ("unattributed_s", "s", "residual", "thread-seconds of sim.run_s outside the timed layers"),
    ("trace.overhead_frac", "frac", "residual", "traced wall_s / untraced wall_s - 1"),
    ("trace.wall_untraced_s", "s", "residual", "untraced wall_s inside the traced run"),
]


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark crate; returns the binary path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.exists(manifest):
        fail(2, f"missing {manifest}")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(2, f"build failed: {e}")
    if res.returncode != 0:
        fail(2, "build failed (the benchmark builds against the simulator crates in ../crates)")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "fcc-perfbench")
    if not os.path.exists(binary):
        fail(2, f"built binary not found at {binary}")
    return binary


def invariant_failures(outputs):
    """Outputs that must hold on every seed, reference or not."""
    bad = []
    for key in ("deadlock_events", "credit_violations", "audit_findings",
                "ledger_violations", "lost_objects"):
        if key in outputs and outputs[key] != "0":
            bad.append(f"{key}={outputs[key]} (must be 0)")
    if "expected" in outputs and outputs["completed"] != outputs["expected"]:
        bad.append(f"completed {outputs['completed']} != expected {outputs['expected']}")
    return bad


def check_outputs(result, references):
    """Returns (outputs_match, notes)."""
    notes = []
    outputs = result["outputs"]
    if not result["outputs_stable"]:
        notes.append("outputs differ between iterations of one run")
    notes += invariant_failures(outputs)
    scale = "quick" if result["quick"] else "full"
    ref = references.get(scale, {}).get(result["workload"], {}).get(str(result["seed"]))
    if ref is None:
        notes.append(f"(no stored reference for seed {result['seed']}; invariants and determinism checked)")
        ok = len(notes) == 1
    else:
        for key in sorted(set(ref) | set(outputs)):
            if ref.get(key) != outputs.get(key):
                notes.append(f"{key}: got {outputs.get(key)} want {ref.get(key)}")
        ok = not notes
    return ok, notes


def load_references(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def record_reference(path, result):
    refs = load_references(path)
    scale = "quick" if result["quick"] else "full"
    refs.setdefault(scale, {}).setdefault(result["workload"], {})[str(result["seed"])] = result["outputs"]
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def run_binary(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    if args.quick:
        cmd.append("--quick")
    if args.spin_ns:
        cmd += ["--spin-ns", str(args.spin_ns)]
    if args.truncate_us is not None:
        cmd += ["--truncate-us", str(args.truncate_us)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(1, f"workload exceeded {RUN_TIMEOUT_S} s")
    if res.returncode != 0 or not res.stdout.strip():
        fail(1, f"workload exited with code {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small-scale workloads (tests)")
    ap.add_argument("--spin-ns", type=int, default=0,
                    help="host ns every device Endpoint::service call spins (sensitivity check)")
    ap.add_argument("--truncate-us", type=float, default=None,
                    help="stop every shard at this simulated time (a truncated run)")
    ap.add_argument("--references", default=REFERENCES)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's outputs as the reference for its seed")
    args = ap.parse_args()
    if args.seed < 0:
        fail(2, "--seed must be non-negative")

    binary = build()
    result = run_binary(binary, args)
    if args.record_reference:
        bad = invariant_failures(result["outputs"])
        if bad or not result["outputs_stable"]:
            fail(1, f"refusing to record a failing run: {bad}")
        record_reference(args.references, result)

    samples = result["samples"]
    match, notes = check_outputs(result, load_references(args.references))
    attempted = sum(s["ops_issued"] for s in samples)
    not_done = sum(s["ops_issued"] - s["ops_completed"] for s in samples)
    failed = not_done if match else attempted
    failed_frac = failed / attempted if attempted else 1.0
    n = len(samples)

    series = {
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": result["setups"],
        "events_per_s": [s["events"] / s["run_s"] for s in samples],
    }
    e2e = {
        "wall_s": statistics.median(series["wall_s"]),
        "setup_s": statistics.median(series["setup_s"]),
        "events_per_s": statistics.median(series["events_per_s"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ops_completed_frac": 1.0 - failed_frac,
        "outputs_match": 1 if match else 0,
    }

    print(f"# {args.workload} (seed {args.seed}{', quick' if args.quick else ''}): "
          f"{WORKLOADS[args.workload]}; {result['workers']} worker(s), "
          f"{n} measured iterations in {result['measured_s']:.1f} s")
    print("# the simulated model is unvalidated against hardware: these are host costs only")
    for note in notes:
        print(f"# outputs: {note}")
    print(f"# outputs_match {e2e['outputs_match']}; ops_failed_frac {failed_frac:.6g} "
          f"({failed} of {attempted} ops)")
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, _, what in END_TO_END:
        spread = ""
        if name in series:
            vals = series[name]
            spread = f" n={len(vals)} (min {min(vals):.6g}, max {max(vals):.6g})"
        print(f"{name:>20} {fmt(e2e[name]):>14} {units[name]:<6}{spread}  # {what}")

    if args.trace:
        layers = result["layers"]
        print("# per-layer (traced run; layer times are host time inside timed public calls)")
        print(f"# {'metric':<30} {'value':>14} {'unit':<6} {'layer':<17} moves")
        for name, unit, layer, moves in LAYERS:
            print(f"{name:>32} {fmt(layers[name]):>14} {unit:<6} {layer:<17} {moves}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _, _ in LAYERS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    print(json.dumps({
        "correct": bool(match and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
