#!/usr/bin/env python3
"""Sensitivity check: an injected device slowdown is seen and attributed.

Run from the repository root:

    python3 perfbench/sensitivity.py [--seconds 10]

For each workload it alternates `PAIRS` pairs of traced runs, one
without and one with a decorator that spins a fixed host delay inside
every device `Endpoint::service` call, and keeps each metric's best
value per side, so both sides see the same host conditions. No program
code changes; the decorator wraps the devices the benchmark installs.
The delay is sized from the first run so the injected thread time is
`INJECT_FRAC` of `sim.run_s`. It then checks, per workload:

* the untraced wall time (`trace.wall_untraced_s`) rises, by at least a
  quarter of the injected time;
* `memnode.endpoint_s` rises by at least 80% of the injected time;
* the residual `unattributed_s` stays within 25%, so the slowdown is
  attributed to the endpoint layer;
* every other layer's time metric stays within 25% (or within 1 ms).
  One whose base runs alone spread wider than that is reported as
  unresolved, not as a failure: the host's noise hides a change of
  that size.

Exits 1 when a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

INJECT_FRAC = 0.3
PAIRS = 3
OTHER_LAYER_TIMES = [
    "sim.calendar.ns_per_op", "sim.deadlock_scan_s", "fabric.vc.ns_per_worm",
    "fabric.route.ns_per_lookup", "fabric.audit_s", "setup.plan_s", "setup.instantiate_s",
    "setup.install_s", "proto.crc.ns_per_flit", "sched.partition.us_per_window",
    "telemetry.slo.ns_per_record", "telemetry.export_s", "loadgen.self_s",
]
OTHER_BOUND = 0.25
OTHER_FLOOR_S = 1e-3


def bench(workload, seconds, trace, spin_ns):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace), "--spin-ns", str(spin_ns)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run with spin {spin_ns} ns failed its output check")
    return {k: v["value"] for k, v in result["metrics"].items()}


def within(name, base, slow):
    if abs(slow - base) <= OTHER_BOUND * abs(base):
        return True
    # Host-second layers this small sit at the timer's noise floor.
    return name.endswith("_s") and abs(slow - base) <= OTHER_FLOOR_S


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    failures = []
    for w in args.workloads.split(","):
        first = bench(w, args.seconds, 1, 0)
        calls = first["memnode.endpoint_calls"]
        spin_ns = round(INJECT_FRAC * first["sim.run_s"] / calls * 1e9)
        runs = {0: [first], spin_ns: []}
        for i in range(PAIRS):
            runs[spin_ns].append(bench(w, args.seconds, 1, spin_ns))
            if i + 1 < PAIRS:
                runs[0].append(bench(w, args.seconds, 1, 0))
        lay = [{k: min(r[k] for r in runs[spin]) for k in first} for spin in (0, spin_ns)]
        injected = calls * spin_ns * 1e-9
        d_wall = lay[1]["trace.wall_untraced_s"] - lay[0]["trace.wall_untraced_s"]
        d_endpoint = lay[1]["memnode.endpoint_s"] - lay[0]["memnode.endpoint_s"]
        print(f"# {w}: {calls:.0f} endpoint calls x {spin_ns} ns = {injected:.4f} s injected thread "
              f"time; best of {PAIRS} alternating runs per side")
        print(f"{'metric':>32} {'base':>12} {'spin':>12} {'change':>9}")
        rows = [(n, lay[0][n], lay[1][n])
                for n in ["trace.wall_untraced_s", "memnode.endpoint_s", "sim.run_s", "unattributed_s"]
                + OTHER_LAYER_TIMES]
        for name, b, slow in rows:
            change = (slow - b) / b if b else 0.0
            print(f"{name:>32} {b:>12.6g} {slow:>12.6g} {change:>+9.1%}")
        checks = [
            (d_wall >= 0.25 * injected, f"untraced wall_s rose {d_wall:.4f} s"),
            (d_endpoint >= 0.8 * injected, f"memnode.endpoint_s rose {d_endpoint:.4f} s"),
        ]
        checks.append((within("unattributed_s", lay[0]["unattributed_s"], lay[1]["unattributed_s"]),
                       f"unattributed_s within {OTHER_BOUND:.0%}"))
        for ok, what in checks:
            print(f"  {'ok  ' if ok else 'FAIL'} {what}")
            if not ok:
                failures.append(f"{w}: {what}")
        for n in OTHER_LAYER_TIMES:
            base_runs = [r[n] for r in runs[0]]
            noise = (max(base_runs) - min(base_runs)) / min(base_runs) if min(base_runs) else 0.0
            if within(n, lay[0][n], lay[1][n]):
                print(f"  ok   {n} within {OTHER_BOUND:.0%}")
            elif noise > OTHER_BOUND:
                print(f"  ??   {n} unresolved: its base runs alone spread {noise:.0%}")
            else:
                print(f"  FAIL {n} within {OTHER_BOUND:.0%}")
                failures.append(f"{w}: {n} within {OTHER_BOUND:.0%}")
    if failures:
        print("sensitivity check failed:\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("sensitivity check passed: the injected endpoint slowdown shows in wall_s "
          "and is attributed to memnode.endpoint_s")


if __name__ == "__main__":
    main()
