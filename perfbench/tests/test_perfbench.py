"""The benchmark's own tests.

Run from the repository root (the first test builds the benchmark):

    python3 -m unittest discover -s perfbench/tests -v

They drive `run.py` on quick-scale workloads, so they take about a
minute after the build. Scratch files go to `.perfbench-test-*`
directories at the repository root and are removed afterwards.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)
import run  # noqa: E402


def scratch_dir():
    return tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-test-")


def bench(*args, references=None):
    """Runs run.py on a quick workload; returns (exit code, result, stdout)."""
    cmd = [sys.executable, RUN, "--quick", "--seconds", "0.3", *args]
    if references:
        cmd += ["--references", references]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if res.returncode == 0 and lines else None
    return res.returncode, result, res.stdout


class QuickWorkloads(unittest.TestCase):
    def test_every_workload_matches_its_reference_and_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.LAYERS)):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = bench("--workload", workload, "--seed", "0", "--trace", str(trace))
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertIn("outputs_match 1", out)
                    self.assertNotIn("no stored reference", out)
                    self.assertEqual(sorted(result["metrics"]), sorted(row[0] for row in table))
                    for row in table:
                        name, unit = row[0], row[1]
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        self.assertRegex(out, rf"\s{name}\s+\S+\s+{unit}\s")

    def test_perturbed_reference_flips_outputs_match(self):
        with open(run.REFERENCES) as f:
            refs = json.load(f)
        refs["quick"]["pod-wormhole"]["0"]["events"] += "1"
        with scratch_dir() as tmp:
            path = os.path.join(tmp, "references.json")
            with open(path, "w") as f:
                json.dump(refs, f)
            code, result, out = bench("--workload", "pod-wormhole", "--seed", "0", references=path)
        self.assertEqual(code, 0, out)
        self.assertEqual(result["metrics"]["outputs_match"]["value"], 0)
        self.assertFalse(result["correct"])
        # A failed check counts every operation of the run as failed.
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ops_completed_frac"]["value"], 0.0)

    def test_truncated_run_raises_ops_failed_frac(self):
        code, result, out = bench("--workload", "tenants-recorded", "--seed", "0", "--truncate-us", "5")
        self.assertEqual(code, 0, out)
        self.assertLess(result["metrics"]["ops_completed_frac"]["value"], 1.0)
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])

    def test_unknown_workload_is_refused(self):
        code, result, _ = bench("--workload", "no-such-workload")
        self.assertEqual(code, 2)
        self.assertIsNone(result)


class References(unittest.TestCase):
    def test_seed_zero_reproduces_the_committed_experiment_scalars(self):
        path = os.path.join(ROOT, "BENCH_experiments.json")
        if not os.path.exists(path):
            self.skipTest("BENCH_experiments.json not present")
        with open(path) as f:
            committed = json.load(f)
        with open(run.REFERENCES) as f:
            refs = json.load(f)["full"]
        pairs = {
            "pod-wormhole": ("e14", ["hosts", "switches", "completed", "expected", "deadlock_events",
                                     "credit_violations", "audit_findings"]),
            "serve-diurnal": ("e13", ["requests", "base_p99_peak_ns", "base_p99_trough_ns",
                                      "base_attain_peak", "off_p99_peak_ns", "on_p99_peak_ns",
                                      "on_p99_trough_ns", "on_p999_peak_ns", "off_attain_peak",
                                      "on_attain_peak", "lost_objects", "ledger_violations"]),
            "tenants-recorded": ("e12", ["tenants", "victim_p99_idle_ns", "victim_p99_off_ns",
                                         "victim_p99_on_ns", "victim_p999_on_ns", "hog_ops_us_off",
                                         "hog_ops_us_on", "sched_admitted", "sched_deferred",
                                         "ledger_violations"]),
        }
        for workload, (exp, keys) in pairs.items():
            ref, want = refs[workload]["0"], committed[exp]
            with self.subTest(workload=workload):
                self.assertEqual(int(ref["events"]), want["total_events"])
                for key in keys:
                    self.assertEqual(float(ref[key]), float(want[key]), key)
        e14 = refs["pod-wormhole"]["0"]
        self.assertEqual(int(e14["makespan_ps"]), round(committed["e14"]["makespan_us"] * 1e6))

    def test_benchmark_json_lists_the_metrics_run_py_prints(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [r[0] for r in run.END_TO_END])
        self.assertEqual([m["unit"] for m in spec["end_to_end"]], [r[1] for r in run.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]], [r[0] for r in run.LAYERS])
        self.assertEqual([m["unit"] for m in spec["per_layer"]], [r[1] for r in run.LAYERS])
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class Standalone(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        with scratch_dir() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "build"))
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "pod-wormhole", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
