#!/usr/bin/env python3
"""Self-tests of the DFS benchmark driver (one round of every workload).

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then runs each workload for one full
round (--seconds 0) and checks that every metric listed in BENCHMARK.json
is printed with its unit, that one seed reproduces its simulated metrics
exactly, and that a corrupted storage byte or a stale oracle shadow fails
the run.
"""
import json
import os
import re
import subprocess
import unittest

import run

ROOT = os.path.dirname(run.HERE)
# Host-clock metrics; every other metric is simulated and exact per seed.
HOST_METRICS = {
    "host_run_s", "setup_s", "peak_rss_mb", "sim.host_ns_per_event", "sim.event_host_ns",
    "ec.encode_host_ns_per_kib", "auth.verify_host_ns", "phase.cluster_s",
    "phase.namespace_s", "phase.prefill_s", "phase.verify_s", "phase.run_wall_s",
    "phase.yardstick_s", "trace.overhead_frac",
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def drive(workload, trace, seed=1, extra=()):
    """Run the driver once; returns (exit code, stdout, parsed result line)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    return p.returncode, p.stdout, json.loads(p.stdout.strip().splitlines()[-1])


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def sim_values(metrics):
    return {k: v["value"] for k, v in metrics.items() if k not in HOST_METRICS}


class PerfBenchTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_and_repeats_per_seed(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, out, res = drive(w, trace, seed=7)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    self.assertEqual(units(res["metrics"]),
                                     {m["name"]: m["unit"] for m in SPEC[key]})
                    self.assertIn("failed_frac", out)
                    if trace == 0:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
                    again = drive(w, trace, seed=7)[2]
                    self.assertEqual(sim_values(res["metrics"]), sim_values(again["metrics"]))

    def test_corrupted_target_byte_fails_the_run(self):
        code, out, res = drive(WORKLOADS[0], 0, extra=["--corrupt-byte"])
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("bad objects 1", out)

    def test_stale_shadow_fails_the_read_check(self):
        # The shadow misses 1 write in 50, so reads of those bytes differ.
        code, out, res = drive(WORKLOADS[0], 0, extra=["--stale-shadow-every", "50"])
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreater(int(re.search(r"read mismatches (\d+)", out).group(1)), 0, out)


if __name__ == "__main__":
    EXE = run.build()
    unittest.main()
