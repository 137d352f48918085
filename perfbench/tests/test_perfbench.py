#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/tests/test_perfbench.py

Each workload runs untraced and traced: both must pass their functional
checks, print every metric named in BENCHMARK.json with its unit, record the
seed, and print the same sim_digest (tracing must not change the simulation).
A copy of the benchmark without the simulator sources must fail without
printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(workload, trace, seed=SEED, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


class WorkloadTest(unittest.TestCase):
    def check(self, workload):
        """Runs both modes; returns the traced run's metric values."""
        records, values = {}, {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            expected = {m["name"]: m["unit"] for m in BENCH[key]}
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()}, expected)
            records[trace] = json.loads(lines[-2])["perfbench"]
            self.assertEqual(records[trace]["seed"], SEED)
            self.assertTrue(records[trace]["digests_agree"])
            values = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(records[0]["sim_digest"], records[1]["sim_digest"])
        return values

    def test_stream_remote(self):
        m = self.check("stream_remote")
        self.assertEqual(m["sim.events"], 0)
        self.assertGreater(m["nic.tx"], 0)
        self.assertGreaterEqual(m["model.err_pct"], 0)

    def test_serving_rack(self):
        m = self.check("serving_rack")
        for name in ("mem.accesses", "mem.writebacks", "nic.tx",
                     "nic.window_stalls"):
            self.assertEqual(m[name], 0, name)
        self.assertGreater(m["sim.events"], 0)
        self.assertGreater(m["sim.windows"], 0)
        self.assertGreater(m["ctrl.failovers"], 0)

    def test_seed_reaches_the_arrivals(self):
        digests = set()
        for seed in (SEED, SEED + 1):
            proc = run("serving_rack", 0, seed=seed)
            self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
            digests.add(json.loads(proc.stdout.splitlines()[-2])
                        ["perfbench"]["sim_digest"])
        self.assertEqual(len(digests), 2)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        build = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
        build.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(PERFBENCH, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(bare) / "out"))
            proc = run("stream_remote", 0, cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
