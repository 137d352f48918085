#!/usr/bin/env python3
"""Run sets of benchmark runs and check their steadiness and determinism.

    python3 perfbench/sets.py --seeds 1-10 --sets 2

Runs every workload in BENCHMARK.json, untraced, for its run_seconds, once
per seed in each set.  For every workload and end-to-end metric, prints the
median of each set and the spread (interquartile distance / median, as
statistics.quantiles(n=4) gives it) next to the metric's bound.  With
--sets 2 the second median is compared with the first.  A run whose
functional check fails, a (workload, seed) whose runs print different
sim_digests, a spread beyond its bound and a drift between set medians
beyond its bound (in either direction) each fail.  Exit status 1 on any
failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = [dict() for _ in range(args.sets)]   # per set: metric -> list
        digests = {}
        for s in range(args.sets):
            for seed in seeds:
                record, result = run_once(workload, seed, bench["run_seconds"])
                if not result["correct"]:
                    print(f"FAIL {workload} seed {seed}: functional check")
                    ok = False
                digests.setdefault(seed, set()).add(record["sim_digest"])
                for name, m in result["metrics"].items():
                    values[s].setdefault(name, []).append(m["value"])
                print(f"  {workload} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                    flush=True)
        for seed, ds in digests.items():
            if len(ds) != 1:
                print(f"FAIL {workload} seed {seed}: sim_digest differs: {ds}")
                ok = False
        for name, bound in bounds.items():
            meds = [statistics.median(v[name]) for v in values]
            spreads = [spread(v[name]) for v in values] if len(seeds) >= 2 else []
            drifts = [abs(m - meds[0]) / meds[0] for m in meds[1:]]
            line = (f"{workload:14s} {name:14s} bound {bound}  medians "
                    + " ".join(f"{m:.6g}" for m in meds)
                    + "  spreads " + " ".join(f"{s:.4f}" for s in spreads)
                    + "  drift " + " ".join(f"{d:.4f}" for d in drifts))
            if any(s > bound for s in spreads):
                line += "  FAIL(spread)"
                ok = False
            elif any(s > bound / 3 for s in spreads):
                line += "  (spread above bound/3)"
            if any(d > bound for d in drifts):
                line += "  FAIL(drift)"
                ok = False
            print(line, flush=True)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
