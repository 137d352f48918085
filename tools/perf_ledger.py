#!/usr/bin/env python3
"""Record end-to-end benchmark numbers in the perf ledger, BENCH_perf.json.

    python3 tools/perf_ledger.py --baseline ../parent --seed 1 --runs 10
    python3 tools/perf_ledger.py --baseline ../parent --seed 4242 --runs 5 \\
        --workloads serving_rack

Run from anywhere; paths are resolved against this checkout.  --baseline is
a checkout of the commit the change is measured against.  For every
workload in BENCHMARK.json (or --workloads), the script alternates
`perfbench/run.py --trace 0` runs of the two trees, --runs pairs of
BENCHMARK.json's run_seconds each; which side of a pair runs first
alternates too, so host drift hits both sides alike.  Under the key
"seed=<N>" of BENCH_perf.json at the repository root it writes:

  * per tree -- "parent" (the baseline) and "change" (this checkout) -- its
    commit, whether the working tree was dirty and, if so, the sha256 of
    `git diff HEAD` so the measured change is identifiable, and per
    workload the median and interquartile range of every end-to-end
    metric, the sim_digest of every run, and the count of failed runs;
  * per workload and metric, the number of pairs the change won (in the
    metric's "better" direction).

Each tree builds into its own .bench_build (CARGO_TARGET_DIR is dropped
from the runs' environment).  Other seeds' entries in an existing ledger
are kept.  Exits 1 when a run fails, when the runs of one tree print
different sim_digests, or when the two trees' digests differ.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Per-run budget: run.py kills a hung harness itself well before this.
RUN_TIMEOUT_S = 900
LEDGER = "BENCH_perf.json"


def log(msg):
    print(f"perf_ledger: {msg}", file=sys.stderr, flush=True)


def git(tree, *args):
    res = subprocess.run(["git", *args], cwd=tree, capture_output=True,
                         text=True, check=False)
    return res.stdout.strip() if res.returncode == 0 else ""


def tree_id(tree):
    """Commit of `tree`, and for a dirty tree the hash of its diff.  The
    ledger itself does not count: an earlier seed's run rewrites it."""
    paths = ["--", ".", f":(exclude){LEDGER}"]
    out = {"commit": git(tree, "rev-parse", "HEAD") or "unknown",
           "dirty": bool(git(tree, "status", "--porcelain",
                             "--untracked-files=no", *paths))}
    if out["dirty"]:
        diff = git(tree, "diff", "HEAD", "--no-ext-diff", *paths)
        out["diff_sha256"] = hashlib.sha256(diff.encode()).hexdigest()
    return out


def run_once(tree, workload, seed, seconds):
    """One untraced run.py invocation; returns (record, metrics) or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # Without CARGO_TARGET_DIR each tree builds into its own .bench_build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    try:
        res = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{tree}: {workload} timed out")
        return None
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    if res.returncode != 0 or len(lines) < 2:
        log(f"{tree}: {workload} exited {res.returncode}: "
            f"{res.stderr.strip()[-400:]}")
        return None
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, metric_names):
    """Median and IQR per metric, plus digests, over one tree's runs."""
    ok = [r for r in runs if r is not None]
    out = {"runs": len(runs), "failed": len(runs) - len(ok),
           "sim_digests": sorted({rec["sim_digest"] for rec, _ in ok}),
           "metrics": {}}
    for name in metric_names:
        values = [m[name]["value"] for _, m in ok if name in m]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        out["metrics"][name] = {"median": med, "iqr": q3 - q1,
                                "unit": ok[0][1][name]["unit"],
                                "values": values}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--baseline", type=Path, required=True,
                    help="checkout of the parent commit to alternate with")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset of BENCHMARK.json's")
    ap.add_argument("--out", type=Path, default=ROOT / LEDGER)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = set(wanted) - set(workloads)
        if unknown:
            ap.error(f"unknown workloads: {sorted(unknown)}")
        workloads = wanted
    if args.runs < 1 or args.seed < 0:
        ap.error("--runs must be >= 1 and --seed >= 0")
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    trees = {"parent": args.baseline.resolve(), "change": ROOT}
    # Identify the trees before the runs, so later edits do not count.
    ids = {label: tree_id(tree) for label, tree in trees.items()}
    raw = {label: {w: [] for w in workloads} for label in trees}
    labels = list(trees)
    for i in range(args.runs):
        for w in workloads:
            # Alternate which side of a pair runs first.
            for label in labels if i % 2 == 0 else labels[::-1]:
                log(f"run {i + 1}/{args.runs} {w} {label}")
                raw[label][w].append(run_once(trees[label], w, args.seed,
                                              seconds))

    entry = {"seed": args.seed, "seconds": seconds, "runs": args.runs,
             "trees": {}}
    status = 0
    for label in trees:
        entry["trees"][label] = {
            **ids[label],
            "workloads": {w: summarize(raw[label][w], better)
                          for w in workloads}}
        for w, s in entry["trees"][label]["workloads"].items():
            if s["failed"] or len(s["sim_digests"]) != 1:
                log(f"{label} {w}: {s['failed']} failed runs, "
                    f"digests {s['sim_digests']}")
                status = 1
    wins = {}
    for w in workloads:
        wins[w] = {}
        for name, direction in better.items():
            won = 0
            for p, c in zip(raw["parent"][w], raw["change"][w]):
                if p is None or c is None:
                    continue
                pv, cv = p[1][name]["value"], c[1][name]["value"]
                won += (cv > pv) if direction == "higher" else (cv < pv)
            wins[w][name] = won
    entry["pairs_won_by_change"] = wins
    for w in workloads:
        sides = [entry["trees"][t]["workloads"][w]["sim_digests"]
                 for t in trees]
        if sides[0] != sides[1]:
            log(f"{w}: parent and change digests differ: {sides}")
            status = 1

    ledger = json.loads(args.out.read_text()) if args.out.exists() else {}
    ledger[f"seed={args.seed}"] = entry
    args.out.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    log(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
