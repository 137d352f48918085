#!/usr/bin/env python3
"""Build and run one tfsim benchmark workload.

    python3 perfbench/run.py --workload stream_remote --seed 1 --seconds 55 --trace 0

Run from the repository root.  The script compiles the simulator from ../src
together with the harness in perfbench/harness (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
harness.  Its last stdout line is the result object; see README.md.
Exits non-zero without a result when the sources or the build are missing.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream_remote", "serving_rack")
# Every harness run finishes well inside this; a hang is killed and fails.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return base.resolve() / "perfbench"


def build():
    """Configure once, then build incrementally; returns the harness path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       stdout=sys.stderr, check=True)
    return out / "perfbench"


def commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: self-test sizes")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    scenarios = ROOT / "scenarios"
    if not (ROOT / "src").is_dir() or not scenarios.is_dir():
        log(f"no simulator sources (src/, scenarios/) under {ROOT}")
        return 2
    try:
        harness = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    spans = build_dir() / f"spans-{args.workload}-seed{args.seed}.jsonl"
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--scenarios", str(scenarios),
           "--spans", str(spans), "--commit", commit()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1


if __name__ == "__main__":
    sys.exit(main())
