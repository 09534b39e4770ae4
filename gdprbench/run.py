#!/usr/bin/env python3
"""Build GDPRbench from this checkout and run one workload.

    python3 gdprbench/run.py --workload controller-kv --seed 1 \
        --seconds 10 --trace 0
    python3 gdprbench/run.py --self-test

Run from the root of the checkout. The benchmark is configured and built
under .bench_build/gdprbench (CMake, Release) against the engine sources of
this checkout; build output goes to standard error. Standard output is the
benchmark's own: a full JSON report, then the summary JSON line last.
A traced run (--trace 1) also writes its spans as CSV under
.bench_build/gdprbench/traces.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "gdprbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output must not reach standard output.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true",
                   help="build and run the checker self-test")
    args = p.parse_args()

    if args.self_test:
        if not build("gdprbench_selftest"):
            return 2
        return subprocess.call([os.path.join(BUILD, "gdprbench_selftest")],
                               stdout=sys.stderr)
    if not args.workload:
        p.error("--workload is required")
    if not build("gdprbench"):
        return 2
    cmd = [os.path.join(BUILD, "gdprbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-dir", traces]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
