#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload dense|serve|apps --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary (the library from
src/ plus perfbench/src/) into .bench_build/ with CMake, then runs it and
passes its output through. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the Chrome
trace-event file goes to .bench_build/trace/<workload>-seed<N>.json.
Exits non-zero without a result line when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "strassen_perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds the benchmark; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "strassen_perfbench",
              "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["dense", "serve", "apps"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (not a measurement)")
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: run failed (exit %d)\n" % proc.returncode)
        return 4
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
