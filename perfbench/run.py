#!/usr/bin/env python3
"""Build the SDFS reproduction from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload normal_day --seed 1 --seconds 10 --trace 0

The benchmark binary is built with cargo into ``$CARGO_TARGET_DIR``
(default ``.bench_build``). Build output goes to standard error; the
last line of standard output is the result object.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["normal_day", "heavy_day", "counter_campaign", "quick_campaign"]
# The measured run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()

    manifest = os.path.join("perfbench", "Cargo.toml")
    if not (os.path.isfile(manifest) and os.path.isdir("crates")):
        print("run.py: run from the repository root; the program sources "
              "(crates/) and perfbench/Cargo.toml must be present", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    commit = tool_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown"
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--rustc", tool_output(["rustc", "--version"]),
        "--commit", commit,
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"run.py: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
