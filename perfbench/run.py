#!/usr/bin/env python3
"""Builds sqlpl and the benchmark driver from source, then runs one workload.

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root and is reused by later runs.
Temporary files, the native tier's compile directories among them, go
to its tmp/ subdirectory. Build output goes to stderr, so the last line
on stdout is the driver's JSON result. See README.md in this directory
for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root, env):
    """Configures once, then brings the driver up to date; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True, timeout=300,
                       env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                    "--parallel", jobs],
                   stdout=sys.stderr, check=True, timeout=840, env=env)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: sqlpl sources not found in " + ROOT)
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    try:
        driver = build(build_root, env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        sys.exit("perfbench: build failed: %s" % error)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # Input generation, set-up, native promotion and the full answer
        # check come on top of the measured seconds.
        result = subprocess.run(command, timeout=args.seconds + 120, env=env)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
