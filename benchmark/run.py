#!/usr/bin/env python3
"""Builds sptrsv_bench from source and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
build-benchmark/ (CMake, RelWithDebInfo); later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is sptrsv_bench's JSON
result. With --trace 1 the host-clock spans are written to
build-benchmark/spans-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, "build-benchmark")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "sptrsv_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build()
    cmd = [os.path.join(BUILD, "sptrsv_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
