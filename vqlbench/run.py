#!/usr/bin/env python3
"""Builds and runs the vqlsrv serving benchmark.

    python3 vqlbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0
    python3 vqlbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (vqldb's libraries, vqlsrv and the vqlbench load generator) into
.bench_build/; later runs rebuild incrementally. The last line of stdout is
the run's JSON result; `--workload all` runs every workload in turn and
prints one JSON line each.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["lookup", "derive", "ingest", "archive"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j4",
                  "--target", "vqlsrv", "vqlbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("benchmark build failed (see %s)\n" % log_path)
                return None
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmake_dir = build(build_dir)
    if cmake_dir is None:
        return 1
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [os.path.join(cmake_dir, "vqlbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(cmake_dir, "vqlsrv"),
               "--workdir", build_dir]
        sys.stdout.flush()
        rc = subprocess.call(cmd) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
