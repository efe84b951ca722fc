#!/usr/bin/env python3
"""Build and run the FOAM end-to-end benchmark.

Run from the root of a source tree:

    python3 foambench/run.py --workload coupled_parallel --seed 1 \
        --seconds 25 --trace 0
    python3 foambench/run.py --selftest

The first call configures and builds the model and the benchmark (Release)
into .bench_build/ under the tree root; later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. --selftest builds and runs the tests of the benchmark's own
aggregation code instead. README.md in this directory documents the
workloads and metrics.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORKDIR = ROOT / ".bench_build" / "run"
WORKLOADS = ("coupled_parallel", "coupled_serial", "atm_amip")
# Leave one of the host's cores to the OS while compiling.
JOBS = str(max(1, (os.cpu_count() or 2) - 1))


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no FOAM sources under {ROOT / 'src'}; run from a "
                 "full source tree")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", JOBS], stdout=sys.stderr, check=True)
    return BUILD / target


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        if args.selftest:
            return subprocess.run([str(build("test_ledger"))]).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        binary = build("foam_bench")
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed: {e}")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    return subprocess.run([
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(WORKDIR)]).returncode


if __name__ == "__main__":
    sys.exit(main())
