#!/usr/bin/env python3
"""Builds and runs the SceneRec end-to-end benchmark (perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_full --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the library
sources in src/ plus the perfbench_e2e program) into the build directory:
$CARGO_TARGET_DIR if set, else .bench_build. Build output goes to stderr, so
the last line of stdout is perfbench_e2e's JSON result. Exits non-zero, without
a result, if the sources are missing, the build fails or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_full", "serve_two_stage_swap")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configures (once) and builds; every step's output goes to stderr."""
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(bench_dir, build_dir)

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work_dir", work_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        fail(f"perfbench_e2e exited with {run.returncode}")


if __name__ == "__main__":
    main()
