#!/usr/bin/env python3
"""Builds and runs the m2td end-to-end benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures and builds perfbench/CMakeLists.txt (the m2td libraries and
the benchmark program m2td_perfbench) as a Release build under
.bench_build/, then runs m2td_perfbench, whose last stdout line is the
JSON result. Every file the run writes stays under .bench_build/. Exits
non-zero without a result when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = (
    "pendulum_experiment",
    "lorenz_experiment",
)
# Wall-clock limits: a run that has to configure from scratch may take the
# long one, any other run the short one.
FIRST_RUN_LIMIT_S = 880
RUN_LIMIT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(source_dir, build_dir, deadline):
    """Configures (once) and builds the benchmark; returns its binary."""
    cmake_build = build_dir / "cmake"
    steps = []
    if not (cmake_build / "Makefile").exists():
        steps.append(["cmake", "-S", str(source_dir), "-B", str(cmake_build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_build), "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(step)} exited {done.returncode}")
    return cmake_build / "m2td_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    source_dir = Path(__file__).resolve().parent
    build_dir = Path(".bench_build").resolve()
    first_build = not (build_dir / "cmake" / "Makefile").exists()
    deadline = start + (FIRST_RUN_LIMIT_S if first_build else RUN_LIMIT_S)
    try:
        bench_bin = build(source_dir, build_dir, deadline)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        return 1

    runs_dir = build_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    command = [str(bench_bin), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace_out",
                    str(runs_dir / f"{args.workload}-seed{args.seed}.json")]
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run exceeded its time limit; stopping it")
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1
    if code != 0:
        log(f"m2td_perfbench exited {code}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
