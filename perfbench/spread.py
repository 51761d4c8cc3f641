#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics on one workload.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workload <name> [--seeds 1-10]

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds), then prints, per end-to-end metric, the median of the runs
and their spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound and a third of it. Exits 1 when a run fails or reports a failed op.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=root)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.5g}"
                       for k, v in result["metrics"].items()), flush=True)
        if not result["correct"] or result["failed"]:
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        median = statistics.median(runs)
        q1, _, q3 = statistics.quantiles(runs, n=4)
        print(f"{metric['name']}: median={median:.5g} "
              f"spread={(q3 - q1) / median:.4f} bound={metric['bound']} "
              f"bound/3={metric['bound'] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
