#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root, for example:

    python3 perfbench/repeat.py --workload sweep-mod3 --seeds 1-10

Each run is ``run.py --trace 0`` in its own process, one after another,
measuring for BENCHMARK.json's ``run_seconds``.  For every
metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the quartile
spread as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])

    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if done.returncode != 0 or not result or not result["correct"]:
            failed = (f"{result['failed']} of {result['attempted']} checks "
                      f"failed" if result else "no result line")
            print(f"seed {seed}: exit {done.returncode}, {failed}\n"
                  f"{done.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": series}
        print(f"{args.workload} {name}: median {median:.6g}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": seconds, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
