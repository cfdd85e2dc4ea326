#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload area-query --seeds 1-10

Each run is a fresh untraced ``run.py`` process, one after another (the
per-layer metrics carry no bounds, so no traced spread is needed).  For every
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  A benchmark metric is
steady when its spread stays well inside its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args(argv)

    values = {}
    failures = 0
    for seed in seeds(args.seeds):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"],
            capture_output=True, text=True)
        took = time.perf_counter() - start
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            failures += 1
            print(f"seed {seed}: FAILED (exit {done.returncode})\n"
                  f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({took:.0f} s): " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"\n{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s}  n")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:28s} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%}  {len(vals)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
