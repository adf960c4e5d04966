"""Steadiness check: run one workload N times and compare spreads to bounds.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload figure-cold --runs 10 [--first-seed 1]

Each run uses its own seed (``first-seed``, ``first-seed + 1``, ...) and
the run length from ``BENCHMARK.json``.  For every end-to-end metric the
command prints the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and the metric's bound.  A spread above a third of its bound is marked
``WIDE``; above the bound, ``OVER`` (``setup_s`` is exempt from the spread
rule, as it is compared by median only).  The exit code is 1 when a run
fails, reports ``correct: false``, or the share of failed operations
differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}

    results, status = [], 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, **result})
        share = result["failed"] / result["attempted"]
        values = " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed share={share:g} {values}", flush=True)
        if not result["correct"]:
            status = 1
    if len({r["failed"] / r["attempted"] for r in results}) > 1:
        print("failed share differs between runs")
        status = 1

    print(f"\n{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        mark = ""
        if name != "setup_s":
            mark = "OVER" if spread > bound else "WIDE" if spread > bound / 3 else "ok"
        print(f"{name:16} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f} {mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
