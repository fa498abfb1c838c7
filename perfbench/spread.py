"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 perfbench/spread.py WORKLOAD [--runs 10] [--first-seed 1]

Runs the benchmark once per seed (seeds first-seed .. first-seed+runs-1)
with BENCHMARK.json's run_seconds, then prints each metric's median and
its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} jobs failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
              + f"  run {time.perf_counter() - start:.1f}s", flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        print(f"{metric['name']:<14} median {statistics.median(vals):<12.6g} "
              f"spread {spread:.4f}  bound {metric['bound']}  "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
