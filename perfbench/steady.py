"""Rerun one workload with n seeds and report each metric's spread.

    python3 perfbench/steady.py --workload serve_brush --runs 5

For every end-to-end metric: the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) /
median, next to the metric's bound from ``BENCHMARK.json``.  A spread
above a third of its bound is flagged.  Runs are sequential; each is a
separate ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds() -> tuple[dict[str, float], float]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    return {m["name"]: m["bound"] for m in config["end_to_end"]}, config["run_seconds"]


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)} ({'same' if len(shares) == 1 else 'DIFFERS'})")
    worst = 0
    for name, bound in bounds.items():
        middle, q1, q3, share = spread([r["metrics"][name]["value"] for r in results])
        flag = "" if share <= bound / 3 or name == "setup_s" else "  <-- above bound/3"
        worst = max(worst, 1 if flag else 0)
        print(f"{name:18s} median={middle:<12.5g} q1={q1:<12.5g} q3={q3:<12.5g} "
              f"spread={share:.4f} bound={bound}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
