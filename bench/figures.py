"""Regenerate the reference figures of bench/README.md.

    python3 bench/figures.py

For every workload of BENCHMARK.json it makes one untraced run for each of
the seeds 1-10 and one traced run on seed 1, each run_seconds long, then
prints, as markdown: the median of each end-to-end metric with its spread
(interquartile range over the median), the failed share, the traced
per-layer split, and the tracing overhead (untraced over traced median
round throughput, minus one).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    print(f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"seeds {SEEDS.start}-{SEEDS.stop - 1}, {seconds} s a run\n")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        traced = bench(workload, SEEDS[0], seconds, 1)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"### {workload}\n\nfailed share {sorted(shares)}, "
              f"attempted {[r['attempted'] for r in runs]}\n")
        print("| metric | unit | median | spread | min | max |\n|---|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"| {name} | {first['unit']} | {median:.4g} | {spread:.3f} | "
                  f"{min(values):.4g} | {max(values):.4g} |")
        print("\n| layer metric | unit | traced value |\n|---|---|---|")
        for name, metric in traced["metrics"].items():
            print(f"| {name} | {metric['unit']} | {metric['value']:.4g} |")
        untraced = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs)
        overhead = untraced / traced["metrics"]["trace.ops_per_s"]["value"] - 1
        print(f"\ntracing overhead: {overhead:+.1%} of median round throughput\n")


if __name__ == "__main__":
    main()
