#!/usr/bin/env python3
"""Measure how far each end-to-end metric spreads across seeds.

Runs ``run.py --workload W --seed S --trace 0`` once per seed for every
workload, then reports, per workload and metric, the median over seeds
and the spread: the distance between the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  A metric's regression bound in ``BENCHMARK.json``
must exceed the spread it shows here, or a comparison of two commits
cannot tell a change from the choice of seeds.

Usage, from the repository root::

    python3 benchmarks/e2e/calibrate.py [--seeds 10] [--first-seed 0] \\
        [--workloads fleet-year ...] [--out e2e-calibration.json]

Exits 1 when a spread (``setup_s`` excepted) reaches a third of its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from timing import relative_iqr

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    table: dict[str, dict[str, dict]] = {}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: failed checks", file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        table[name] = {}
        for metric, series in values.items():
            spread = relative_iqr(series)
            table[name][metric] = {
                "median": statistics.median(series),
                "spread": spread,
                "values": series,
            }
            flag = ""
            if metric != "setup_s" and spread >= bounds[metric] / 3:
                flag = "  <- spread at or above a third of the bound"
                steady = False
            print(f"{name:<14} {metric:<18} median"
                  f" {statistics.median(series):>12.6g}  spread"
                  f" {spread:6.3f}  bound {bounds[metric]}{flag}")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seeds": list(seeds), "workloads": table}, indent=1
        ) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
