#!/usr/bin/env python3
"""Compare two result files of the end-to-end benchmark.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the reference (the parent commit), ``B`` the change.  For
every workload in both files:

* each end-to-end metric's median delta is printed against its bound
  from ``BENCHMARK.json``, signed so that positive is worse.  A metric
  is *unresolved* when the inter-quartile range of either side is wider
  than the bound, unless every sample of ``B`` beats every sample of
  ``A``.  When both runs used the same seed, a multi-instance
  workload's (``plan-week``'s) ``wall_s`` and ``site_years_per_s``
  samples are per-instance values over the same instances, so their
  deltas and spreads are taken over the per-instance ratios ``B/A``;
* per-layer self times are ranked by how far they moved, so that a
  regression names its layer;
* ``failed_frac`` may not rise, a simulation workload's digest of its
  simulated statistics may not change when both runs used the same
  seed, and ``plan-week``'s planned and executed migration may not grow
  by more than 0.5%.

Exits 1 on any regression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from timing import quartiles, relative_iqr

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Workloads whose digest covers simulated statistics that no
#: performance change may alter.
SIM_WORKLOADS = ("fleet-year", "fleet-battery", "twin-session")

#: Deterministic planner-quality rows and their bound.
QUALITY = (
    "sched.migration_gb.mip", "sched.migration_gb.window24",
    "sched.planned_gb.mip", "sched.planned_gb.window24",
)
QUALITY_BOUND = 0.005

#: Per-layer rows listed per workload, largest move first.
TOP_LAYER_ROWS = 5

#: End-to-end metrics whose samples are one value per instance (the
#: others are setup repeats or a single reading).
PER_INSTANCE = ("wall_s", "site_years_per_s")


def _worse(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``, positive when worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare_metric(a: dict, b: dict, better: str, bound: float,
                   paired: bool) -> tuple[float, str]:
    """``(worse, status)`` of one end-to-end metric."""
    sa, sb = a["samples"], b["samples"]
    if paired:
        ratios = [y / x for x, y in zip(sa, sb)]
        median = statistics.median(ratios)
        worse = median - 1 if better == "lower" else 1 - median
        spread = relative_iqr(ratios)
        if spread > bound:
            q1, _, q3 = quartiles(ratios)
            all_better = q3 < 1 if better == "lower" else q1 > 1
            return worse, "better" if all_better else "unresolved"
    else:
        worse = _worse(a["value"], b["value"], better)
        if max(relative_iqr(sa), relative_iqr(sb)) > bound:
            if better == "lower":
                all_better = max(sb) < min(sa)
            else:
                all_better = min(sb) > max(sa)
            return worse, "better" if all_better else "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound:
        return worse, "better"
    return worse, "ok"


def compare(a: dict, b: dict, spec: dict) -> list[str]:
    """Print the comparison; return the regressions found."""
    regressions: list[str] = []
    seeds_match = a["machine"]["seed"] == b["machine"]["seed"] and (
        a["settings"].get("tiny") == b["settings"].get("tiny")
    )
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            continue
        print(f"== {name}")
        # Per-instance samples line up only over the same instances.
        same_instances = seeds_match and (
            ra["instances"] > 1 and ra["instances"] == rb["instances"]
        )
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            worse, status = compare_metric(
                ra["end_to_end"][metric], rb["end_to_end"][metric],
                entry["better"], entry["bound"],
                paired=same_instances and metric in PER_INSTANCE,
            )
            print(f"  {metric:<20} {ra['end_to_end'][metric]['value']:>12.6g}"
                  f" -> {rb['end_to_end'][metric]['value']:>12.6g}"
                  f" {entry['unit']:<6} worse {100 * worse:+7.2f}%"
                  f" (bound {100 * entry['bound']:.0f}%)  {status}")
            if status == "REGRESSION":
                regressions.append(f"{name} {metric} {100 * worse:+.1f}%")
        if rb["failed_frac"] > ra["failed_frac"]:
            regressions.append(
                f"{name} failed_frac {ra['failed_frac']} -> {rb['failed_frac']}"
            )
        if seeds_match and ra["digest"] != rb["digest"]:
            print(f"  digest changed: {ra['digest']} -> {rb['digest']}")
            if name in SIM_WORKLOADS:
                regressions.append(f"{name} simulated statistics changed")
        la, lb = ra.get("per_layer"), rb.get("per_layer")
        if la is None or lb is None:
            continue
        if seeds_match:
            for metric in QUALITY:
                worse = _worse(la[metric]["value"], lb[metric]["value"],
                               "lower")
                if worse > QUALITY_BOUND:
                    regressions.append(f"{name} {metric} {100 * worse:+.2f}%")
        moved = sorted(
            (
                (lb_s - ra["layers"]["self_s"][layer], layer)
                for layer, lb_s in rb["layers"]["self_s"].items()
            ),
            key=lambda item: -abs(item[0]),
        )
        print("  layer self time moved most: " + ", ".join(
            f"{layer} {delta:+.3f} s" for delta, layer in moved[:3]
        ))
        deltas = []
        for metric, value in lb.items():
            before = la[metric]["value"]
            if before or value["value"]:
                change = _worse(before, value["value"], "lower")
                deltas.append((change, metric, before, value["value"]))
        deltas.sort(key=lambda item: -abs(item[0]))
        for change, metric, before, after in deltas[:TOP_LAYER_ROWS]:
            print(f"    {metric:<36} {before:>12.6g} -> {after:>12.6g}"
                  f"  {100 * change:+.1f}%")
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="reference result JSON")
    parser.add_argument("b", type=Path, help="changed result JSON")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    regressions = compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()), spec
    )
    for regression in regressions:
        print(f"REGRESSION: {regression}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
