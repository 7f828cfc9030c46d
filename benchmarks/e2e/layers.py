"""Per-layer attribution of a traced pass.

The traced pass records two kinds of spans into one
:class:`repro.obs.MemorySink`:

* ``bench.<layer>.<call>`` spans that the benchmark opens around each
  call it makes into a layer's public function (``bench.pass`` and
  ``bench.setup`` are the benchmark's own roots);
* the spans and counters the program already emits (``stage:*``,
  ``mip.*``, ``fleet.run``, ``session.advance``, ``serve.request``,
  ``sim.wakes``, ``sim.phase.*_us``, ...).

A span's *self time* is its duration minus the part of that interval
covered by its child spans.  Each span name maps to one layer (the
module that does the work), so the self times of a layer's spans add up
to the time the pass spent in that layer and nowhere else.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable, Mapping

#: Layers, in report order.  ``bench`` is the benchmark's own glue.
LAYERS = (
    "traces", "workload", "forecast", "sched", "experiments",
    "sim", "supply", "serve",
)

#: Program span names (exact or ``prefix*``) → layer.
_PROGRAM_SPANS = (
    ("stage:traces", "traces"),
    ("stage:workload*", "workload"),
    ("stage:forecast", "forecast"),
    ("stage:solve:*", "sched"),
    ("stage:execute:*", "sched"),
    ("mip.*", "sched"),
    ("stage:simulate*", "sim"),
    ("stage:analyze", "experiments"),
    ("run:*", "experiments"),
    ("task:*", "experiments"),
    ("fleet.run", "sim"),
    ("datacenter.run", "sim"),
    ("session.advance", "sim"),
    ("supply.evaluate", "supply"),
    ("serve.request", "serve"),
)


def layer_of(name: str) -> str:
    """The layer a span belongs to (``bench`` / ``other`` if none)."""
    if name.startswith("bench."):
        layer = name.split(".")[1]
        return layer if layer in LAYERS else "bench"
    for pattern, layer in _PROGRAM_SPANS:
        if pattern.endswith("*"):
            if name.startswith(pattern[:-1]):
                return layer
        elif name == pattern:
            return layer
    return "other"


class SpanTree:
    """Spans of one process's trace, with parent/child links."""

    def __init__(self, records: Iterable[Mapping[str, Any]]):
        self.spans = [dict(r) for r in records if r.get("type") == "span"]
        self.by_id = {s["span_id"]: s for s in self.spans}
        self.children: dict[int, list[dict]] = defaultdict(list)
        for span in self.spans:
            parent = span.get("parent_id")
            if parent in self.by_id:
                self.children[parent].append(span)

    def self_time(self, span: Mapping[str, Any]) -> float:
        """Duration minus the union of the children's intervals."""
        start = span["start_s"]
        end = start + span["wall_s"]
        intervals = sorted(
            (max(c["start_s"], start), min(c["start_s"] + c["wall_s"], end))
            for c in self.children.get(span["span_id"], ())
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return max(span["wall_s"] - covered, 0.0)

    def descendants(self, span: Mapping[str, Any]) -> list[dict]:
        """Every span below ``span`` (not including it)."""
        out: list[dict] = []
        stack = list(self.children.get(span["span_id"], ()))
        while stack:
            child = stack.pop()
            out.append(child)
            stack.extend(self.children.get(child["span_id"], ()))
        return out

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def prefixed(self, prefix: str) -> list[dict]:
        return [s for s in self.spans if s["name"].startswith(prefix)]

    def layer_self(self, spans: Iterable[Mapping[str, Any]]) -> dict[str, float]:
        """Self time per layer over ``spans``."""
        totals = {layer: 0.0 for layer in LAYERS + ("bench", "other")}
        for span in spans:
            totals[layer_of(span["name"])] += self.self_time(span)
        return totals


def counter_total(records: Iterable[Mapping[str, Any]], name: str) -> float:
    """Sum of a counter's increments."""
    return float(sum(
        r["value"] for r in records
        if r.get("type") == "counter" and r.get("name") == name
    ))


#: Runner policy labels → ``sched.solve_s.<key>`` suffixes.
POLICY_KEYS = {
    "Greedy": "greedy",
    "MIP-24h": "rolling",
    "MIP": "mip",
    "MIP-w24": "window24",
}

#: Per-step kernel phases the simulator times when tracing is on.
PHASES = ("completions", "power_down", "resume", "arrivals", "launches")


def traced_metrics(
    records: list[Mapping[str, Any]],
    site_steps: int,
    supply_split_s: float = 0.0,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced setup + pass.

    Args:
        records: The sink's records (one ``bench.setup`` and one
            ``bench.pass`` root).
        site_steps: Simulated site-steps in the pass (wake fraction
            denominator).
        supply_split_s: Closed-loop supply dispatch time measured by
            differencing (closed-loop minus open-loop wall).  The
            batched dispatch runs inside ``fleet.run`` with no span of
            its own, so this much ``sim`` self time is moved to
            ``supply``.

    Returns:
        ``(metrics, pass_layers)`` — the span-derived per-layer
        metrics, and the self time per layer inside ``bench.pass``
        alone (for coverage and the dominant layer).
    """
    tree = SpanTree(records)
    roots = [s for s in tree.spans if s["name"] in ("bench.setup", "bench.pass")]
    everything = list(roots)
    for root in roots:
        everything.extend(tree.descendants(root))
    layers = tree.layer_self(everything)
    (pass_root,) = tree.named("bench.pass")
    pass_layers = tree.layer_self([pass_root] + tree.descendants(pass_root))
    moved = min(supply_split_s, pass_layers["sim"])
    for totals in (layers, pass_layers):
        totals["sim"] -= moved
        totals["supply"] += moved

    def wall(spans: Iterable[Mapping[str, Any]]) -> float:
        return float(sum(s["wall_s"] for s in spans))

    m: dict[str, float] = {
        "traces.synthesize_s": layers["traces"],
        "workload.generate_s": layers["workload"],
        "forecast.issue_s": layers["forecast"],
        "sched.self_s": layers["sched"],
        "experiments.runner_overhead_s": layers["experiments"],
        "sim.run_s": layers["sim"],
        "serve.self_s": layers["serve"],
    }
    for label, key in POLICY_KEYS.items():
        m[f"sched.solve_s.{key}"] = wall(tree.named(f"stage:solve:{label}"))
    assembles = tree.named("mip.assemble")
    windows = tree.named("mip.window")
    m["sched.mip.assemble_s"] = wall(assembles)
    m["sched.mip.solve_s"] = wall(tree.named("mip.solve"))
    m["sched.mip.windows"] = float(len(windows))
    m["sched.mip.window_solve_s_max"] = max(
        (s["wall_s"] for s in windows), default=0.0
    )
    m["sched.mip.nnz"] = float(sum(
        (s.get("attrs") or {}).get("nnz", 0) for s in assembles
    ))
    m["sched.execute_s"] = wall(tree.prefixed("stage:execute:"))

    wakes = counter_total(records, "sim.wakes")
    m["sim.wakes"] = wakes
    m["sim.wake_fraction"] = wakes / site_steps if site_steps else 0.0
    m["sim.us_per_wake"] = 1e6 * pass_layers["sim"] / wakes if wakes else 0.0
    for phase in PHASES:
        m[f"sim.phase.{phase}_us"] = counter_total(
            records, f"sim.phase.{phase}_us"
        )
    m["sim.completions"] = counter_total(records, "sim.completions")
    m["cluster.evictions"] = counter_total(records, "sim.evictions")

    advances = [s["wall_s"] for s in tree.named("session.advance")]
    m["serve.advance_ms_p50"] = (
        1e3 * statistics.median(advances) if advances else 0.0
    )
    overheads = []
    for tick in tree.named("bench.serve.tick"):
        inner = [
            d["wall_s"] for d in tree.descendants(tick)
            if d["name"] == "session.advance"
        ]
        overheads.append(tick["wall_s"] - sum(inner))
    m["serve.request_overhead_ms"] = (
        1e3 * statistics.median(overheads) if overheads else 0.0
    )
    m["obs.records"] = float(len(records))
    return m, pass_layers
