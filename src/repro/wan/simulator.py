"""Fluid max-min fair WAN simulation.

Flows share the topology's links with max-min fairness (progressive
filling), the standard fluid model of TCP-fair bulk transfers.  The
simulator is event-driven: between releases and completions, rates are
constant, so it advances directly to the next event instead of ticking.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sim.engine import ExecutionResult
from ..units import TimeGrid
from .flows import FlowResult, MigrationFlow
from .topology import WanTopology


def _max_min_rates(
    flows: Sequence[MigrationFlow], topology: WanTopology
) -> np.ndarray:
    """Max-min fair rates (bytes/s) for the active flows.

    Progressive filling: raise every unfrozen flow's rate uniformly
    until a link saturates, freeze that link's flows, repeat.
    """
    n = len(flows)
    rates = np.zeros(n)
    if n == 0:
        return rates
    # Build constraints: (capacity, member flow indices).
    constraints: list[tuple[float, list[int]]] = []
    sites = set()
    for flow in flows:
        sites.add(flow.src)
        sites.add(flow.dst)
    for site in sites:
        up = [i for i, f in enumerate(flows) if f.src == site]
        down = [i for i, f in enumerate(flows) if f.dst == site]
        capacity = topology.access_bytes_per_second(site)
        if up:
            constraints.append((capacity, up))
        if down:
            constraints.append((capacity, down))
    constraints.append(
        (topology.backbone_bytes_per_second, list(range(n)))
    )

    frozen = np.zeros(n, dtype=bool)
    residual = [capacity for capacity, _ in constraints]
    while not frozen.all():
        # Smallest equal increment that saturates some constraint.
        increment = np.inf
        for c, (capacity, members) in enumerate(constraints):
            active = [i for i in members if not frozen[i]]
            if active:
                increment = min(increment, residual[c] / len(active))
        if not np.isfinite(increment):
            break
        newly_frozen: set[int] = set()
        for c, (capacity, members) in enumerate(constraints):
            active = [i for i in members if not frozen[i]]
            if not active:
                continue
            residual[c] -= increment * len(active)
            if residual[c] <= 1e-9:
                newly_frozen.update(active)
        rates[~frozen] += increment
        if not newly_frozen:
            break
        for i in newly_frozen:
            frozen[i] = True
    return rates


class WanSimulator:
    """Event-driven fluid transfer simulation over a topology.

    Args:
        topology: Link capacities.
        step_seconds: Duration of one scheduler step (flow release
            times are given in steps).
    """

    def __init__(self, topology: WanTopology, step_seconds: float):
        if step_seconds <= 0:
            raise ConfigurationError(
                f"step duration must be positive: {step_seconds}"
            )
        self.topology = topology
        self.step_seconds = step_seconds

    def run(
        self,
        flows: Sequence[MigrationFlow],
        horizon_seconds: float | None = None,
    ) -> list[FlowResult]:
        """Simulate until every flow finishes (or the horizon ends).

        Returns:
            One :class:`FlowResult` per input flow, in input order.
        """
        ids = [flow.flow_id for flow in flows]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate flow ids")
        for flow in flows:
            if flow.src not in self.topology.site_names:
                raise ConfigurationError(f"unknown site {flow.src!r}")
            if flow.dst not in self.topology.site_names:
                raise ConfigurationError(f"unknown site {flow.dst!r}")
        order = sorted(
            range(len(flows)),
            key=lambda i: (flows[i].release_step, flows[i].flow_id),
        )
        remaining = {i: flows[i].size_bytes for i in order}
        release_time = {
            i: flows[i].release_step * self.step_seconds for i in order
        }
        start_time: dict[int, float] = {}
        finish_time: dict[int, float] = {}
        active: list[int] = []
        pending = list(order)
        now = 0.0

        while remaining and (
            horizon_seconds is None or now < horizon_seconds
        ):
            # Admit released flows.
            while pending and release_time[pending[0]] <= now + 1e-12:
                index = pending.pop(0)
                active.append(index)
                start_time[index] = max(now, release_time[index])
            if not active:
                if not pending:
                    break
                now = release_time[pending[0]]
                continue
            rates = _max_min_rates(
                [flows[i] for i in active], self.topology
            )
            # Time to the next completion or release at these rates.
            dt = np.inf
            for position, index in enumerate(active):
                if rates[position] > 0:
                    dt = min(dt, remaining[index] / rates[position])
            if pending:
                dt = min(dt, release_time[pending[0]] - now)
            if horizon_seconds is not None:
                dt = min(dt, horizon_seconds - now)
            if not np.isfinite(dt) or dt <= 0:
                dt = max(dt, 1e-9) if np.isfinite(dt) else (
                    horizon_seconds - now if horizon_seconds else 0.0
                )
                if dt <= 0:
                    break
            # Advance.
            still_active: list[int] = []
            for position, index in enumerate(active):
                moved = rates[position] * dt
                remaining[index] -= moved
                if remaining[index] <= 1e-6:
                    finish_time[index] = now + dt
                    del remaining[index]
                else:
                    still_active.append(index)
            active = still_active
            now += dt

        results: list[FlowResult] = []
        for i, flow in enumerate(flows):
            started = start_time.get(i, release_time[i])
            if i in finish_time:
                results.append(
                    FlowResult(flow, started, finish_time[i], True)
                )
            else:
                results.append(
                    FlowResult(flow, started, float("inf"), False)
                )
        return results


def flows_from_execution(
    execution: ExecutionResult, grid: TimeGrid, min_bytes: float = 1e9
) -> list[MigrationFlow]:
    """Derive WAN flows from a multi-site execution.

    Each step, a site's out-migration bytes become one flow to the
    group member with the most spare capacity at that step (where the
    displaced VMs would land), and its in-migration bytes one flow from
    that member back.  Transfers below ``min_bytes`` are ignored as
    control-plane noise.
    """
    names = [site.name for site in execution.sites]
    if len(names) < 2:
        raise ConfigurationError(
            "need at least two sites to generate WAN flows"
        )
    spare = {
        site.name: site.capacity - site.total_load
        for site in execution.sites
    }
    flows: list[MigrationFlow] = []
    flow_id = 0
    for site in execution.sites:
        out_bytes = site.out_bytes
        in_bytes = site.in_bytes
        for step in range(grid.n):
            total = out_bytes[step] + in_bytes[step]
            if total < min_bytes:
                continue
            others = [n for n in names if n != site.name]
            peer = max(others, key=lambda n: spare[n][step])
            if out_bytes[step] >= min_bytes:
                flows.append(
                    MigrationFlow(
                        flow_id, site.name, peer, float(out_bytes[step]),
                        step,
                    )
                )
                flow_id += 1
            if in_bytes[step] >= min_bytes:
                flows.append(
                    MigrationFlow(
                        flow_id, peer, site.name, float(in_bytes[step]),
                        step,
                    )
                )
                flow_id += 1
    return flows
