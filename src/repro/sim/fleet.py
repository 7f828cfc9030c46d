"""Batched cross-site fleet engine: one columnar program, many sites.

The paper's §2.3 catalog analysis aggregates hundreds of EU wind/solar
sites; simulating them one :meth:`~repro.cluster.datacenter.Datacenter.run`
at a time leaves every fixed cost — column allocation, event-log
appends, per-site observability spans, window-scan dispatch — multiplied
by the fleet size.  :class:`FleetEngine` advances **all sites through
one program**:

* **Site-major matrices.**  Sites stack their per-step measurement
  columns (running cores, queue length, power, migration bytes, …) as
  row views carved out of one shared site-major matrix per column
  (:meth:`StepColumns.from_views`), and open-loop sites additionally
  stack their precomputed core-budget series into one
  ``(n_sites, n_steps)`` ``int64`` array — the fleet's state lives in a
  handful of 2D arrays, not thousands of per-site allocations.  The
  budget-threshold wake scan — the event engine's "when can this
  site's state change because of power?" question — runs as one
  vectorized 2D comparison per block across every live site, instead
  of one 1D scan per site per window.

* **SoA step kernels.**  Each site's cluster state advances through a
  :class:`~repro.cluster.kernel.StepKernel` — VM and server state as
  parallel arrays indexed by integers, not object graphs — so a wake
  costs flat array reads instead of attribute chases.  The kernels are
  golden-pinned bit-identical to the object model.

* **Shared wake heap keyed ``(step, site)``.**  Each site keeps at most
  one live entry: the earliest of its next arrival, VM finish, queue
  expiry, or budget-threshold crossing.  The engine pops wakes in
  global time order; because sites are mutually independent within a
  block, a popped site drains its whole chain of in-block wakes in one
  tight kernel loop (:meth:`StepKernel.drain_block`) before the next
  site is popped.

* **Block synchronization.**  The 2D crossing scans cover blocks of
  :data:`BLOCK_STEPS` grid steps; a site that processes a wake rescans only
  its own remaining block row (1D) under its updated thresholds, and
  sites untouched by a block cost one row of the shared comparison.

* **Lazy forward-fill.**  Skipped steps carry the running / allocated /
  queue-length state of the last processed step.  Per-site processed
  step lists let the finalizer reconstruct every skipped span with one
  ``np.repeat`` per column instead of one slice write per window.

* **Closed-loop sites run one at a time.**  Closed-loop supply sites
  (stateful :class:`SupplyStack` dispatched against live demand)
  cannot share the budget matrix — their budgets depend on each site's
  own demand trajectory — so each runs the per-site skip-ahead closed
  loop of :meth:`Datacenter.advance` inside the same fleet run: each
  step is dispatched and wakes the kernel only when an event is due or
  its budget crosses a wake threshold, and stretches where the stack
  is pinned are filled vectorized.  A
  lockstep ``(S,)``-lane dispatcher used to advance same-length groups
  of 16 or more sites one step at a time; it lost to the per-site path
  at every fleet size measured (2.1x slower at 16 sites, 1.4–1.6x at
  64–128, 1.9x at 512), so it was removed.

``Datacenter.advance`` shares every line of phase logic with the fleet
path (the same kernels, the same dispatch arithmetic), and the golden
tests pin fleet output bit-identical (records and summaries) to N
independent ``Datacenter.run`` calls, the dense oracle included.

By default fleet sites skip the per-VM event log
(``record_events=False``): at 500 sites × 1 year the audit trail is
pure overhead.  Pass ``record_events=True`` to keep it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .. import obs
from ..cluster.datacenter import (
    Datacenter,
    DatacenterConfig,
    EngineState,
    SimulationResult,
    StepColumns,
)
from ..errors import ConfigurationError
from ..supply import SupplyStack
from ..traces import PowerTrace
from ..workload import VMRequest

# Sentinels for the vectorized threshold scan: budgets are int64, so a
# lower bound below any budget / an upper bound above any budget turn
# the corresponding comparison off without branching.
_NO_LOWER = -(2**62)
_NO_UPPER = 2**62

#: Grid steps covered by each shared open-loop crossing scan.
BLOCK_STEPS = 4096


def crossing_scan(
    window: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> int | None:
    """First column of ``window`` where any row crosses its thresholds.

    The fleet engine's budget-threshold question as a standalone
    helper: row ``i`` crosses at column ``j`` when
    ``window[i, j] < lower[i]`` (a budget drop that forces evictions)
    or ``window[i, j] >= upper[i]`` (a rise that can resume or launch
    work).  Disable a bound with :data:`_NO_LOWER` / :data:`_NO_UPPER`.
    Returns the first crossing column index, or ``None`` when no step
    in the window crosses — shared with the detailed multi-site
    executor's event engine, whose sites wake together.
    """
    if window.shape[1] == 0:
        return None
    mask = (window < lower[:, None]) | (window >= upper[:, None])
    flat = mask.any(axis=0)
    hit = int(flat.argmax())
    return hit if flat[hit] else None


@dataclass(frozen=True)
class FleetSite:
    """One site of a fleet run.

    Attributes:
        name: Site label (keys the result mapping).
        config: Datacenter configuration.
        trace: Power trace driving the site.
        requests: VM arrivals to replay at the site.
        supply: Optional supply stack composed over the trace.
        supply_mode: ``"open"`` (precomputed delivery) or ``"closed"``
            (per-step dispatch against live demand).
    """

    name: str
    config: DatacenterConfig
    trace: PowerTrace
    requests: Sequence[VMRequest]
    supply: SupplyStack | None = None
    supply_mode: str = "open"


@dataclass(slots=True)
class _SiteRun:
    """Engine-internal per-site bookkeeping."""

    index: int
    site: FleetSite
    datacenter: Datacenter
    state: EngineState
    processed_steps: list[int] = field(default_factory=list)
    # Threshold bounds under which the current budget row scan is
    # valid; refreshed after every processed wake chain.
    lower: int = _NO_LOWER
    upper: int = _NO_UPPER


class FleetEngine:
    """Advance many datacenter sites through one columnar program.

    Args:
        sites: Fleet members; traces may differ in length (sites are
            grouped by grid length for the shared budget matrix).
        record_events: Keep each site's per-VM event log.  Off by
            default — fleet runs record per-step columns only.
    """

    def __init__(
        self,
        sites: Sequence[FleetSite],
        *,
        record_events: bool = False,
    ):
        if not sites:
            raise ConfigurationError("fleet needs at least one site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate site names: {names}")
        self.sites = tuple(sites)
        self.record_events = record_events

    # ------------------------------------------------------------------

    def run(self) -> dict[str, SimulationResult]:
        """Execute every site; returns results keyed by site name.

        Result-identical to running each site's :meth:`Datacenter.run`
        independently, on any engine (records, summaries, and supply
        telemetry — golden-tested against the dense oracle).
        """
        datacenters = [
            Datacenter(
                site.config,
                site.trace,
                supply=site.supply,
                supply_mode=site.supply_mode,
                record_events=self.record_events,
            )
            for site in self.sites
        ]
        # Sites grouped by grid length share one site-major matrix per
        # measurement column; each site's StepColumns are row views
        # into those matrices (the fleet's columnar state).
        members_by_length: dict[int, list[int]] = {}
        for i, dc in enumerate(datacenters):
            members_by_length.setdefault(
                dc.power_trace.grid.n, []
            ).append(i)
        cols_by_site: dict[int, StepColumns] = {}
        for n, members in members_by_length.items():
            matrices = {
                name: np.zeros(
                    (len(members), n),
                    dtype=(
                        float
                        if name in StepColumns.FLOAT_COLUMNS
                        else np.int64
                    ),
                )
                for name in StepColumns.__slots__[1:]
            }
            for row, i in enumerate(members):
                cols_by_site[i] = StepColumns.from_views(
                    n, {name: mat[row] for name, mat in matrices.items()}
                )
        runs = [
            _SiteRun(
                i, site, dc,
                dc.prepare_run(site.requests, cols_by_site[i], kernel=True),
            )
            for i, (site, dc) in enumerate(zip(self.sites, datacenters))
        ]
        n_steps = max(r.state.n for r in runs)
        with obs.span(
            "fleet.run", n_sites=len(runs), n_steps=n_steps
        ):
            # Closed-loop sites dispatch against their own live demand,
            # so their budgets cannot enter the shared matrix: each runs
            # the per-site skip-ahead closed loop.  Open-loop sites
            # share one columnar program per grid length (budget rows
            # must be the same width to stack).
            by_length: dict[int, list[_SiteRun]] = {}
            for run in runs:
                if run.state.closed:
                    run.datacenter.advance(run.state, run.state.n)
                else:
                    by_length.setdefault(run.state.n, []).append(run)
            for n, group in sorted(by_length.items()):
                self._run_group(n, group)
            results = {}
            for run in runs:
                if not run.state.closed:
                    run.state.processed = len(run.processed_steps)
                results[run.site.name] = run.datacenter.finish_run(
                    run.state, engine="fleet"
                )
        return results

    # ------------------------------------------------------------------

    def _run_group(self, n: int, group: list[_SiteRun]) -> None:
        """The columnar program over one same-length open-loop group."""
        if n == 0:
            return
        budgets = np.vstack([r.state.budgets for r in group])
        heap: list[tuple[int, int]] = []  # (step, group index)
        live = list(range(len(group)))
        block = BLOCK_STEPS
        b0 = 0
        while b0 < n and live:
            b1 = min(b0 + block, n)
            # One 2D threshold scan covers every live site's block row:
            # a budget below ``lower`` forces evictions, one at/above
            # ``upper`` can resume or launch — exactly the per-site
            # event engine's window scan, batched.
            idx = np.array(live)
            window = budgets[idx, b0:b1]
            lower = np.array([group[g].lower for g in live])
            upper = np.array([group[g].upper for g in live])
            mask = (window < lower[:, None]) | (window >= upper[:, None])
            hits = mask.argmax(axis=1)
            hit_valid = mask[np.arange(len(live)), hits]
            survivors = []
            for row, g in enumerate(live):
                run = group[g]
                wake = run.state.kernel.next_event()
                if hit_valid[row]:
                    crossing = b0 + int(hits[row])
                    if crossing < wake:
                        wake = crossing
                if wake < b1:
                    heappush(heap, (wake, g))
                    survivors.append(g)
                elif wake < n or run.upper != _NO_UPPER or (
                    run.lower != _NO_LOWER
                ):
                    # An event or a possible crossing remains ahead;
                    # re-examine at the next block.
                    survivors.append(g)
                # else: drained site — no events, no queue, no paused
                # work, nothing running.  Its remaining steps are one
                # forward-fill at finalize.
            live = survivors
            # Pop wakes in global time order.  Sites are mutually
            # independent, so a popped site drains its entire chain of
            # in-block wakes in one tight kernel loop — each site costs
            # one heap pop per block instead of one push+pop per wake.
            while heap:
                step, g = heappop(heap)
                run = group[g]
                wake, running, upper_b = run.state.kernel.drain_block(
                    step, budgets[g], b1, run.processed_steps
                )
                run.lower = running if running > 0 else _NO_LOWER
                run.upper = _NO_UPPER if upper_b is None else upper_b
            b0 = b1
        self._finalize_group(n, group)

    # ------------------------------------------------------------------

    @staticmethod
    def _finalize_group(n: int, group: list[_SiteRun]) -> None:
        """Forward-fill every skipped step from the processed ones.

        A skipped step carries the state of the last processed step —
        which the step kernel already wrote into its own column slot
        (:meth:`StepColumns.forward_fill`).  Steps before the first
        wake keep the zero initialization (nothing admitted or running
        yet), matching a per-site run's initial state.
        """
        for run in group:
            if run.processed_steps:
                run.state.cols.forward_fill(run.processed_steps, n)
