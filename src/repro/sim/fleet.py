"""Cross-site fleet runs: many independent sites through one call.

The paper's §2.3 catalog analysis aggregates hundreds of EU wind/solar
sites, and its §3 migration study runs each of them on its own.
:class:`FleetEngine` takes every site in turn through the one per-site
driver — :meth:`~repro.cluster.datacenter.Datacenter.prepare_run` with a
:class:`~repro.cluster.kernel.StepKernel`, one
:meth:`~repro.cluster.datacenter.Datacenter.advance` over the whole
grid, :meth:`~repro.cluster.datacenter.Datacenter.finish_run` — inside
one ``fleet.run`` span.  Open-loop sites skip ahead between arrivals,
finishes, expiries and core-budget threshold crossings; closed-loop
sites dispatch their supply stack against their own live demand and
wake the kernel only at steps that need it.  Each site's
:class:`Datacenter` is dropped as soon as its result is built.

Sites share nothing, so nothing is batched across them: stepping
open-loop sites together over shared site-major matrices, and
closed-loop sites through a lockstep dispatcher, both measured slower
than this loop (DESIGN.md §5g).

The golden tests pin fleet output bit-identical (records and
summaries) to N independent ``Datacenter.run`` calls, the dense oracle
included.

Whether sites keep their per-VM event logs depends on the entry point.
``simulate([...])``, the route the ``Runner`` and the end-to-end
benchmark fleets take, keeps them (``record_events=True`` by default).
A direct ``FleetEngine(...)`` skips them unless given
``record_events=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .. import obs
from ..cluster.datacenter import Datacenter, DatacenterConfig, SimulationResult
from ..errors import ConfigurationError
from ..supply import SupplyStack
from ..traces import PowerTrace
from ..workload import VMRequest


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


class FleetEngine:
    """Run many datacenter sites, one after another, in one span.

    Args:
        sites: Fleet members; traces may differ in length.
        record_events: Keep each site's per-VM event log.  Off by
            default here, so a direct engine records per-step columns
            only; :func:`~repro.sim.simulate` passes ``True`` unless
            told otherwise.
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

    def run(self) -> dict[str, SimulationResult]:
        """Execute every site; returns results keyed by site name.

        Result-identical to running each site's :meth:`Datacenter.run`
        independently, on any engine (records, summaries, and supply
        telemetry — golden-tested against the dense oracle).
        """
        results = {}
        with obs.span(
            "fleet.run",
            n_sites=len(self.sites),
            n_steps=max(site.trace.grid.n for site in self.sites),
        ):
            for site in self.sites:
                datacenter = Datacenter(
                    site.config,
                    site.trace,
                    supply=site.supply,
                    supply_mode=site.supply_mode,
                    record_events=self.record_events,
                )
                state = datacenter.prepare_run(site.requests, kernel=True)
                datacenter.advance(state, state.n)
                results[site.name] = datacenter.finish_run(
                    state, engine="fleet"
                )
        return results
