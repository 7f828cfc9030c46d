"""One front door for every simulation engine: :func:`simulate`.

Three ways run the same physics — single-site
:meth:`~repro.cluster.Datacenter.run`, the cross-site
:class:`~repro.sim.fleet.FleetEngine`, and the multi-site placement
replay of :mod:`repro.sim.detailed` — and :func:`simulate` routes by
the shape of its first argument(s) so callers say *what* to simulate
and the facade picks the engine:

=============================================  =========================
Input shape                                    Engine
=============================================  =========================
``simulate(datacenter, requests)``             ``Datacenter.run``
``simulate(fleet_site)``                       ``FleetEngine`` (1 site)
``simulate([fleet_site, ...])``                ``FleetEngine``
``simulate(problem, placement, traces)``       detailed placement replay
=============================================  =========================

Datacenters and fleets run on the step kernel (``engine="event"`` and
``"soa"`` are two names for it); ``engine="dense"`` selects the
object-model oracle on the datacenter route.  The fleet and placement
replay routes have one loop each and accept any valid engine name; an
unknown name is rejected on every route.  All routes return the
engines' native result types.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..cluster import Datacenter, SimulationResult
from ..errors import ConfigurationError
from ..sched import Placement, SchedulingProblem
from .detailed import DetailedResult, _replay_placement
from .fleet import FleetEngine, FleetSite

__all__ = ["simulate"]


def simulate(
    target,
    *args,
    engine: str = "event",
    record_events: bool = True,
    **kwargs,
) -> SimulationResult | dict[str, SimulationResult] | DetailedResult:
    """Run a simulation, routing to the right engine by input shape.

    Args:
        target: What to simulate — a :class:`~repro.cluster.Datacenter`
            (pass the VM requests as the second argument), a single
            :class:`FleetSite`, a sequence of them, or a
            :class:`~repro.sched.SchedulingProblem` (pass the
            :class:`~repro.sched.Placement` and the actual traces as
            the second and third arguments).
        engine: ``"event"`` / ``"soa"`` (the step kernel) or the
            ``"dense"`` oracle.  Only the datacenter route has two
            engines; the fleet and placement-replay routes check the
            name and run their one loop.
        record_events: Keep per-VM event logs on fleet runs (default
            on; single datacenters record events per their own
            construction flag).
        **kwargs: Route-specific options passed through (for placement
            replay: ``cluster``, ``eviction_order``, ``supply``,
            ``supply_mode``).

    Returns:
        The routed engine's native result: a
        :class:`~repro.cluster.SimulationResult` for a datacenter or a
        single fleet site, a ``{site name: SimulationResult}`` dict for
        a fleet, a :class:`DetailedResult` for placement replay.
    """
    if engine not in Datacenter.ENGINES:
        raise ConfigurationError(f"unknown simulation engine: {engine!r}")
    if isinstance(target, Datacenter):
        if len(args) != 1:
            raise ConfigurationError(
                "simulate(datacenter, requests) takes exactly the"
                " request list"
            )
        return target.run(args[0], engine=engine, **kwargs)
    if isinstance(target, FleetSite):
        if args:
            raise ConfigurationError(
                "simulate(fleet_site) takes no extra positional"
                " arguments — requests live on the FleetSite"
            )
        results = FleetEngine(
            [target], record_events=record_events
        ).run()
        return results[target.name]
    if isinstance(target, SchedulingProblem):
        if len(args) != 2:
            raise ConfigurationError(
                "simulate(problem, placement, actual_traces) takes"
                " exactly the placement and the actual traces"
            )
        placement, actual_traces = args
        if not isinstance(placement, Placement) or not isinstance(
            actual_traces, Mapping
        ):
            raise ConfigurationError(
                "simulate(problem, ...) expects (Placement,"
                " {site: PowerTrace})"
            )
        return _replay_placement(target, placement, actual_traces, **kwargs)
    if isinstance(target, Sequence) and not isinstance(
        target, (str, bytes)
    ):
        sites = list(target)
        if sites and all(isinstance(s, FleetSite) for s in sites):
            if args:
                raise ConfigurationError(
                    "simulate([sites...]) takes no extra positional"
                    " arguments"
                )
            return FleetEngine(
                sites, record_events=record_events
            ).run()
    raise ConfigurationError(
        "simulate() cannot route input of type"
        f" {type(target).__name__!r}; expected a Datacenter, FleetSite,"
        " sequence of FleetSite, or SchedulingProblem"
    )
