"""Per-VM multi-site execution: the detailed counterpart to the fluid
displacement model of :mod:`repro.sim.engine`.

Every site runs a real :class:`~repro.cluster.datacenter.Datacenter`
(servers, packing, round-robin eviction), all advancing in lock-step.
A VM evicted from its site hands off to the group member with the most
free powered cores and re-enters there as an in-migration; if nowhere
has room it waits in a displaced pool and retries each step.  Stable
VMs follow that migrate path; degradable VMs pause in place, exactly as
the paper prescribes.

The replay has one loop: every grid step advances every site once.
Skipping steps does not pay here — on hourly planning grids nearly
every step holds an arrival, a finish or a budget crossing.  Nor does
it run on the single-site :class:`~repro.cluster.kernel.StepKernel`,
whose semantics differ: the replay resumes any paused VM that fits
(the kernel stops at the first that does not), its arrivals have no
queue, patience or admission cap, and its displaced VMs land on
another site.

The fluid engine answers "how many bytes"; this one also answers
"which VM, onto which server, after how many hops" — and running both
on the same placement quantifies the fluid approximation's error
(see tests/test_detailed_sim.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .. import obs
from ..cluster import ClusterSpec
from ..cluster.datacenter import _ServerPool
from ..cluster.migration import EvictionOrder, EvictionPlanner
from ..cluster.vm import VM, VMState
from ..errors import ConfigurationError, SchedulingError
from ..sched.problem import Placement, SchedulingProblem
from ..supply import SupplyDispatcher, SupplyEvaluation, SupplyStack
from ..traces import PowerTrace
from ..workload import VMClass, VMRequest


@dataclass(frozen=True)
class DetailedSiteRecord:
    """Per-step accounting for one site in the detailed run."""

    step: int
    budget: int
    running_cores: int
    out_bytes: float
    in_bytes: float
    n_evicted: int
    n_landed: int
    n_paused: int
    n_resumed: int


class _DetailedColumns:
    """Columnar per-step measurements for one site."""

    __slots__ = (
        "n", "budget", "running_cores", "out_bytes", "in_bytes",
        "n_evicted", "n_landed", "n_paused", "n_resumed",
    )

    def __init__(self, n: int, budget: np.ndarray):
        self.n = n
        self.budget = budget
        self.running_cores = np.zeros(n, dtype=np.int64)
        self.out_bytes = np.zeros(n)
        self.in_bytes = np.zeros(n)
        self.n_evicted = np.zeros(n, dtype=np.int64)
        self.n_landed = np.zeros(n, dtype=np.int64)
        self.n_paused = np.zeros(n, dtype=np.int64)
        self.n_resumed = np.zeros(n, dtype=np.int64)


class DetailedResult:
    """Output of a detailed multi-site execution.

    Measurements are stored columnar per site; :attr:`records` (the
    per-site lists of :class:`DetailedSiteRecord`) is materialized
    lazily on first access.  Series accessors return the stored arrays
    directly — treat them as read-only.
    """

    def __init__(
        self,
        site_names: tuple[str, ...],
        columns: dict[str, _DetailedColumns],
        homeless_vm_steps: int,
        supply: dict[str, SupplyEvaluation] | None = None,
    ):
        self.site_names = site_names
        self.columns = columns
        self.homeless_vm_steps = homeless_vm_steps
        #: Per-site supply telemetry for sites that ran with a
        #: non-empty supply stack (empty dict otherwise).
        self.supply = supply or {}
        self._records: dict[str, list[DetailedSiteRecord]] | None = None
        self._total_transfer: np.ndarray | None = None

    @property
    def records(self) -> dict[str, list[DetailedSiteRecord]]:
        """Per-site step records (built from the columns on demand)."""
        if self._records is None:
            self._records = {}
            for name, c in self.columns.items():
                self._records[name] = [
                    DetailedSiteRecord(*row)
                    for row in zip(
                        range(c.n),
                        c.budget.tolist(),
                        c.running_cores.tolist(),
                        c.out_bytes.tolist(),
                        c.in_bytes.tolist(),
                        c.n_evicted.tolist(),
                        c.n_landed.tolist(),
                        c.n_paused.tolist(),
                        c.n_resumed.tolist(),
                    )
                ]
        return self._records

    def out_bytes_series(self, name: str) -> np.ndarray:
        """Out-migration bytes per step at one site."""
        return self.columns[name].out_bytes

    def in_bytes_series(self, name: str) -> np.ndarray:
        """In-migration (landing) bytes per step at one site."""
        return self.columns[name].in_bytes

    def total_transfer_series(self) -> np.ndarray:
        """Per-step migration bytes over all sites (out side counted).

        Each migration is one transfer; counting the out side only
        avoids double-counting the same bytes on landing.
        """
        if self._total_transfer is None:
            self._total_transfer = np.sum(
                [self.columns[name].out_bytes for name in self.site_names],
                axis=0,
            )
        return self._total_transfer

    def total_transfer_gb(self) -> float:
        """Total realized migration traffic in GB."""
        return float(self.total_transfer_series().sum()) / 1e9

    def summary_dict(self) -> dict:
        """JSON-ready summary following the shared result schema.

        See :data:`repro.sim.results.SUMMARY_SCHEMA` for the key
        contract shared with
        :meth:`~repro.sim.engine.ExecutionResult.summary_dict` and
        :meth:`~repro.cluster.datacenter.SimulationResult.summary_dict`.
        ``homeless_vm_steps`` is this class's extra key.
        """
        per_site: dict[str, dict] = {
            name: {
                "out_gb": float(self.columns[name].out_bytes.sum()) / 1e9,
                "in_gb": float(self.columns[name].in_bytes.sum()) / 1e9,
            }
            for name in self.site_names
        }
        for name, evaluation in self.supply.items():
            per_site[name]["supply"] = evaluation.summary()
        step_total = np.sum(
            [
                self.columns[name].out_bytes + self.columns[name].in_bytes
                for name in self.site_names
            ],
            axis=0,
        )
        return {
            "total_transfer_gb": self.total_transfer_gb(),
            "out_gb": sum(s["out_gb"] for s in per_site.values()),
            "in_gb": sum(s["in_gb"] for s in per_site.values()),
            "peak_step_gb": (
                float(step_total.max()) / 1e9 if step_total.size else 0.0
            ),
            "sites": per_site,
            "homeless_vm_steps": int(self.homeless_vm_steps),
        }


class _SiteState:
    """One site's cluster state inside the detailed executor."""

    def __init__(
        self,
        name: str,
        cluster: ClusterSpec,
        eviction_order: EvictionOrder = EvictionOrder.FIRST_PLACED,
    ):
        self.name = name
        self.cluster = cluster
        self.pool = _ServerPool(cluster)
        self.planner = EvictionPlanner(
            cluster.n_servers, eviction_order, pause_degradable=True
        )
        self.running_cores = 0
        self.paused: list[VM] = []

    def free_powered_cores(self, budget: int) -> int:
        """Cores available for new VMs under the current budget."""
        return max(0, budget - self.running_cores)

    def place(self, vm: VM) -> bool:
        """Try to place ``vm``; True on success."""
        server = self.pool.find(vm, "bestfit")
        if server is None:
            return False
        self.pool.host(server, vm)
        self.running_cores += vm.cores
        return True

    def evict(self, vm: VM) -> None:
        """Remove a running VM from this site."""
        server = self.pool.servers[vm.server_id]
        self.pool.release(server, vm)
        vm.evict()
        self.running_cores -= vm.cores

    def pause(self, vm: VM) -> None:
        """Pause a degradable VM in place."""
        vm.pause()
        self.running_cores -= vm.cores
        self.paused.append(vm)

    def resume_paused(self, budget: int) -> list[VM]:
        """Resume paused VMs while the budget allows; returns them.

        The returned VMs are exactly the RUNNING VMs whose finish needs
        re-scheduling — everything else running already carries a
        finish step.
        """
        resumed: list[VM] = []
        still_paused: list[VM] = []
        for vm in self.paused:
            if (
                vm.state is VMState.PAUSED
                and self.running_cores + vm.cores <= budget
            ):
                vm.resume()
                self.running_cores += vm.cores
                resumed.append(vm)
            else:
                still_paused.append(vm)
        self.paused = still_paused
        return resumed


def _build_vms(
    problem: SchedulingProblem, placement: Placement
) -> dict[str, dict[int, list[VM]]]:
    """Materialize per-site, per-arrival-step VM objects."""
    arrivals: dict[str, dict[int, list[VM]]] = {
        name: {} for name in problem.site_names
    }
    vm_id = 0
    for app in problem.apps:
        per_site = placement.assignment.get(app.app_id, {})
        stable_count = round(app.stable_fraction * app.vm_count)
        built = 0
        for name, count in per_site.items():
            for _ in range(count):
                vm_class = (
                    VMClass.STABLE
                    if built < stable_count
                    else VMClass.DEGRADABLE
                )
                request = VMRequest(
                    vm_id, app.arrival_step, app.duration_steps,
                    app.vm_type, vm_class,
                )
                arrivals[name].setdefault(app.arrival_step, []).append(
                    VM(request)
                )
                vm_id += 1
                built += 1
    return arrivals


def _norm_covering_cores(cores: int, total_cores: int) -> float:
    """Least normalized power whose floored budget covers ``cores``.

    The detailed executor's budget map is ``floor(norm * total)``; the
    closed-form inverse ``cores / total`` can truncate one core low, so
    nudge upward by ulps until it covers (bounded — the map is monotone
    and reaches ``cores`` by 1.0).
    """
    if cores <= 0:
        return 0.0
    if cores >= total_cores:
        return 1.0
    norm = cores / total_cores
    while int(np.floor(norm * total_cores)) < cores and norm < 1.0:
        norm = min(float(np.nextafter(norm, np.inf)), 1.0)
    return norm


def _replay_placement(
    problem: SchedulingProblem,
    placement: Placement,
    actual_traces: Mapping[str, PowerTrace],
    cluster: ClusterSpec | None = None,
    *,
    eviction_order: EvictionOrder = EvictionOrder.FIRST_PLACED,
    supply: "Mapping[str, SupplyStack] | SupplyStack | None" = None,
    supply_mode: str = "closed",
) -> DetailedResult:
    """Run a placement through per-VM site simulators.

    Args:
        problem: The planning problem (grid, apps, bytes/core unused
            here — real VM memory sizes drive traffic).
        placement: VM counts per (app, site).
        actual_traces: True generation per site, on the problem grid.
        cluster: Per-site cluster shape; sized to each site's
            total_cores with the paper's 40-core servers when omitted.
        eviction_order: Victim choice within a server during eviction
            (the paper leaves it unspecified; first-placed by default).
        supply: Optional supply stack(s) composed behind the actual
            traces — one stack for every site, or a per-site mapping
            (sites absent from the mapping run on the raw trace).
            Empty stacks are strict pass-throughs.
        supply_mode: ``"closed"`` (default) dispatches each site's
            stack every step against that site's live demand;
            ``"open"`` firms each trace up front.

    Returns:
        Per-site records plus cross-site handoff accounting.
    """
    if supply_mode not in ("closed", "open"):
        raise ConfigurationError(f"unknown supply mode: {supply_mode!r}")
    placement.validate_complete(problem)
    grid = problem.grid
    n = grid.n
    states: dict[str, _SiteState] = {}
    budgets: dict[str, np.ndarray] = {}
    evaluations: dict[str, SupplyEvaluation] = {}
    dispatchers: dict[str, SupplyDispatcher] = {}
    for site in problem.sites:
        trace = actual_traces.get(site.name)
        if trace is None:
            raise SchedulingError(
                f"no actual trace for site {site.name!r}"
            )
        if len(trace) != n:
            raise SchedulingError(
                f"trace for {site.name} has {len(trace)} steps,"
                f" expected {n}"
            )
        shape = cluster or ClusterSpec(
            n_servers=max(1, site.total_cores // 40)
        )
        states[site.name] = _SiteState(site.name, shape, eviction_order)
        if isinstance(supply, SupplyStack):
            stack: SupplyStack | None = supply
        elif supply is not None:
            stack = supply.get(site.name)
        else:
            stack = None
        if stack is not None and stack.stateless:
            stack = None
        values = trace.values
        if stack is not None:
            if supply_mode == "closed":
                dispatchers[site.name] = stack.dispatcher(trace)
                evaluations[site.name] = dispatchers[site.name].evaluation
            else:
                evaluation = stack.evaluate_open_loop(trace)
                evaluations[site.name] = evaluation
                values = evaluation.delivered
        budgets[site.name] = np.floor(
            values * shape.total_cores
        ).astype(int)

    arrivals = _build_vms(problem, placement)
    columns: dict[str, _DetailedColumns] = {
        name: _DetailedColumns(n, budgets[name]) for name in states
    }
    # VMs displaced and not yet landed anywhere.
    displaced_pool: list[VM] = []
    finish_at: dict[int, list[tuple[VM, str]]] = {}
    vm_site: dict[int, str] = {}
    homeless_vm_steps = 0

    def schedule_finish(vm: VM, site_name: str, step: int) -> None:
        finish = step + vm.remaining_steps
        vm.finish_step = finish
        finish_at.setdefault(finish, []).append((vm, site_name))
        vm_site[vm.vm_id] = site_name

    site_order = {name: index for index, name in enumerate(states)}

    def site_demand_cores(step: int) -> dict[str, int]:
        """Per-site cores wanting power this step (closed loop only).

        Running cores minus those completing this step, plus paused VMs
        and this step's assigned arrivals.  Displaced VMs are excluded —
        they have no home site until they land, so no single battery
        should discharge on their behalf.
        """
        finishing: dict[str, int] = {}
        for vm, _bucket_site in finish_at.get(step, []):
            if vm.state is VMState.RUNNING and vm.finish_step == step:
                home = vm_site[vm.vm_id]
                finishing[home] = finishing.get(home, 0) + vm.cores
        demand: dict[str, int] = {}
        for name, state in states.items():
            cores = state.running_cores - finishing.get(name, 0)
            for vm in state.paused:
                if vm.state is VMState.PAUSED:
                    cores += vm.cores
            for vm in arrivals[name].get(step, []):
                cores += vm.cores
            demand[name] = min(max(cores, 0), state.cluster.total_cores)
        return demand

    def process(step: int) -> None:
        """One lock-step advance of every site."""
        nonlocal displaced_pool, homeless_vm_steps
        if dispatchers:
            demand = site_demand_cores(step)
            step_budget = {}
            for name, state in states.items():
                dispatcher = dispatchers.get(name)
                if dispatcher is None:
                    step_budget[name] = int(budgets[name][step])
                    continue
                total = state.cluster.total_cores
                delivered = dispatcher.dispatch(
                    step, _norm_covering_cores(demand[name], total)
                )
                delivered = min(max(delivered, 0.0), 1.0)
                budget = int(np.floor(delivered * total))
                # Record the dispatched (firmed) budget, not the base.
                budgets[name][step] = budget
                step_budget[name] = budget
        else:
            step_budget = {
                name: int(budgets[name][step]) for name in states
            }
        # 1. Completions.  The bucket's site name can be stale when a
        # VM was evicted and re-landed with an unchanged finish step
        # (same-step handoff); vm_site holds the authoritative host.
        for vm, _bucket_site in finish_at.pop(step, []):
            if vm.state is not VMState.RUNNING or vm.finish_step != step:
                continue
            state = states[vm_site[vm.vm_id]]
            server = state.pool.servers[vm.server_id]
            vm.state = VMState.COMPLETED
            vm.finish_step = None
            state.pool.release(server, vm)
            vm.server_id = None
            state.running_cores -= vm.cores

        # 2. Power down: pause degradable, evict stable.
        for name, state in states.items():
            budget = step_budget[name]
            overflow = state.running_cores - budget
            if overflow > 0:
                cols = columns[name]
                to_migrate, to_pause = state.planner.plan(
                    state.pool.servers, overflow
                )
                for vm in to_pause:
                    if vm.finish_step is not None:
                        vm.remaining_steps = max(
                            1, vm.finish_step - step
                        )
                    vm.finish_step = None
                    state.pause(vm)
                    cols.n_paused[step] += 1
                for vm in to_migrate:
                    if vm.finish_step is not None:
                        vm.remaining_steps = max(
                            1, vm.finish_step - step
                        )
                    vm.finish_step = None
                    state.evict(vm)
                    displaced_pool.append(vm)
                    cols.out_bytes[step] += vm.memory_bytes
                    cols.n_evicted[step] += 1

        # 3. Resume paused VMs where power recovered.  Only the VMs
        # resumed here lack a finish step (arrivals and landings are
        # scheduled at placement), so re-scheduling scans exactly them
        # instead of every server in the fleet.
        for name, state in states.items():
            resumed = state.resume_paused(step_budget[name])
            columns[name].n_resumed[step] += len(resumed)
            for vm in resumed:
                schedule_finish(vm, name, step)

        # 4. Fresh arrivals at their assigned sites.
        for name, state in states.items():
            budget = step_budget[name]
            for vm in arrivals[name].get(step, []):
                if (
                    state.running_cores + vm.cores <= budget
                    and state.place(vm)
                ):
                    schedule_finish(vm, name, step)
                else:
                    displaced_pool.append(vm)

        # 5. Displaced VMs land at the group member with most headroom.
        # Candidates are sorted once per step (headroom descending,
        # ties by site declaration order — exactly the stable order the
        # per-VM re-sort used to produce) and the ranking is maintained
        # incrementally as landings consume headroom: only the landed
        # site's headroom shrinks, so it slides toward the back of the
        # list in one O(S) pass instead of re-sorting every site with
        # fresh key evaluation for each VM (O(V·S) vs O(V·S log S)).
        headroom = {
            name: state.free_powered_cores(step_budget[name])
            for name, state in states.items()
        }
        ranked = sorted(
            states.values(),
            key=lambda s: (-headroom[s.name], site_order[s.name]),
        )
        still_displaced: list[VM] = []
        for vm in displaced_pool:
            landed = False
            for position, state in enumerate(ranked):
                if state.running_cores + vm.cores > step_budget[state.name]:
                    continue
                if state.place(vm):
                    schedule_finish(vm, state.name, step)
                    was_migrated = vm.state is VMState.RUNNING and (
                        vm.migrations > 0
                    )
                    if was_migrated:
                        cols = columns[state.name]
                        cols.in_bytes[step] += vm.memory_bytes
                        cols.n_landed[step] += 1
                    landed = True
                    headroom[state.name] = state.free_powered_cores(
                        step_budget[state.name]
                    )
                    new_key = (
                        -headroom[state.name], site_order[state.name],
                    )
                    ranked.pop(position)
                    while position < len(ranked) and (
                        -headroom[ranked[position].name],
                        site_order[ranked[position].name],
                    ) < new_key:
                        position += 1
                    ranked.insert(position, state)
                    break
            if not landed:
                still_displaced.append(vm)
                homeless_vm_steps += 1
        displaced_pool = still_displaced

        for name, state in states.items():
            columns[name].running_cores[step] = state.running_cores

    with obs.span("sim.detailed", n_steps=n, n_sites=len(states)):
        for step in range(n):
            process(step)
        if obs.enabled():
            cols = columns.values()
            obs.count(
                "detailed.evictions", int(sum(c.n_evicted.sum() for c in cols))
            )
            obs.count(
                "detailed.landings", int(sum(c.n_landed.sum() for c in cols))
            )
            obs.count(
                "detailed.pauses", int(sum(c.n_paused.sum() for c in cols))
            )
            obs.count(
                "detailed.resumes", int(sum(c.n_resumed.sum() for c in cols))
            )
            obs.gauge("detailed.homeless_vm_steps", int(homeless_vm_steps))
        for name, evaluation in evaluations.items():
            evaluation.emit_metrics(site=name)
    return DetailedResult(
        tuple(problem.site_names), columns, homeless_vm_steps,
        supply=evaluations or None,
    )

