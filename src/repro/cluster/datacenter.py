"""The single-site datacenter simulator (§3's experiment engine).

Per step, the simulator:

1. Derives the powered-core budget from the site's power trace.
2. Completes VMs whose lifetimes ended.
3. If running cores exceed the budget, frees cores: degradable VMs can
   be paused in place (optional), stable/remaining VMs are migrated out
   round-robin across servers — each eviction moves the VM's allocated
   memory across the WAN (the paper's traffic estimate).
4. Admits arrivals while allocation stays under the utilization cap and
   the power budget; arrivals that cannot start are queued ("rejected"
   in the paper's wording).
5. When power allows, launches queued VMs — each launch counts as an
   in-migration, again moving its memory footprint.

One engine path, plus an oracle:

``engine="event"`` (the default) and ``engine="soa"`` are two names for
the same run: the structure-of-arrays :class:`~repro.cluster.kernel.\
StepKernel` driven by :meth:`Datacenter.advance`.  It wakes only at
steps where something can happen — VM arrivals, scheduled finishes,
queue-patience expiries, and *power-change steps* where the core-budget
series crosses a wake threshold (budget below running cores →
eviction; budget at or above ``running + head_of_paused`` → resume;
budget reaching the smallest power-blocked queued VM's requirement →
launch).  Every skipped step is provably a no-op: between wake steps no
state mutates, so its record is a forward-fill of
running/allocated/queue-length with zero counts.

``engine="dense"`` steps every grid point over the ``VM`` / ``Server``
object model in this module — the golden oracle the kernel is pinned
against, not a production path.

Per-step records accumulate into preallocated numpy columns rather
than a list of dataclasses, and the oracle's placement uses a
free-core-bucketed server pool (sorted-list buckets with a
nonempty-bucket index).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..supply import SupplyDispatcher, SupplyEvaluation, SupplyStack
from ..traces import PowerTrace
from ..units import TimeGrid, bytes_to_gb
from ..workload import VMRequest
from .admission import AdmissionControl
from .events import EventKind, EventLog, NullEventLog
from .kernel import StepKernel
from .livemigration import LiveMigrationModel, estimate_migration
from .migration import EvictionOrder, EvictionPlanner
from .power import LinearCorePower, PowerModel, ServerGranularPower
from .resources import ClusterSpec
from .server import Server
from .vm import VM, VMState


@dataclass(frozen=True)
class DatacenterConfig:
    """Configuration of a single simulated VB site.

    Attributes:
        cluster: Hardware shape (paper: 700 x 40 cores x 512 GB).
        admission_utilization: Allocation cap as a fraction of total
            cores (paper: 0.70).
        allocation: Placement policy name: ``bestfit`` (default),
            ``firstfit``, or ``worstfit``.
        power_model: ``linear`` (cores scale with power, the paper's
            model) or ``server`` (server-granular gating with idle
            draw).
        eviction_order: Victim choice within a server during round-robin
            eviction.
        pause_degradable: Park degradable VMs in place instead of
            migrating them (the §3.1 co-scheduler behaviour).
        queue_patience_steps: How long a queued VM waits for power
            before giving up (and presumably being served elsewhere).
        power_relative_admission: When True (the paper's behaviour),
            the utilization cap is measured against *currently powered*
            capacity, so allocation tracks generation with headroom and
            minor dips are absorbed by unallocated cores.  When False
            the cap is static against total cores (ablation variant).
        migration_model: Optional pre-copy live-migration model (the
            paper's footnote-2 future work).  When set, migration
            traffic is the model's wire bytes (pre-copy amplification
            over the single memory copy the paper assumes) instead of
            the raw memory size.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    admission_utilization: float = 0.70
    allocation: str = "bestfit"
    power_model: str = "linear"
    eviction_order: EvictionOrder = EvictionOrder.FIRST_PLACED
    pause_degradable: bool = False
    queue_patience_steps: int = 96
    power_relative_admission: bool = True
    migration_model: "LiveMigrationModel | None" = None

    def __post_init__(self) -> None:
        if self.allocation not in ("bestfit", "firstfit", "worstfit"):
            raise ConfigurationError(
                f"unknown allocation policy: {self.allocation!r}"
            )
        if self.power_model not in ("linear", "server"):
            raise ConfigurationError(
                f"unknown power model: {self.power_model!r}"
            )
        if self.queue_patience_steps < 0:
            raise ConfigurationError(
                f"queue patience must be >= 0: {self.queue_patience_steps}"
            )


@dataclass(frozen=True)
class StepRecord:
    """Everything measured in one simulation step."""

    step: int
    norm_power: float
    core_budget: int
    running_cores: int
    allocated_cores: int
    out_bytes: float
    in_bytes: float
    n_arrivals: int
    n_admitted: int
    n_queued: int
    n_launched: int
    n_evicted: int
    n_paused: int
    n_resumed: int
    n_completed: int
    n_expired: int
    queue_length: int


class StepColumns:
    """Columnar per-step measurements, preallocated for the whole run.

    Count and byte columns start at zero, so skipped (no-op) steps only
    need their carried-forward state columns filled.
    """

    __slots__ = (
        "n", "norm_power", "core_budget", "running_cores",
        "allocated_cores", "out_bytes", "in_bytes", "n_arrivals",
        "n_admitted", "n_queued", "n_launched", "n_evicted", "n_paused",
        "n_resumed", "n_completed", "n_expired", "queue_length",
    )

    def __init__(self, n: int):
        self.n = n
        self.norm_power = np.zeros(n)
        self.core_budget = np.zeros(n, dtype=np.int64)
        self.running_cores = np.zeros(n, dtype=np.int64)
        self.allocated_cores = np.zeros(n, dtype=np.int64)
        self.out_bytes = np.zeros(n)
        self.in_bytes = np.zeros(n)
        self.n_arrivals = np.zeros(n, dtype=np.int64)
        self.n_admitted = np.zeros(n, dtype=np.int64)
        self.n_queued = np.zeros(n, dtype=np.int64)
        self.n_launched = np.zeros(n, dtype=np.int64)
        self.n_evicted = np.zeros(n, dtype=np.int64)
        self.n_paused = np.zeros(n, dtype=np.int64)
        self.n_resumed = np.zeros(n, dtype=np.int64)
        self.n_completed = np.zeros(n, dtype=np.int64)
        self.n_expired = np.zeros(n, dtype=np.int64)
        self.queue_length = np.zeros(n, dtype=np.int64)

    def forward_fill(self, steps: Sequence[int], stop: int) -> None:
        """Carry state from each of ``steps`` over the skipped steps.

        ``steps`` are sorted steps whose carried-state columns (running,
        allocated, queue length) already hold their values; every step
        between one of them and the next (or ``stop``) is a skipped
        no-op step that repeats it — one ``np.repeat`` per column.
        """
        idx = np.array(steps)
        lengths = np.diff(np.append(idx, stop))
        first = steps[0]
        for column in (
            self.running_cores, self.allocated_cores, self.queue_length
        ):
            column[first:stop] = np.repeat(column[idx], lengths)


class SimulationResult:
    """Full output of a single-site run.

    Measurements are stored columnar in :attr:`columns`; the
    :attr:`records` list of :class:`StepRecord` is materialized lazily
    on first access.  Series accessors return the stored arrays
    directly (one array per series for the run's lifetime) instead of
    rebuilding ``np.array([...])`` per call — treat them as read-only.
    """

    def __init__(
        self,
        grid: TimeGrid,
        config: DatacenterConfig,
        columns: StepColumns,
        events: EventLog,
        site_name: str | None = None,
        supply: SupplyEvaluation | None = None,
    ):
        self.grid = grid
        self.config = config
        self.columns = columns
        self.events = events
        self.site_name = site_name
        #: Per-step supply telemetry (SoC/charge/discharge/curtailment)
        #: when the site ran with a non-empty supply stack, else None.
        self.supply = supply
        self._records: list[StepRecord] | None = None
        self._out_gb: np.ndarray | None = None
        self._in_gb: np.ndarray | None = None
        self._utilization: np.ndarray | None = None

    @property
    def records(self) -> list[StepRecord]:
        """Per-step records (built from the columns on first access)."""
        if self._records is None:
            c = self.columns
            self._records = [
                StepRecord(*row)
                for row in zip(
                    range(c.n),
                    c.norm_power.tolist(),
                    c.core_budget.tolist(),
                    c.running_cores.tolist(),
                    c.allocated_cores.tolist(),
                    c.out_bytes.tolist(),
                    c.in_bytes.tolist(),
                    c.n_arrivals.tolist(),
                    c.n_admitted.tolist(),
                    c.n_queued.tolist(),
                    c.n_launched.tolist(),
                    c.n_evicted.tolist(),
                    c.n_paused.tolist(),
                    c.n_resumed.tolist(),
                    c.n_completed.tolist(),
                    c.n_expired.tolist(),
                    c.queue_length.tolist(),
                )
            ]
        return self._records

    def out_bytes_series(self) -> np.ndarray:
        """Out-migration traffic per step, bytes."""
        return self.columns.out_bytes

    def in_bytes_series(self) -> np.ndarray:
        """In-migration traffic per step, bytes."""
        return self.columns.in_bytes

    def out_gb_series(self) -> np.ndarray:
        """Out-migration traffic per step, GB (paper's unit)."""
        if self._out_gb is None:
            self._out_gb = bytes_to_gb(self.columns.out_bytes)
        return self._out_gb

    def in_gb_series(self) -> np.ndarray:
        """In-migration traffic per step, GB (paper's unit)."""
        if self._in_gb is None:
            self._in_gb = bytes_to_gb(self.columns.in_bytes)
        return self._in_gb

    def power_series(self) -> np.ndarray:
        """Normalized power per step."""
        return self.columns.norm_power

    def utilization_series(self) -> np.ndarray:
        """Allocated-core fraction per step."""
        if self._utilization is None:
            total = self.config.cluster.total_cores
            self._utilization = self.columns.allocated_cores / total
        return self._utilization

    def power_changes_without_migration_fraction(
        self, power_epsilon: float = 1e-9
    ) -> float:
        """Fraction of power *changes* that caused no migration traffic.

        The paper reports >80%: at 70% utilization, minor power moves
        are absorbed by powering (un)allocated cores up or down.
        """
        power = self.columns.norm_power
        if power.size < 2:
            return 1.0
        changed = np.abs(np.diff(power)) > power_epsilon
        changes = int(changed.sum())
        if changes == 0:
            return 1.0
        silent = int(
            (
                changed
                & (self.columns.out_bytes[1:] == 0.0)
                & (self.columns.in_bytes[1:] == 0.0)
            ).sum()
        )
        return silent / changes

    def migration_active_fraction(self, link_gbps: float = 200.0) -> float:
        """Fraction of wall-clock time the WAN link carries migrations.

        §5's discussion point: with a 200 Gbps link per site, migration
        is active only 2-4% of the time.  Each step's traffic occupies
        the link for ``bytes / link_rate`` seconds out of the step.
        """
        step_seconds = self.grid.step_seconds
        rate = link_gbps * 1e9 / 8.0
        total = self.columns.out_bytes + self.columns.in_bytes
        busy = np.minimum(total / rate, step_seconds)
        return float(np.sum(busy) / (self.columns.n * step_seconds))

    def summary_dict(self) -> dict:
        """JSON-ready summary following the shared result schema.

        See :data:`repro.sim.results.SUMMARY_SCHEMA` for the key
        contract shared with
        :meth:`~repro.sim.engine.ExecutionResult.summary_dict` and
        :meth:`~repro.sim.detailed.DetailedResult.summary_dict`.
        """
        out_gb = self.out_gb_series()
        in_gb = self.in_gb_series()
        out_total = float(out_gb.sum())
        in_total = float(in_gb.sum())
        peak = (
            float(max(out_gb.max(), in_gb.max())) if out_gb.size else 0.0
        )
        site = {
            "out_gb": out_total,
            "in_gb": in_total,
            "peak_step_gb": peak,
            "silent_power_change_fraction": (
                self.power_changes_without_migration_fraction()
            ),
            "wan_busy_fraction": self.migration_active_fraction(),
        }
        if self.supply is not None:
            site["supply"] = self.supply.summary()
        return {
            "total_transfer_gb": out_total + in_total,
            "out_gb": out_total,
            "in_gb": in_total,
            "peak_step_gb": peak,
            "sites": {self.site_name or "site": site},
        }


@dataclass
class EngineState:
    """Prepared per-run state of one site.

    Everything :meth:`Datacenter.run` derives from the request list and
    the supply mode before stepping — the per-step column store, the
    precomputed budget series (open loop), the step kernel, and the
    closed-loop dispatcher — extracted so :meth:`Datacenter.advance`,
    sessions, and the cross-site :class:`repro.sim.fleet.FleetEngine`
    can drive the same site machinery.

    Attributes:
        n: Grid length.
        grid: The run's time grid.
        cols: Columnar per-step measurements.
        budgets: Precomputed core-budget series; ``None`` in closed
            loop, where budgets depend on live demand.
        arrivals_by_step: Step → VMs arriving there, for the dense
            oracle; empty when the run was prepared with a kernel.
        n_requests: Requests offered (for telemetry).
        closed: True when a stateful stack dispatches per step.
        dispatcher: Closed-loop dispatch state, when ``closed``.
        evaluation: Supply telemetry columns (either mode), or None.
        processed: Wake steps executed so far.
        kernel: The SoA step kernel when the run was prepared with
            ``kernel=True``; it owns the arrival schedule, the event
            heaps, and the cursor :meth:`Datacenter.advance` resumes
            from.
        span_precompute: Whole-run base-power, round-trip, clipped and
            budget series a closed-loop run's pinned fills commit
            (built by the first :meth:`Datacenter.advance`); reset to
            ``None`` whenever the trace values behind it change.
    """

    n: int
    grid: TimeGrid
    cols: StepColumns
    budgets: np.ndarray | None
    arrivals_by_step: dict[int, list[VM]]
    n_requests: int
    closed: bool
    dispatcher: SupplyDispatcher | None
    evaluation: SupplyEvaluation | None
    processed: int = 0
    kernel: StepKernel | None = None
    span_precompute: tuple | None = None


class _ServerPool:
    """Servers bucketed by free cores for O(1)-ish placement queries.

    ``_buckets[f]`` holds the ids of servers with exactly ``f`` free
    cores as a *sorted list*, and ``_nonempty`` is a sorted index of
    the bucket sizes currently populated, so placement queries iterate
    only populated buckets (a nearly-full pool concentrates servers in
    a handful of low-free buckets).

    Sorted buckets make every query deterministic in the server id —
    placement picks the lowest id within the chosen bucket — so results
    are independent of the order in which the bucket was populated
    (sets, the previous representation, iterate in hash-history order).
    """

    def __init__(self, cluster: ClusterSpec):
        self.servers = [
            Server(i, cluster.server) for i in range(cluster.n_servers)
        ]
        self._max_cores = cluster.server.cores
        self._buckets: list[list[int]] = [
            [] for _ in range(self._max_cores + 1)
        ]
        self._buckets[self._max_cores] = list(range(cluster.n_servers))
        self._nonempty: list[int] = (
            [self._max_cores] if cluster.n_servers else []
        )

    def _move(self, server: Server, old_free: int) -> None:
        new_free = server.free_cores
        if new_free == old_free:
            return
        server_id = server.server_id
        bucket = self._buckets[old_free]
        index = bisect_left(bucket, server_id)
        del bucket[index]
        if not bucket:
            nonempty = self._nonempty
            del nonempty[bisect_left(nonempty, old_free)]
        target = self._buckets[new_free]
        if not target:
            insort(self._nonempty, new_free)
        insort(target, server_id)

    def host(self, server: Server, vm: VM) -> None:
        """Place ``vm`` and update buckets."""
        old_free = server.free_cores
        server.host(vm)
        self._move(server, old_free)

    def release(self, server: Server, vm: VM) -> None:
        """Remove ``vm`` and update buckets."""
        old_free = server.free_cores
        server.release(vm)
        self._move(server, old_free)

    def find(self, vm: VM, mode: str) -> Server | None:
        """Find a hosting server under the named policy.

        ``bestfit``: smallest adequate free-core count;
        ``worstfit``: largest free-core count;
        ``firstfit``: lowest server id among all that fit.
        Ties within a bucket resolve to the lowest server id.
        """
        need = vm.cores
        if need > self._max_cores:
            return None
        servers = self.servers
        nonempty = self._nonempty
        start = bisect_left(nonempty, need)
        if mode == "bestfit":
            for free in nonempty[start:]:
                for server_id in self._buckets[free]:
                    server = servers[server_id]
                    if server.fits(vm):
                        return server
            return None
        if mode == "worstfit":
            for free in reversed(nonempty[start:]):
                for server_id in self._buckets[free]:
                    server = servers[server_id]
                    if server.fits(vm):
                        return server
            return None
        # firstfit: lowest id overall; buckets are sorted, so scanning
        # each populated bucket can stop at the current best id.
        best_id = None
        for free in nonempty[start:]:
            for server_id in self._buckets[free]:
                if best_id is not None and server_id >= best_id:
                    break
                if servers[server_id].fits(vm):
                    best_id = server_id
                    break
        return servers[best_id] if best_id is not None else None


def _first_crossing(
    budgets: np.ndarray, running: int, upper: int | None
) -> int:
    """Index of the first budget that forces a wake, else ``len(budgets)``.

    A budget below ``running`` evicts or pauses work; one at or above
    ``upper`` (when set) can resume or launch it.
    """
    n = len(budgets)
    if not n or (not running and upper is None):
        return n
    if upper is None:
        cross = budgets < running
    elif running:
        cross = (budgets < running) | (budgets >= upper)
    else:
        cross = budgets >= upper
    hit = int(cross.argmax())
    return hit if cross[hit] else n


class Datacenter:
    """A single VB site: cluster + power trace + workload replay.

    Args:
        config: Site configuration.
        power_trace: Normalized generation; the cluster is fully powered
            at 1.0, matching the paper's scaling of the ELIA trace to
            the farm's max capacity.
        supply: Optional supply stack composed behind the trace.  An
            empty (or absent) stack is a strict pass-through: the run is
            bit-identical to the legacy raw-trace path.
        supply_mode: ``"closed"`` (default): the simulator queries the
            stack each processed step with its current demand, so the
            battery charges from real surplus and discharges into real
            dips.  The dense oracle executes every step; the kernel
            path dispatches per step too, but wakes the cluster only
            at steps that need it; where the stack is provably
            *pinned* (battery at a SoC bound, grid budget exhausted)
            for the balance sign, the dispatch is a bit-exact no-op
            and whole stretches are filled vectorized (see
            :meth:`advance`).
            ``"open"``: the stack's precomputed delivered series
            replaces the trace values up front and the engines run
            untouched, skips and all.
        record_events: Keep the per-VM event log (default).  ``False``
            records columns only — results are identical except
            :attr:`events` stays empty; a direct ``FleetEngine(...)``
            builds its sites that way, ``simulate([...])`` does not.
            Every run starts a fresh log.
    """

    def __init__(
        self,
        config: DatacenterConfig,
        power_trace: PowerTrace,
        supply: SupplyStack | None = None,
        supply_mode: str = "closed",
        record_events: bool = True,
    ):
        if supply_mode not in ("closed", "open"):
            raise ConfigurationError(
                f"unknown supply mode: {supply_mode!r}"
            )
        self.config = config
        self.power_trace = power_trace
        self.supply = supply
        self.supply_mode = supply_mode
        self.record_events = record_events
        self.admission = AdmissionControl(
            config.cluster.total_cores, config.admission_utilization
        )
        if config.power_model == "linear":
            self.power_model: PowerModel = LinearCorePower(config.cluster)
        else:
            self.power_model = ServerGranularPower(config.cluster)
        # Per-memory-size wire-byte cache for the live-migration model.
        self._wire_cache: dict[float, float] = {}
        # Per-phase wall-clock accumulators (sim.phase.* counters);
        # None keeps the hot step on its timer-free straight-line path.
        self._phase_seconds: dict[str, float] | None = None

    def _wire_bytes_for(self, memory_bytes: float) -> float:
        """Wire bytes for live-migrating a VM of ``memory_bytes``.

        One memory copy (the paper's estimate) without a migration
        model; the pre-copy model's amplified volume with one.  Only
        evictions amplify — a queued VM launching into the site is a
        cold transfer of a single memory image.
        """
        if self.config.migration_model is None:
            return memory_bytes
        cached = self._wire_cache.get(memory_bytes)
        if cached is None:
            cached = estimate_migration(
                memory_bytes, self.config.migration_model
            ).total_bytes
            self._wire_cache[memory_bytes] = cached
        return cached

    def _eviction_wire_bytes(self, vm: VM) -> float:
        """Bytes a live migration of ``vm`` actually puts on the wire."""
        return self._wire_bytes_for(vm.memory_bytes)

    # ------------------------------------------------------------------
    # Internal state transitions (all bookkeeping goes through these)
    # ------------------------------------------------------------------

    def _schedule_finish(self, vm: VM, step: int) -> None:
        finish = step + vm.remaining_steps
        vm.finish_step = finish
        self._finish_at.setdefault(finish, []).append(vm)

    def _start(self, vm: VM, server: Server, step: int) -> None:
        self.pool.host(server, vm)
        self._running_cores += vm.cores
        self._allocated_cores += vm.cores
        self._schedule_finish(vm, step)

    def _complete(self, vm: VM, step: int) -> None:
        server = self.pool.servers[vm.server_id]
        vm.state = VMState.COMPLETED
        vm.remaining_steps = 0
        vm.finish_step = None
        self.pool.release(server, vm)
        vm.server_id = None
        self._running_cores -= vm.cores
        self._allocated_cores -= vm.cores
        self.events.record(step, EventKind.COMPLETE, vm.vm_id)

    def _evict(self, vm: VM, step: int) -> float:
        server = self.pool.servers[vm.server_id]
        self.pool.release(server, vm)
        # Record how much work the VM still owes wherever it lands next.
        if vm.finish_step is not None:
            vm.remaining_steps = max(1, vm.finish_step - step)
        vm.finish_step = None
        vm.evict()
        self._running_cores -= vm.cores
        self._allocated_cores -= vm.cores
        wire_bytes = self._eviction_wire_bytes(vm)
        self.events.record(step, EventKind.EVICT, vm.vm_id, wire_bytes)
        return wire_bytes

    def _pause(self, vm: VM, step: int) -> None:
        # A paused VM keeps its server reservation (memory stays
        # resident) but its cores power down; it makes no progress, so
        # its remaining work freezes until resume.
        if vm.finish_step is not None:
            vm.remaining_steps = max(1, vm.finish_step - step)
        vm.finish_step = None
        vm.pause()
        self._running_cores -= vm.cores
        self._paused.append(vm)
        self.events.record(step, EventKind.PAUSE, vm.vm_id)

    def _resume(self, vm: VM, step: int) -> None:
        vm.resume()
        self._running_cores += vm.cores
        self._schedule_finish(vm, step)
        self.events.record(step, EventKind.RESUME, vm.vm_id)

    # ------------------------------------------------------------------
    # Step phases
    # ------------------------------------------------------------------

    def _phase_completions(self, step: int) -> int:
        finished = self._finish_at.pop(step, [])
        completed = 0
        for vm in finished:
            # Skip stale entries: the VM was paused or evicted after
            # this finish time was scheduled, or was re-scheduled to a
            # later finish (its authoritative finish_step moved on).
            if vm.state is not VMState.RUNNING or vm.finish_step != step:
                continue
            self._complete(vm, step)
            completed += 1
        return completed

    def _phase_power_down(
        self, step: int, budget: int
    ) -> tuple[float, int, int]:
        out_bytes = 0.0
        n_evicted = 0
        n_paused = 0
        overflow = self._running_cores - budget
        if overflow <= 0:
            return out_bytes, n_evicted, n_paused
        to_migrate, to_pause = self.planner.plan(
            self.pool.servers, overflow
        )
        for vm in to_pause:
            self._pause(vm, step)
            n_paused += 1
        for vm in to_migrate:
            out_bytes += self._evict(vm, step)
            n_evicted += 1
        return out_bytes, n_evicted, n_paused

    def _phase_resume(self, step: int, budget: int) -> int:
        n_resumed = 0
        while self._paused:
            vm = self._paused[0]
            if vm.state is not VMState.PAUSED:
                self._paused.popleft()
                continue
            if self._running_cores + vm.cores > budget:
                break
            self._paused.popleft()
            self._resume(vm, step)
            n_resumed += 1
        return n_resumed

    def _phase_arrivals(
        self, step: int, budget: int, arrivals: Sequence[VM]
    ) -> tuple[int, int]:
        if not arrivals:
            return 0, 0
        n_admitted = 0
        n_queued = 0
        cap_capacity = budget if self.config.power_relative_admission else None
        cap = self.admission.core_cap(cap_capacity)
        allocation = self.config.allocation
        find = self.pool.find
        record = self.events.record
        for vm in arrivals:
            cores = vm.cores
            server = (
                find(vm, allocation)
                if (
                    self._allocated_cores + cores <= cap
                    and self._running_cores + cores <= budget
                )
                else None
            )
            if server is not None:
                self._start(vm, server, step)
                record(step, EventKind.ADMIT, vm.vm_id)
                n_admitted += 1
            else:
                self._queue.append((vm, step))
                record(step, EventKind.QUEUE, vm.vm_id)
                n_queued += 1
        return n_admitted, n_queued

    def _phase_launches(
        self, step: int, budget: int
    ) -> tuple[float, int, int]:
        if not self._queue:
            return 0.0, 0, 0
        in_bytes = 0.0
        n_launched = 0
        n_expired = 0
        patience = self.config.queue_patience_steps
        cap_capacity = budget if self.config.power_relative_admission else None
        cap = self.admission.core_cap(cap_capacity)
        allocation = self.config.allocation
        find = self.pool.find
        record = self.events.record
        survivors: list[tuple[VM, int]] = []
        for _ in range(len(self._queue)):
            vm, queued_at = self._queue.popleft()
            if step - queued_at > patience:
                vm.state = VMState.REJECTED
                record(step, EventKind.REJECT, vm.vm_id)
                n_expired += 1
                continue
            headroom = min(
                max(0, cap - self._allocated_cores),
                budget - self._running_cores,
            )
            if headroom <= 0:
                # Nothing more can start this step; keep the rest queued.
                survivors.append((vm, queued_at))
                survivors.extend(self._queue)
                self._queue.clear()
                break
            if vm.cores > headroom:
                survivors.append((vm, queued_at))
                continue
            server = find(vm, allocation)
            if server is None:
                survivors.append((vm, queued_at))
                continue
            self._start(vm, server, step)
            in_bytes += vm.memory_bytes
            record(step, EventKind.LAUNCH, vm.vm_id, vm.memory_bytes)
            n_launched += 1
        self._queue.extend(survivors)
        return in_bytes, n_launched, n_expired

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _step(
        self,
        step: int,
        budget: int,
        arrivals: Sequence[VM],
        cols: StepColumns,
    ) -> None:
        """Execute one simulation step and record it columnar.

        Phase timing (the ``sim.phase.*`` counters) only runs when
        :meth:`prepare_run` armed :attr:`_phase_seconds` — the default
        path stays a straight line with zero timing overhead.
        """
        timers = self._phase_seconds
        if timers is None:
            n_completed = self._phase_completions(step)
            out_bytes, n_evicted, n_paused = self._phase_power_down(
                step, budget
            )
            n_resumed = self._phase_resume(step, budget)
            n_admitted, n_queued = self._phase_arrivals(
                step, budget, arrivals
            )
            in_bytes, n_launched, n_expired = self._phase_launches(
                step, budget
            )
        else:
            t0 = perf_counter()
            n_completed = self._phase_completions(step)
            t1 = perf_counter()
            timers["completions"] += t1 - t0
            out_bytes, n_evicted, n_paused = self._phase_power_down(
                step, budget
            )
            t2 = perf_counter()
            timers["power_down"] += t2 - t1
            n_resumed = self._phase_resume(step, budget)
            t3 = perf_counter()
            timers["resume"] += t3 - t2
            n_admitted, n_queued = self._phase_arrivals(
                step, budget, arrivals
            )
            t4 = perf_counter()
            timers["arrivals"] += t4 - t3
            in_bytes, n_launched, n_expired = self._phase_launches(
                step, budget
            )
            timers["launches"] += perf_counter() - t4
        cols.running_cores[step] = self._running_cores
        cols.allocated_cores[step] = self._allocated_cores
        cols.out_bytes[step] = out_bytes
        cols.in_bytes[step] = in_bytes
        cols.n_arrivals[step] = len(arrivals)
        cols.n_admitted[step] = n_admitted
        cols.n_queued[step] = n_queued
        cols.n_launched[step] = n_launched
        cols.n_evicted[step] = n_evicted
        cols.n_paused[step] = n_paused
        cols.n_resumed[step] = n_resumed
        cols.n_completed[step] = n_completed
        cols.n_expired[step] = n_expired
        cols.queue_length[step] = len(self._queue)

    def _run_dense(
        self,
        n: int,
        budgets: np.ndarray,
        arrivals_by_step: dict[int, list[VM]],
        cols: StepColumns,
    ) -> int:
        """The dense oracle: execute every grid step.

        Returns the number of steps processed (all of them).
        """
        budget_list = budgets.tolist()
        for step in range(n):
            self._step(
                step, budget_list[step], arrivals_by_step.get(step, ()), cols
            )
        return n

    def _demand_cores(self, step: int, arrivals: Sequence[VM]) -> int:
        """Cores the site could productively power this step.

        Work that wants power right now: currently running cores minus
        those completing this step, plus paused VMs awaiting resume,
        queued VMs awaiting launch, and this step's arrivals — capped
        at the cluster size.  An upper estimate (packing and the
        admission cap may keep some of it from starting), which errs
        toward discharging for work that then queues rather than
        browning out work that could run.
        """
        finishing = 0
        bucket = self._finish_at.get(step)
        if bucket:
            seen: set[int] = set()
            for vm in bucket:
                if (
                    vm.state is VMState.RUNNING
                    and vm.finish_step == step
                    and vm.vm_id not in seen
                ):
                    seen.add(vm.vm_id)
                    finishing += vm.cores
        demand = self._running_cores - finishing
        for vm in self._paused:
            if vm.state is VMState.PAUSED:
                demand += vm.cores
        for vm, _ in self._queue:
            demand += vm.cores
        for vm in arrivals:
            demand += vm.cores
        return min(max(demand, 0), self.config.cluster.total_cores)

    def _run_closed(
        self,
        n: int,
        arrivals_by_step: dict[int, list[VM]],
        cols: StepColumns,
        dispatcher: SupplyDispatcher,
    ) -> int:
        """The dense closed-loop oracle: dispatch the stack every step.

        Battery SoC (and grid budget) evolve from every step's balance;
        the oracle never reasons about which of those steps are no-ops,
        so it executes all ``n`` of them.
        """
        core_budget = self.power_model.core_budget
        norm_for_cores = self.power_model.norm_for_cores
        dispatch = dispatcher.dispatch
        for step in range(n):
            arrivals = arrivals_by_step.get(step, ())
            demand_norm = norm_for_cores(self._demand_cores(step, arrivals))
            delivered = dispatch(step, demand_norm)
            delivered = min(max(delivered, 0.0), 1.0)
            budget = core_budget(delivered)
            cols.norm_power[step] = delivered
            cols.core_budget[step] = budget
            self._step(step, budget, arrivals, cols)
        return n

    def advance(self, state: EngineState, until: int) -> int:
        """Execute a kernel-prepared run up to (not including) ``until``.

        The single per-site stepping loop, in both supply modes: a batch
        run or fleet site is ``advance(state, n)``, a session is repeated
        calls with a growing ``until``.  The cursor is the kernel's
        :attr:`~repro.cluster.kernel.StepKernel.last` — every step at or
        below it is final — and each call executes ``[last + 1, until)``
        then leaves ``last = until - 1``.  That is safe because every
        event below ``until`` has been processed, so the heap entries it
        strands are provably stale; splitting a run into segments
        therefore changes no column, event-log entry, or supply value.

        Each window runs from the cursor to the next arrival, finish or
        queue expiry (or ``until``).  Its steps are no-ops unless the
        core budget falls below the running cores or reaches the resume
        / launch threshold; the first such step, else the event ending
        the window, is the next wake (``StepKernel.step_wake``).  Open
        loop, one scan of the precomputed budgets finds it.  Closed loop
        dispatches the window step by step against the current demand,
        or, while the stack is *pinned* (every battery at the relevant
        SoC bound, every grid budget exhausted), fills it vectorized
        with :meth:`_fill_pinned` — bit-identical to per-step dispatch,
        golden-tested against :meth:`_run_closed`.  One
        :meth:`StepColumns.forward_fill` per call carries each wake's
        running / allocated cores and queue length over the no-ops.

        The window state (next event, wake thresholds, demand) only
        changes at wakes and is read from the kernel at every window, so
        a call's start is like any other step, and a run takes the same
        wakes wherever it is cut.

        Args:
            state: A :meth:`prepare_run` state built with ``kernel=True``.
            until: One past the last step to execute (clamped to the
                grid).

        Returns:
            Wake steps processed in the segment (also added to
            ``state.processed``).
        """
        kernel = state.kernel
        start = kernel.last + 1
        until = min(until, state.n)
        if until <= start:
            return 0
        budgets = state.budgets
        if state.closed:
            dispatcher = state.dispatcher
            if state.span_precompute is None:
                # A pinned stretch behaves open-loop: delivered is the
                # base round trip (modulo the rare covered-demand ulp
                # clamp), so the whole-run clip and budget series are
                # computed once and fills commit views into them.
                base_mw = dispatcher.base_mw_series()
                rt_full = base_mw / dispatcher.capacity_mw
                clipped_full = np.clip(rt_full, 0.0, 1.0)
                state.span_precompute = (
                    base_mw, rt_full, clipped_full,
                    self.power_model.core_budget_series(clipped_full),
                )
            base_mw = state.span_precompute[0]
            core_budget = self.power_model.core_budget
            norm_for_cores = self.power_model.norm_for_cores
            dispatch = dispatcher.dispatch
            pinned = dispatcher.pinned
            capacity = dispatcher.capacity_mw
            norm_power = state.cols.norm_power
            budget_col = state.cols.core_budget
        # Skipped steps carry the state of the last wake before them;
        # the step before the segment already holds it for the prefix.
        wakes = [start - 1] if start else []
        seeded = len(wakes)
        step = start
        while step < until:
            event = kernel.next_event()
            if event <= step:
                # The due event wakes this step whatever its budget, so
                # it needs no wake thresholds.
                running, upper = 0, None
                stop = step + 1
            else:
                running, upper = kernel.wake_bounds()
                stop = event if event < until else until
            if budgets is not None:
                # The window's first crossing wakes, else the event that
                # ends it; a due event has no window to scan.
                wake = event
                if event > step:
                    hit = step + _first_crossing(
                        budgets[step:stop], running, upper
                    )
                    if hit < stop:
                        wake = hit
                if wake >= until:
                    break
                budget = int(budgets[wake])
            else:
                # Before the event, demand is constant: running, paused
                # and queued only mutate at wakes, and no VM finishes.
                demand = (
                    kernel.demand_at(step) if event <= step
                    else kernel.window_demand()
                )
                demand_norm = max(norm_for_cores(demand), 0.0)
                demand_mw = demand_norm * capacity
                while step < stop:
                    if step < event and pinned(base_mw[step] >= demand_mw):
                        step = self._fill_pinned(
                            state, step, stop, demand_norm, running, upper
                        )
                        if step == stop:
                            break
                    delivered = dispatch(step, demand_norm)
                    delivered = min(max(delivered, 0.0), 1.0)
                    budget = core_budget(delivered)
                    norm_power[step] = delivered
                    budget_col[step] = budget
                    if (
                        step >= event
                        or budget < running
                        or (upper is not None and budget >= upper)
                    ):
                        break
                    step += 1
                if step == stop:
                    continue
                wake = step
            kernel.step_wake(wake, budget)
            wakes.append(wake)
            step = wake + 1
        if wakes:
            state.cols.forward_fill(wakes, until)
        kernel.last = until - 1
        processed = len(wakes) - seeded
        state.processed += processed
        return processed

    def _fill_pinned(
        self,
        state: EngineState,
        start: int,
        stop: int,
        demand_norm: float,
        running: int,
        upper: int | None,
    ) -> int:
        """Commit the pinned prefix of a constant-demand window.

        With the stack pinned for a balance sign, a dispatch on that
        sign returns the base round trip, clamped up to the demand on
        covered steps (the ulp guard of
        :meth:`~repro.supply.SupplyDispatcher.dispatch`).  The prefix
        ends at the first step of ``[start, stop)`` whose sign the stack
        is not pinned for, or whose budget crosses a wake threshold; its
        step and supply columns are written here.

        Returns:
            One past the prefix: ``stop``, or the step the caller must
            dispatch itself.
        """
        dispatcher = state.dispatcher
        base_mw, rt_full, clipped_full, budgets_full = state.span_precompute
        demand_mw = demand_norm * dispatcher.capacity_mw
        # ``covered`` doubles as the balance sign:
        # balance >= 0  ⟺  base_mw >= demand_mw.
        covered = base_mw[start:stop] >= demand_mw
        pinned_surplus = dispatcher.pinned(True)
        if not (pinned_surplus and dispatcher.pinned(False)):
            off_sign = ~covered if pinned_surplus else covered
            flip = int(np.argmax(off_sign))
            if off_sign[flip]:
                stop = start + flip
                covered = covered[:flip]
        rt = rt_full[start:stop]
        # The clamp fires only when the round trip lands an ulp under
        # the demand, so the common case commits precomputed views.
        clamp = covered & (rt < demand_norm)
        if clamp.any():
            delivered = np.where(clamp, demand_norm, rt)
            clipped = np.clip(delivered, 0.0, 1.0)
            budgets = self.power_model.core_budget_series(clipped)
        else:
            delivered = rt
            clipped = clipped_full[start:stop]
            budgets = budgets_full[start:stop]
        width = _first_crossing(budgets, running, upper)
        end = start + width
        if width:
            cols = state.cols
            cols.norm_power[start:end] = clipped[:width]
            cols.core_budget[start:end] = budgets[:width]
            dispatcher.fill_skipped(
                start, end, base_mw[start:end] - demand_mw,
                delivered[:width],
            )
        return end

    # ------------------------------------------------------------------
    # Run preparation / finalization (shared with sessions and fleets)
    # ------------------------------------------------------------------

    @property
    def closed_loop(self) -> bool:
        """True when this site dispatches supply against live demand.

        Closed-loop budgets cannot be precomputed; they depend on the
        site's own demand trajectory.
        """
        supply = self.supply
        return (
            supply is not None
            and not supply.stateless
            and self.supply_mode == "closed"
        )

    #: Phase keys of the ``sim.phase.*`` timing counters, in step order.
    PHASE_NAMES = (
        "completions", "power_down", "resume", "arrivals", "launches"
    )

    #: Engine names :meth:`run` (and :func:`repro.sim.simulate`) accept.
    ENGINES = ("event", "soa", "dense")

    def prepare_run(
        self, requests: Sequence[VMRequest], kernel: bool = False
    ) -> EngineState:
        """Build the per-run engine state :meth:`run` executes over.

        Extracted so sessions and :class:`repro.sim.fleet.FleetEngine`
        can drive sites themselves.  Resolves the supply mode
        (closed-loop dispatcher vs open-loop precomputed delivery) and
        precomputes the budget series and power columns for open-loop
        runs.  Each call starts a fresh event log, so one datacenter
        can run more than once.

        Args:
            requests: VM arrivals to replay.
            kernel: Build a :class:`~repro.cluster.kernel.StepKernel`
                over the requests for :meth:`advance`; without it the
                requests become ``VM`` objects, and a fresh server
                pool, eviction planner and queues are built, for the
                dense oracle.
        """
        grid = self.power_trace.grid
        n = grid.n
        # Arm the per-phase timers only under observability — the
        # default step stays on its timer-free straight-line path.
        self._phase_seconds = (
            dict.fromkeys(self.PHASE_NAMES, 0.0) if obs.enabled() else None
        )
        self.events = EventLog() if self.record_events else NullEventLog()
        arrivals_by_step: dict[int, list[VM]] = {}
        if not kernel:
            # The dense oracle's object model; kernel runs never read it.
            config = self.config
            self.pool = _ServerPool(config.cluster)
            self.planner = EvictionPlanner(
                config.cluster.n_servers,
                config.eviction_order,
                config.pause_degradable,
            )
            self._queue: deque[tuple[VM, int]] = deque()
            self._paused: deque[VM] = deque()
            self._running_cores = 0
            self._allocated_cores = 0
            self._finish_at: dict[int, list[VM]] = {}
            for request in requests:
                if request.arrival_step >= n:
                    continue
                arrivals_by_step.setdefault(
                    request.arrival_step, []
                ).append(VM(request))
        supply = self.supply
        if supply is not None and supply.stateless:
            supply = None
        closed = self.closed_loop
        evaluation: SupplyEvaluation | None = None
        dispatcher: SupplyDispatcher | None = None
        cols = StepColumns(n)
        if closed:
            # Budgets cannot be precomputed — each step's delivered
            # power depends on live demand; the closed engines fill the
            # power/budget columns as they dispatch.
            dispatcher = supply.dispatcher(self.power_trace)
            evaluation = dispatcher.evaluation
            budgets = None
        else:
            if supply is not None:
                evaluation = supply.evaluate_open_loop(self.power_trace)
                values = np.asarray(evaluation.delivered, dtype=float)
            else:
                values = np.asarray(self.power_trace.values, dtype=float)
            budgets = self.power_model.core_budget_series(values)
            if n:
                cols.norm_power[:] = values
                cols.core_budget[:] = budgets
        return EngineState(
            n=n,
            grid=grid,
            cols=cols,
            budgets=budgets,
            arrivals_by_step=arrivals_by_step,
            n_requests=len(requests),
            closed=closed,
            dispatcher=dispatcher,
            evaluation=evaluation,
            kernel=StepKernel(self, requests, cols) if kernel else None,
        )

    def finish_run(self, state: EngineState, engine: str) -> SimulationResult:
        """Emit post-run telemetry and assemble the result."""
        site = self.power_trace.name
        cols = state.cols
        if state.evaluation is not None:
            state.evaluation.emit_metrics(site=site)
        if obs.enabled():
            # Aggregates come from the preallocated columns after the
            # run — the hot loops stay observability-free.
            obs.count("sim.wakes", state.processed, site=site, engine=engine)
            obs.count(
                "sim.steps_skipped", state.n - state.processed,
                site=site, engine=engine,
            )
            obs.count(
                "sim.evictions", int(cols.n_evicted.sum()), site=site
            )
            obs.count(
                "sim.migrations_in", int(cols.n_launched.sum()),
                site=site,
            )
            obs.count("sim.pauses", int(cols.n_paused.sum()), site=site)
            obs.count("sim.resumes", int(cols.n_resumed.sum()), site=site)
            obs.count(
                "sim.completions", int(cols.n_completed.sum()), site=site
            )
            obs.count(
                "sim.rejections", int(cols.n_expired.sum()), site=site
            )
            timers = self._phase_seconds
            if timers is not None:
                for phase, seconds in timers.items():
                    obs.count(
                        f"sim.phase.{phase}_us", int(seconds * 1e6),
                        site=site, engine=engine,
                    )
        return SimulationResult(
            state.grid, self.config, cols, self.events, site_name=site,
            supply=state.evaluation,
        )

    def run(
        self, requests: Sequence[VMRequest], *, engine: str = "event"
    ) -> SimulationResult:
        """Replay ``requests`` against the power trace.

        Args:
            requests: VM arrivals to replay.
            engine: ``"event"`` (default) or its alias ``"soa"``: the
                structure-of-arrays :class:`~repro.cluster.kernel.\
StepKernel` advanced by :meth:`advance`, skipping provably no-op
                steps.  ``"dense"``: the object-model oracle, which
                executes every grid step.  Both produce identical
                results (enforced by the golden equivalence tests).

        Returns:
            Per-step records plus the full event log.
        """
        if engine not in self.ENGINES:
            raise ConfigurationError(f"unknown simulation engine: {engine!r}")
        dense = engine == "dense"
        state = self.prepare_run(requests, kernel=not dense)
        with obs.span(
            "datacenter.run",
            site=self.power_trace.name,
            engine=engine,
            n_steps=state.n,
            n_requests=state.n_requests,
        ):
            if not dense:
                self.advance(state, state.n)
            elif state.closed:
                state.processed = self._run_closed(
                    state.n, state.arrivals_by_step, state.cols,
                    state.dispatcher,
                )
            else:
                state.processed = self._run_dense(
                    state.n, state.budgets, state.arrivals_by_step,
                    state.cols,
                )
            return self.finish_run(state, engine)
