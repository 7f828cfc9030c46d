"""Structure-of-arrays step kernel: the per-step hot path, columnar.

:class:`StepKernel` re-implements the five phases of
:meth:`repro.cluster.datacenter.Datacenter._step` — completions,
power-down, resume, arrivals, launches — over flat per-VM and
per-server state arrays instead of ``VM`` / ``Server`` object graphs.
A VM is an index into parallel lists (cores, memory, lifetime, state
code, hosting server, scheduled finish); a server is an index into
free-core / free-memory arrays plus an insertion-ordered placement map.
The kernel is the only engine of every production run —
``Datacenter.run(engine="event")`` (alias ``"soa"``), sessions, and the
fleet — while the object model stays as the golden oracle
(``engine="dense"``), pinned result-identical to the kernel — columns,
event logs, and summaries — by the golden tests.

Why it is faster than the object model:

* **No attribute traffic.**  Every phase reads ``cores[i]`` out of a
  list instead of chasing ``vm.cores`` through a dataclass, and server
  accounting is two list stores instead of ``Server.host`` /
  ``Server.release`` method calls.
* **Busy-server eviction index.**  The object planner's round-robin
  rotor visits every server — on a mostly-empty cluster almost all
  visits find nothing.  The kernel keeps a sorted index of servers
  with at least one RUNNING VM and walks only those; the walk is
  provably visit-equivalent (empty servers can never yield a victim,
  one full victimless lap over busy servers is one full victimless
  lap over all servers, and the persisted rotor lands on
  ``last_victim + 1`` in every terminating case — see
  :meth:`StepKernel._plan_power_down`).
* **One wake loop.**  The kernel only answers the window questions —
  ``next_event``, ``wake_bounds``, ``demand_at`` / ``window_demand`` —
  and executes wakes through ``step_wake``; the one loop that decides
  which steps wake, in either supply mode, is ``Datacenter.advance``,
  which drives batch runs, sessions and every fleet site.

Determinism notes mirrored from the object model: free-core buckets
are id-sorted lists, victim ties resolve through the VM id exactly as
the planner's sort keys do, completion deduplication keys on the VM id
(duplicate ids in a request stream dedup identically), and pause events
are recorded before eviction events within one power-down phase.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import Sequence

from ..workload import VMClass, VMRequest
from .admission import min_budget_for_cap
from .events import EventKind, NullEventLog
from .migration import EvictionOrder

# VM lifecycle codes (order-free; compared by equality only).  They
# mirror repro.cluster.vm.VMState: the kernel never round-trips through
# the enum on the hot path.
PENDING = 0
RUNNING = 1
PAUSED = 2
MIGRATED_OUT = 3
COMPLETED = 4
REJECTED = 5

_ADMIT = EventKind.ADMIT
_REJECT = EventKind.REJECT
_QUEUE = EventKind.QUEUE
_LAUNCH = EventKind.LAUNCH
_EVICT = EventKind.EVICT
_PAUSE = EventKind.PAUSE
_RESUME = EventKind.RESUME
_COMPLETE = EventKind.COMPLETE

_FIRST_PLACED = 0
_LARGEST_CORES = 1
_SMALLEST_MEMORY = 2


class StepKernel:
    """SoA step engine for one site (see module docstring).

    Built by :meth:`Datacenter.prepare_run` with ``kernel=True``; the
    datacenter still owns the power model, the supply dispatcher, and
    the result assembly — the kernel owns everything the five phases
    touch per step.

    Args:
        dc: The site whose configuration (and event log) this kernel
            executes under.
        requests: VM arrivals to replay (arrivals at or past the grid
            end are dropped, as the dense oracle's ``prepare_run``
            does).
        cols: The run's preallocated column store.
    """

    def __init__(self, dc, requests: Sequence[VMRequest], cols):
        config = dc.config
        cluster = config.cluster
        spec = cluster.server
        self.cols = cols
        self.n = dc.power_trace.grid.n
        self.events = dc.events
        self._record = (
            None if isinstance(dc.events, NullEventLog)
            else dc.events.record
        )
        self._timers: dict[str, float] | None = dc._phase_seconds
        # --- configuration scalars, hoisted ---
        self.total_cores = cluster.total_cores
        self.n_servers = cluster.n_servers
        self._max_cores = spec.cores
        self.util = dc.admission.target_utilization
        self.power_relative = config.power_relative_admission
        self.patience = config.queue_patience_steps
        self.allocation = config.allocation
        self.pause_degradable = config.pause_degradable
        # Identity tests, mirroring EvictionPlanner._pick_victim's
        # dispatch exactly (anything else falls to smallest-memory).
        order = config.eviction_order
        self._order = (
            _FIRST_PLACED if order is EvictionOrder.FIRST_PLACED
            else _LARGEST_CORES if order is EvictionOrder.LARGEST_CORES
            else _SMALLEST_MEMORY
        )
        # int(util * total): the static admission ceiling the launch
        # threshold tests against (constant per run).
        self._static_cap = int(self.util * self.total_cores)
        # --- per-VM SoA state ---
        # One pass over the requests that arrive inside the grid.  Each
        # distinct VMType's cores, memory and wire bytes resolve once,
        # keyed by id(): a dict keyed by the frozen dataclass itself
        # re-hashes its fields on every lookup.
        n = self.n
        live = [r for r in requests if r.arrival_step < n]
        wire_for = dc._wire_bytes_for
        stable = VMClass.STABLE
        sizes: dict[int, tuple[int, float, float]] = {}
        vm_cores: list[int] = []
        vm_mem: list[float] = []
        vm_wire: list[float] = []
        vm_ids: list[int] = []
        vm_stable: list[bool] = []
        vm_remaining: list[int] = []
        arrivals_by_step: dict[int, list[int]] = {}
        for index, request in enumerate(live):
            vm_type = request.vm_type
            size = sizes.get(id(vm_type))
            if size is None:
                memory = vm_type.memory_bytes
                size = sizes[id(vm_type)] = (
                    vm_type.cores, memory, wire_for(memory)
                )
            cores, memory, wire = size
            vm_cores.append(cores)
            vm_mem.append(memory)
            vm_wire.append(wire)
            vm_ids.append(request.vm_id)
            vm_stable.append(request.vm_class is stable)
            vm_remaining.append(request.lifetime_steps)
            bucket = arrivals_by_step.get(request.arrival_step)
            if bucket is None:
                arrivals_by_step[request.arrival_step] = [index]
            else:
                bucket.append(index)
        self.vm_cores = vm_cores
        self.vm_mem = vm_mem
        self.vm_ids = vm_ids
        self.vm_stable = vm_stable
        self.vm_wire = vm_wire
        self.vm_state = [PENDING] * len(live)
        self.vm_server = [-1] * len(live)
        self.vm_remaining = vm_remaining
        self.vm_finish = [-1] * len(live)
        self.arrivals_by_step = arrivals_by_step
        self.arrival_steps = sorted(arrivals_by_step)
        self.arrival_index = 0
        # --- per-server SoA state ---
        ns = self.n_servers
        self.srv_free_cores: list[int] = [spec.cores] * ns
        self.srv_free_mem: list[float] = [spec.memory_bytes] * ns
        # Insertion-ordered placement map per server (vm index -> None);
        # iteration order is the object model's dict-of-VMs order.
        self.srv_placed: list[dict[int, None]] = [{} for _ in range(ns)]
        self.srv_running: list[int] = [0] * ns
        # Sorted ids of servers hosting at least one RUNNING VM — the
        # eviction rotor's walk set.
        self.busy: list[int] = []
        # Free-core buckets, mirroring _ServerPool: _buckets[f] is the
        # sorted ids of servers with exactly f free cores.
        self._buckets: list[list[int]] = [
            [] for _ in range(self._max_cores + 1)
        ]
        self._buckets[self._max_cores] = list(range(ns))
        self._nonempty: list[int] = [self._max_cores] if ns else []
        # --- run state ---
        self.queue: deque[tuple[int, int]] = deque()
        self.paused: deque[int] = deque()
        self.finish_at: dict[int, list[int]] = {}
        self.finish_heap: list[int] = []
        self.expiry_heap: list[int] = []
        self.rotor = 0
        self.running_cores = 0
        self.allocated_cores = 0
        # Smallest core count among queued VMs blocked by *power*
        # headroom at the last processed step; None when every queued
        # VM is blocked by packing (budget growth cannot help those).
        self.launch_blocked_min: int | None = None
        # Every step at or below ``last`` is final; Datacenter.advance
        # resumes from ``last + 1``.
        self.last = -1

    # ------------------------------------------------------------------
    # Pool bookkeeping (mirrors _ServerPool)
    # ------------------------------------------------------------------

    def _move(self, server_id: int, old_free: int) -> None:
        new_free = self.srv_free_cores[server_id]
        if new_free == old_free:
            return
        bucket = self._buckets[old_free]
        del bucket[bisect_left(bucket, server_id)]
        if not bucket:
            nonempty = self._nonempty
            del nonempty[bisect_left(nonempty, old_free)]
        target = self._buckets[new_free]
        if not target:
            insort(self._nonempty, new_free)
        insort(target, server_id)

    def _find(self, need: int, mem: float) -> int:
        """Placement query under the configured policy; -1 when none fits."""
        if need > self._max_cores:
            return -1
        nonempty = self._nonempty
        free_cores = self.srv_free_cores
        free_mem = self.srv_free_mem
        start = bisect_left(nonempty, need)
        mode = self.allocation
        if mode == "bestfit":
            for free in nonempty[start:]:
                for server_id in self._buckets[free]:
                    if (
                        need <= free_cores[server_id]
                        and mem <= free_mem[server_id]
                    ):
                        return server_id
            return -1
        if mode == "worstfit":
            for free in reversed(nonempty[start:]):
                for server_id in self._buckets[free]:
                    if (
                        need <= free_cores[server_id]
                        and mem <= free_mem[server_id]
                    ):
                        return server_id
            return -1
        best_id = -1
        for free in nonempty[start:]:
            for server_id in self._buckets[free]:
                if best_id >= 0 and server_id >= best_id:
                    break
                if (
                    need <= free_cores[server_id]
                    and mem <= free_mem[server_id]
                ):
                    best_id = server_id
                    break
        return best_id

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def _schedule_finish(self, index: int, step: int) -> None:
        finish = step + self.vm_remaining[index]
        self.vm_finish[index] = finish
        bucket = self.finish_at.get(finish)
        if bucket is None:
            self.finish_at[finish] = [index]
            heappush(self.finish_heap, finish)
        else:
            bucket.append(index)

    def _host(self, server_id: int, index: int, step: int) -> None:
        cores = self.vm_cores[index]
        old_free = self.srv_free_cores[server_id]
        self.srv_free_cores[server_id] = old_free - cores
        self.srv_free_mem[server_id] -= self.vm_mem[index]
        self.srv_placed[server_id][index] = None
        self._move(server_id, old_free)
        self.vm_state[index] = RUNNING
        self.vm_server[index] = server_id
        count = self.srv_running[server_id]
        self.srv_running[server_id] = count + 1
        if count == 0:
            insort(self.busy, server_id)
        self.running_cores += cores
        self.allocated_cores += cores
        self._schedule_finish(index, step)

    def _drop_running(self, server_id: int) -> None:
        count = self.srv_running[server_id] - 1
        self.srv_running[server_id] = count
        if count == 0:
            busy = self.busy
            del busy[bisect_left(busy, server_id)]

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _phase_completions(self, step: int) -> int:
        finished = self.finish_at.pop(step, None)
        if not finished:
            return 0
        vm_state = self.vm_state
        vm_finish = self.vm_finish
        vm_ids = self.vm_ids
        # Same-step pause->resume can re-add a VM under its original
        # finish step: dedup on the VM id, as the object model does.
        valid: list[int] = []
        seen: set[int] = set()
        for index in finished:
            if (
                vm_state[index] == RUNNING
                and vm_finish[index] == step
                and vm_ids[index] not in seen
            ):
                seen.add(vm_ids[index])
                valid.append(index)
        if not valid:
            return 0
        by_server: dict[int, list[int]] = {}
        vm_server = self.vm_server
        for index in valid:
            by_server.setdefault(vm_server[index], []).append(index)
        vm_cores = self.vm_cores
        vm_mem = self.vm_mem
        free_cores = self.srv_free_cores
        free_mem = self.srv_free_mem
        placed = self.srv_placed
        for server_id, members in by_server.items():
            old_free = free_cores[server_id]
            on_server = placed[server_id]
            for index in members:
                free_cores[server_id] += vm_cores[index]
                free_mem[server_id] += vm_mem[index]
                del on_server[index]
            count = self.srv_running[server_id] - len(members)
            self.srv_running[server_id] = count
            if count == 0:
                busy = self.busy
                del busy[bisect_left(busy, server_id)]
            self._move(server_id, old_free)
        freed = 0
        record = self._record
        vm_remaining = self.vm_remaining
        for index in valid:
            vm_state[index] = COMPLETED
            vm_remaining[index] = 0
            vm_finish[index] = -1
            vm_server[index] = -1
            freed += vm_cores[index]
            if record is not None:
                record(step, _COMPLETE, vm_ids[index])
        self.running_cores -= freed
        self.allocated_cores -= freed
        return len(valid)

    def _pick_victim(self, server_id: int, selected: set[int]) -> int:
        """The planner's per-server victim choice, over indices.

        Mirrors ``EvictionPlanner``: FIRST_PLACED takes the first
        RUNNING VM in placement order; LARGEST_CORES the max by
        ``(cores, -vm_id)``; SMALLEST_MEMORY the min by
        ``(memory_bytes, vm_id)`` — strict-improvement scans keep the
        first occurrence on fully-equal keys, matching the stable sorts
        of the object planner.  Returns -1 when no candidate remains.
        """
        vm_state = self.vm_state
        vm_ids = self.vm_ids
        order = self._order
        if order == _FIRST_PLACED:
            for index in self.srv_placed[server_id]:
                if vm_state[index] == RUNNING and vm_ids[index] not in selected:
                    return index
            return -1
        best = -1
        if order == _LARGEST_CORES:
            vm_cores = self.vm_cores
            best_cores = -1
            best_id = 0
            for index in self.srv_placed[server_id]:
                if vm_state[index] != RUNNING or vm_ids[index] in selected:
                    continue
                cores = vm_cores[index]
                vm_id = vm_ids[index]
                if best < 0 or cores > best_cores or (
                    cores == best_cores and vm_id < best_id
                ):
                    best = index
                    best_cores = cores
                    best_id = vm_id
            return best
        vm_mem = self.vm_mem
        best_mem = 0.0
        best_id = 0
        for index in self.srv_placed[server_id]:
            if vm_state[index] != RUNNING or vm_ids[index] in selected:
                continue
            mem = vm_mem[index]
            vm_id = vm_ids[index]
            if best < 0 or mem < best_mem or (
                mem == best_mem and vm_id < best_id
            ):
                best = index
                best_mem = mem
                best_id = vm_id
        return best

    def _plan_power_down(
        self, cores_to_free: int
    ) -> tuple[list[int], list[int]]:
        """Round-robin victim selection over the busy-server index.

        Visit-equivalent to ``EvictionPlanner.plan`` over all servers:
        a server without a RUNNING VM can never yield a victim, so
        skipping it changes neither the victim sequence nor the
        termination condition (one full victimless lap over busy
        servers *is* one full victimless lap over all servers — the
        ``selected`` set does not change during a victimless lap).  The
        persisted rotor also matches: every terminating case leaves the
        object planner's rotor at ``last_victim_server + 1`` modulo the
        cluster (success, and exhaustion after progress: the final
        ``n_servers`` failed visits advance it by exactly one full
        lap), or unchanged when no victim was found at all.
        """
        busy = self.busy
        if not busy:
            return [], []
        to_migrate: list[int] = []
        to_pause: list[int] = []
        selected: set[int] = set()
        freed = 0
        fails = 0
        n_busy = len(busy)
        pos = bisect_left(busy, self.rotor)
        if pos == n_busy:
            pos = 0
        vm_cores = self.vm_cores
        vm_ids = self.vm_ids
        vm_stable = self.vm_stable
        pause_degradable = self.pause_degradable
        last_victim_server = -1
        while freed < cores_to_free and fails < n_busy:
            server_id = busy[pos]
            pos += 1
            if pos == n_busy:
                pos = 0
            victim = self._pick_victim(server_id, selected)
            if victim < 0:
                fails += 1
                continue
            fails = 0
            selected.add(vm_ids[victim])
            freed += vm_cores[victim]
            last_victim_server = server_id
            if pause_degradable and not vm_stable[victim]:
                to_pause.append(victim)
            else:
                to_migrate.append(victim)
        if last_victim_server >= 0:
            self.rotor = (last_victim_server + 1) % self.n_servers
        return to_migrate, to_pause

    def _phase_power_down(
        self, step: int, budget: int
    ) -> tuple[float, int, int]:
        overflow = self.running_cores - budget
        if overflow <= 0:
            return 0.0, 0, 0
        to_migrate, to_pause = self._plan_power_down(overflow)
        vm_cores = self.vm_cores
        vm_finish = self.vm_finish
        vm_remaining = self.vm_remaining
        vm_state = self.vm_state
        vm_server = self.vm_server
        record = self._record
        for index in to_pause:
            finish = vm_finish[index]
            if finish >= 0:
                remaining = finish - step
                vm_remaining[index] = remaining if remaining > 1 else 1
            vm_finish[index] = -1
            vm_state[index] = PAUSED
            self.running_cores -= vm_cores[index]
            self._drop_running(vm_server[index])
            self.paused.append(index)
            if record is not None:
                record(step, _PAUSE, self.vm_ids[index])
        out_bytes = 0.0
        free_cores = self.srv_free_cores
        free_mem = self.srv_free_mem
        for index in to_migrate:
            server_id = vm_server[index]
            old_free = free_cores[server_id]
            free_cores[server_id] = old_free + vm_cores[index]
            free_mem[server_id] += self.vm_mem[index]
            del self.srv_placed[server_id][index]
            self._move(server_id, old_free)
            finish = vm_finish[index]
            if finish >= 0:
                remaining = finish - step
                vm_remaining[index] = remaining if remaining > 1 else 1
            vm_finish[index] = -1
            vm_state[index] = MIGRATED_OUT
            vm_server[index] = -1
            self.running_cores -= vm_cores[index]
            self.allocated_cores -= vm_cores[index]
            self._drop_running(server_id)
            wire = self.vm_wire[index]
            out_bytes += wire
            if record is not None:
                record(step, _EVICT, self.vm_ids[index], wire)
        return out_bytes, len(to_migrate), len(to_pause)

    def _phase_resume(self, step: int, budget: int) -> int:
        paused = self.paused
        n_resumed = 0
        vm_state = self.vm_state
        vm_cores = self.vm_cores
        record = self._record
        while paused:
            index = paused[0]
            if vm_state[index] != PAUSED:
                paused.popleft()
                continue
            cores = vm_cores[index]
            if self.running_cores + cores > budget:
                break
            paused.popleft()
            vm_state[index] = RUNNING
            self.running_cores += cores
            self._schedule_finish(index, step)
            server_id = self.vm_server[index]
            count = self.srv_running[server_id]
            self.srv_running[server_id] = count + 1
            if count == 0:
                insort(self.busy, server_id)
            if record is not None:
                record(step, _RESUME, self.vm_ids[index])
            n_resumed += 1
        return n_resumed

    def _core_cap(self, budget: int) -> int:
        """The admission cap, replicating ``AdmissionControl.core_cap``."""
        total = self.total_cores
        if self.power_relative:
            capacity = budget if budget < total else total
        else:
            capacity = total
        return int(self.util * capacity)

    def _phase_arrivals(
        self, step: int, budget: int, arrivals: Sequence[int]
    ) -> tuple[int, int]:
        if not arrivals:
            return 0, 0
        n_admitted = 0
        n_queued = 0
        cap = self._core_cap(budget)
        vm_cores = self.vm_cores
        vm_mem = self.vm_mem
        record = self._record
        queue = self.queue
        for index in arrivals:
            cores = vm_cores[index]
            server_id = (
                self._find(cores, vm_mem[index])
                if (
                    self.allocated_cores + cores <= cap
                    and self.running_cores + cores <= budget
                )
                else -1
            )
            if server_id >= 0:
                self._host(server_id, index, step)
                if record is not None:
                    record(step, _ADMIT, self.vm_ids[index])
                n_admitted += 1
            else:
                queue.append((index, step))
                if record is not None:
                    record(step, _QUEUE, self.vm_ids[index])
                n_queued += 1
        return n_admitted, n_queued

    def _phase_launches(
        self, step: int, budget: int
    ) -> tuple[float, int, int]:
        queue = self.queue
        if not queue:
            self.launch_blocked_min = None
            return 0.0, 0, 0
        in_bytes = 0.0
        n_launched = 0
        n_expired = 0
        blocked_min: int | None = None
        patience = self.patience
        cap = self._core_cap(budget)
        vm_cores = self.vm_cores
        vm_mem = self.vm_mem
        vm_state = self.vm_state
        record = self._record
        survivors: list[tuple[int, int]] = []
        for _ in range(len(queue)):
            index, queued_at = queue.popleft()
            if step - queued_at > patience:
                vm_state[index] = REJECTED
                if record is not None:
                    record(step, _REJECT, self.vm_ids[index])
                n_expired += 1
                continue
            cap_room = cap - self.allocated_cores
            if cap_room < 0:
                cap_room = 0
            power_room = budget - self.running_cores
            headroom = cap_room if cap_room < power_room else power_room
            if headroom <= 0:
                survivors.append((index, queued_at))
                blocked = vm_cores[index]
                while queue:
                    other = queue.popleft()
                    survivors.append(other)
                    if vm_cores[other[0]] < blocked:
                        blocked = vm_cores[other[0]]
                if blocked_min is None or blocked < blocked_min:
                    blocked_min = blocked
                break
            cores = vm_cores[index]
            if cores > headroom:
                if blocked_min is None or cores < blocked_min:
                    blocked_min = cores
                survivors.append((index, queued_at))
                continue
            server_id = self._find(cores, vm_mem[index])
            if server_id < 0:
                survivors.append((index, queued_at))
                continue
            self._host(server_id, index, step)
            in_bytes += vm_mem[index]
            if record is not None:
                record(step, _LAUNCH, self.vm_ids[index], vm_mem[index])
            n_launched += 1
        queue.extend(survivors)
        self.launch_blocked_min = blocked_min
        return in_bytes, n_launched, n_expired

    # ------------------------------------------------------------------
    # The step
    # ------------------------------------------------------------------

    def _step(self, step: int, budget: int, arrivals: Sequence[int]) -> None:
        cols = self.cols
        timers = self._timers
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
        cols.running_cores[step] = self.running_cores
        cols.allocated_cores[step] = self.allocated_cores
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
        cols.queue_length[step] = len(self.queue)

    # ------------------------------------------------------------------
    # Wake-by-wake protocol (Datacenter.advance)
    # ------------------------------------------------------------------

    def _launch_wake_threshold(self) -> int | None:
        """Smallest core budget at which a queued VM could launch.

        Derived from the last processed step: ``m`` is the smallest
        core count among queued VMs that were blocked by power headroom
        (packing-blocked VMs cannot be helped by budget growth, and the
        pool only mutates at processed steps).  The budget must cover
        both the power term (``running + m``) and, under power-relative
        admission, the utilization cap ``int(util * budget) >=
        allocated + m`` — inverted in closed form by
        :func:`min_budget_for_cap`.
        """
        m = self.launch_blocked_min
        if m is None:
            return None
        need = self.allocated_cores + m
        if need > self._static_cap:
            # Even a fully-powered cluster cannot admit under the cap;
            # only allocation shrinking (a completion or eviction — an
            # event in itself) can unblock the queue.
            return None
        running_threshold = self.running_cores + m
        if not self.power_relative:
            return running_threshold
        budget = min_budget_for_cap(need, self.util, self.total_cores)
        return max(running_threshold, budget)

    def wake_bounds(self) -> tuple[int, int | None]:
        """Budget thresholds making a skipped step impossible."""
        running = self.running_cores
        upper: int | None = None
        if self.paused:
            upper = running + self.vm_cores[self.paused[0]]
        if self.queue:
            launch = self._launch_wake_threshold()
            if launch is not None and (upper is None or launch < upper):
                upper = launch
        return running, upper

    def carried_state(self) -> tuple[int, int, int]:
        """(running, allocated, queue length) for forward-fill windows."""
        return self.running_cores, self.allocated_cores, len(self.queue)

    def next_event(self) -> int:
        """Next arrival / finish / expiry after :attr:`last` (or ``n``)."""
        nxt = self.n
        if self.arrival_index < len(self.arrival_steps):
            nxt = self.arrival_steps[self.arrival_index]
        last = self.last
        heap = self.finish_heap
        while heap and heap[0] <= last:
            heappop(heap)
        if heap and heap[0] < nxt:
            nxt = heap[0]
        heap = self.expiry_heap
        while heap and heap[0] <= last:
            heappop(heap)
        if heap and heap[0] < nxt:
            nxt = heap[0]
        return nxt

    def step_wake(self, step: int, budget: int) -> None:
        """Execute one wake: resolve arrivals, step, push queue expiry."""
        arrival_steps = self.arrival_steps
        index = self.arrival_index
        if index < len(arrival_steps) and arrival_steps[index] == step:
            arrivals: Sequence[int] = self.arrivals_by_step[step]
            self.arrival_index = index + 1
        else:
            arrivals = ()
        self._step(step, budget, arrivals)
        queue = self.queue
        if queue and queue[-1][1] == step:
            expiry = step + self.patience + 1
            if expiry < self.n:
                heappush(self.expiry_heap, expiry)
        self.last = step

    def demand_at(self, step: int) -> int:
        """Demand at a wake step: :meth:`Datacenter._demand_cores` with
        this step's (unconsumed) arrivals and finish bucket."""
        index = self.arrival_index
        arrival_steps = self.arrival_steps
        if index < len(arrival_steps) and arrival_steps[index] == step:
            arrivals: Sequence[int] = self.arrivals_by_step[step]
        else:
            arrivals = ()
        return self._demand_cores(step, arrivals)

    def window_demand(self) -> int:
        """Demand over an event-free window (no finishes, no arrivals)."""
        return self._demand_cores(-1, ())

    def _demand_cores(self, step: int, arrivals: Sequence[int]) -> int:
        vm_cores = self.vm_cores
        vm_state = self.vm_state
        finishing = 0
        bucket = self.finish_at.get(step)
        if bucket:
            vm_finish = self.vm_finish
            vm_ids = self.vm_ids
            seen: set[int] = set()
            for index in bucket:
                if (
                    vm_state[index] == RUNNING
                    and vm_finish[index] == step
                    and vm_ids[index] not in seen
                ):
                    seen.add(vm_ids[index])
                    finishing += vm_cores[index]
        demand = self.running_cores - finishing
        for index in self.paused:
            if vm_state[index] == PAUSED:
                demand += vm_cores[index]
        for index, _ in self.queue:
            demand += vm_cores[index]
        for index in arrivals:
            demand += vm_cores[index]
        if demand < 0:
            return 0
        total = self.total_cores
        return demand if demand < total else total
