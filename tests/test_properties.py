"""Cross-module property-based tests on core invariants."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSpec, ServerSpec
from repro.cluster.datacenter import _ServerPool
from repro.cluster.vm import VM
from repro.errors import SolverError
from repro.sched import (
    GreedyScheduler,
    MIPScheduler,
    SchedulingProblem,
    SiteCapacity,
    evaluate_placement_overhead,
)
from repro.units import TimeGrid
from repro.workload import Application, VMClass, VMRequest, VMType

START = datetime(2020, 5, 1)


def make_vm(vm_id, cores, memory_gib=None):
    memory_gib = memory_gib if memory_gib is not None else cores * 4.0
    return VM(
        VMRequest(
            vm_id, 0, 10, VMType(f"T{cores}", cores, memory_gib),
            VMClass.STABLE,
        )
    )


class TestServerPoolInvariants:
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["host", "release"]),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_buckets_always_consistent(self, operations):
        """After any operation sequence, every server sits in exactly
        the bucket matching its free-core count."""
        pool = _ServerPool(
            ClusterSpec(n_servers=6, server=ServerSpec(cores=16))
        )
        hosted: dict[int, tuple] = {}
        vm_id = 0
        for op, cores in operations:
            if op == "host":
                vm = make_vm(vm_id, cores)
                vm_id += 1
                server = pool.find(vm, "bestfit")
                if server is not None:
                    pool.host(server, vm)
                    hosted[vm.vm_id] = (vm, server)
            elif hosted:
                key = next(iter(hosted))
                vm, server = hosted.pop(key)
                pool.release(server, vm)
                vm.state = vm.state  # no transition needed for release
            # Invariant: buckets partition the servers correctly.
            seen = set()
            for free, bucket in enumerate(pool._buckets):
                for server_id in bucket:
                    assert pool.servers[server_id].free_cores == free
                    assert server_id not in seen
                    seen.add(server_id)
            assert seen == set(range(6))

    @given(cores=st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_find_modes_agree_on_feasibility(self, cores):
        pool = _ServerPool(
            ClusterSpec(n_servers=4, server=ServerSpec(cores=16))
        )
        # Partially fill server 0.
        filler = make_vm(999, 10)
        pool.host(pool.servers[0], filler)
        vm = make_vm(0, cores)
        results = {
            mode: pool.find(vm, mode)
            for mode in ("bestfit", "firstfit", "worstfit")
        }
        # All modes agree on whether placement is possible at all.
        feasible = {mode: r is not None for mode, r in results.items()}
        assert len(set(feasible.values())) == 1


def random_problem(draw_seed, n_sites=2, n_apps=4, n_steps=12):
    rng = np.random.default_rng(draw_seed)
    grid = TimeGrid(START, timedelta(hours=1), n_steps)
    sites = []
    for s in range(n_sites):
        capacity = rng.integers(100, 1000, size=n_steps).astype(float)
        sites.append(SiteCapacity(f"s{s}", 1000, capacity))
    apps = []
    for a in range(n_apps):
        arrival = int(rng.integers(0, n_steps - 1))
        duration = int(rng.integers(1, n_steps - arrival))
        apps.append(
            Application(
                a, arrival, duration, int(rng.integers(1, 20)),
                VMType("T2", 2, 8.0), float(rng.uniform(0, 1)),
            )
        )
    return SchedulingProblem(
        grid, tuple(sites), tuple(apps), bytes_per_core=4 * 2**30
    )


class TestMIPProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_mip_placements_always_complete_and_capped(self, seed):
        problem = random_problem(seed)
        try:
            placement = MIPScheduler(time_limit_s=20.0).schedule(problem)
        except SolverError:
            # Genuinely infeasible draws are acceptable; greedy must
            # then also fail or the capacity is fragmented.
            return
        placement.validate_complete(problem)
        from repro.sched.overhead import placement_load_series

        _, total = placement_load_series(problem, placement)
        for site in problem.sites:
            cap = problem.utilization_cap * site.total_cores
            assert np.max(total[site.name]) <= cap + 1e-6

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_mip_never_worse_than_greedy_on_planning_objective(
        self, seed
    ):
        """On the *forecast* capacities both schedulers see, the MIP's
        total predicted overhead is at most greedy's (it optimizes
        exactly that objective)."""
        problem = random_problem(seed)
        try:
            greedy = GreedyScheduler().schedule(problem)
        except Exception:
            return
        try:
            mip = MIPScheduler(time_limit_s=20.0).schedule(problem)
        except SolverError:
            return

        def planning_cost(placement):
            per_site = evaluate_placement_overhead(problem, placement)
            return sum(series.sum() for series in per_site.values())

        assert planning_cost(mip) <= planning_cost(greedy) + 1e-3

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_peak_weight_never_raises_planned_peak(self, seed):
        problem = random_problem(seed)
        try:
            plain = MIPScheduler(time_limit_s=20.0).schedule(problem)
            peaky = MIPScheduler(
                peak_weight=100.0, time_limit_s=20.0
            ).schedule(problem)
        except SolverError:
            return

        def planned_peak(placement):
            per_site = evaluate_placement_overhead(problem, placement)
            series = np.sum(list(per_site.values()), axis=0)
            return float(series.max())

        # The peak objective bounds per-site-step traffic; the summed
        # series is a looser quantity, so allow small slack.
        assert planned_peak(peaky) <= planned_peak(plain) * 1.5 + 1e-3
