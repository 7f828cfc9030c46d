"""Golden equivalence tests for the event-driven simulation engine and
the vectorized MIP assembly, plus the detailed placement replay.

The single-site step-kernel path (``engine="event"``) and the
vectorized constraint assembly each have a dense/loop reference
implementation; these tests pin them result-identical across workload
shapes, power models, eviction orders, and pathological budget traces.
The detailed replay has one loop; its tests pin that it is
deterministic, stays within every site's budget, and lands no more
than it evicted.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    Datacenter,
    DatacenterConfig,
    ServerSpec,
)
from repro.cluster.migration import EvictionOrder
from repro.cluster.power import LinearCorePower, ServerGranularPower
from repro.errors import ConfigurationError
from repro.sched import (
    MIPScheduler,
    Placement,
    SchedulingProblem,
    SiteCapacity,
)
from repro.sched.mip import _Layout, _assemble, _assemble_reference
from repro.sim import simulate
from repro.traces import PowerTrace
from repro.units import TimeGrid
from repro.workload import Application, VMClass, VMRequest, VMType

START = datetime(2020, 5, 1)

VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
    VMType("D16", 16, 64.0),
)


def make_trace(values):
    grid = TimeGrid(START, timedelta(minutes=15), len(values))
    return PowerTrace(grid, np.asarray(values, dtype=float), "t", "wind")


def random_scenario(seed, n=2000, n_requests=2000, **config_overrides):
    """Noisy diurnal power with dead spans plus random arrivals."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = np.clip(
        0.5 + 0.45 * np.sin(2 * np.pi * t / 96) + rng.normal(0, 0.08, n),
        0.0,
        1.0,
    )
    values[(t % 500) < 30] = 0.0
    trace = make_trace(values)
    defaults = dict(
        cluster=ClusterSpec(n_servers=40, server=ServerSpec()),
        queue_patience_steps=12,
    )
    defaults.update(config_overrides)
    config = DatacenterConfig(**defaults)
    requests = []
    for vm_id in range(n_requests):
        arrival = int(rng.integers(0, n))
        lifetime = int(rng.integers(1, 300))
        vm_type = VM_TYPES[rng.integers(0, len(VM_TYPES))]
        vm_class = (
            VMClass.STABLE if rng.random() < 0.6 else VMClass.DEGRADABLE
        )
        requests.append(
            VMRequest(vm_id, arrival, lifetime, vm_type, vm_class)
        )
    return config, trace, requests


def run_both(config, trace, requests):
    dense = Datacenter(config, trace).run(requests, engine="dense")
    event = Datacenter(config, trace).run(requests, engine="event")
    return dense, event


def assert_identical(dense, event):
    assert dense.records == event.records
    assert list(dense.events) == list(event.events)


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_scenarios(self, seed):
        dense, event = run_both(*random_scenario(seed))
        assert_identical(dense, event)

    @pytest.mark.parametrize(
        "allocation", ["bestfit", "firstfit", "worstfit"]
    )
    def test_allocation_policies(self, allocation):
        dense, event = run_both(
            *random_scenario(3, allocation=allocation)
        )
        assert_identical(dense, event)

    def test_pause_degradable(self):
        dense, event = run_both(
            *random_scenario(4, pause_degradable=True)
        )
        assert_identical(dense, event)
        assert dense.columns.n_paused.sum() > 0
        assert dense.columns.n_resumed.sum() > 0

    def test_server_granular_power_model(self):
        dense, event = run_both(*random_scenario(5, power_model="server"))
        assert_identical(dense, event)

    def test_static_admission(self):
        dense, event = run_both(
            *random_scenario(6, power_relative_admission=False)
        )
        assert_identical(dense, event)

    def test_oscillating_budget_stress(self):
        """Pathological square-wave budget: eviction/resume every flip."""
        values = np.tile([1.0, 1.0, 0.15, 0.15], 250)
        trace = make_trace(values)
        config = DatacenterConfig(
            cluster=ClusterSpec(n_servers=20, server=ServerSpec(cores=10)),
            pause_degradable=True,
            queue_patience_steps=6,
        )
        rng = np.random.default_rng(7)
        requests = [
            VMRequest(
                vm_id,
                int(rng.integers(0, len(values))),
                int(rng.integers(1, 50)),
                VM_TYPES[rng.integers(0, 2)],
                VMClass.STABLE if rng.random() < 0.5 else VMClass.DEGRADABLE,
            )
            for vm_id in range(1500)
        ]
        dense, event = run_both(config, trace, requests)
        assert_identical(dense, event)
        assert dense.columns.n_evicted.sum() > 0

    def test_patience_expiry_during_dead_span(self):
        """VMs queued just before a long outage must expire on time —
        the expiry wake, not a power wake, triggers the REJECT step."""
        values = np.concatenate([np.ones(5), np.zeros(200), np.ones(20)])
        trace = make_trace(values)
        config = DatacenterConfig(
            cluster=ClusterSpec(n_servers=2, server=ServerSpec(cores=4)),
            queue_patience_steps=10,
        )
        # Site fits 8 cores; ask for far more so the rest queue at full
        # power, then starve through the outage.
        requests = [
            VMRequest(i, 4, 100, VMType("T4", 4, 16.0), VMClass.STABLE)
            for i in range(6)
        ]
        dense, event = run_both(config, trace, requests)
        assert_identical(dense, event)
        expired_at = np.flatnonzero(dense.columns.n_expired)
        assert expired_at.tolist() == [15]  # queued at 4 + patience 10 + 1

    def test_zero_length_trace(self):
        grid = TimeGrid(START, timedelta(minutes=15), 0)
        trace = PowerTrace(grid, np.array([]), "t", "wind")
        config = DatacenterConfig(
            cluster=ClusterSpec(n_servers=2, server=ServerSpec(cores=4))
        )
        for engine in ("dense", "event"):
            result = Datacenter(config, trace).run([], engine=engine)
            assert result.records == []

    def test_quiet_workload_tail(self):
        """All activity ends mid-trace; the tail must be skipped and
        still recorded (forward-filled zeros)."""
        values = np.clip(
            0.6 + 0.3 * np.sin(np.arange(3000) / 20.0), 0.0, 1.0
        )
        trace = make_trace(values)
        config = DatacenterConfig(
            cluster=ClusterSpec(n_servers=4, server=ServerSpec())
        )
        requests = [
            VMRequest(i, i, 10, VM_TYPES[0], VMClass.STABLE)
            for i in range(20)
        ]
        dense, event = run_both(config, trace, requests)
        assert_identical(dense, event)
        assert event.columns.running_cores[100:].max() == 0

    def test_unknown_engine_rejected(self):
        config, trace, requests = random_scenario(8, n=10, n_requests=2)
        with pytest.raises(ConfigurationError):
            Datacenter(config, trace).run(requests, engine="warp")


class TestResultCaching:
    def test_series_returns_cached_arrays(self):
        config, trace, requests = random_scenario(9, n=500, n_requests=200)
        result = Datacenter(config, trace).run(requests)
        assert result.power_series() is result.power_series()
        assert result.out_bytes_series() is result.out_bytes_series()
        assert result.out_gb_series() is result.out_gb_series()
        assert result.utilization_series() is result.utilization_series()

    def test_records_lazy_and_stable(self):
        config, trace, requests = random_scenario(10, n=500, n_requests=200)
        result = Datacenter(config, trace).run(requests)
        records = result.records
        assert records is result.records
        assert len(records) == 500
        assert records[0].step == 0

    def test_records_match_columns(self):
        config, trace, requests = random_scenario(11, n=300, n_requests=150)
        result = Datacenter(config, trace).run(requests)
        for step in (0, 150, 299):
            record = result.records[step]
            assert record.running_cores == int(
                result.columns.running_cores[step]
            )
            assert record.n_admitted == int(
                result.columns.n_admitted[step]
            )


class TestCoreBudgetSeries:
    @pytest.mark.parametrize(
        "model_cls", [LinearCorePower, ServerGranularPower]
    )
    def test_matches_scalar_path(self, model_cls):
        cluster = ClusterSpec(n_servers=7, server=ServerSpec(cores=40))
        model = model_cls(cluster)
        rng = np.random.default_rng(12)
        values = rng.uniform(0.0, 1.0, 5000)
        values[:10] = [0.0, 1.0, 0.5, 1e-9, 0.9999, 0.25, 0.75, 0.1, 0.3, 1.0]
        series = model.core_budget_series(values)
        scalar = np.array([model.core_budget(float(v)) for v in values])
        assert np.array_equal(series, scalar)

    def test_series_validates_range(self):
        model = LinearCorePower(ClusterSpec(n_servers=2))
        with pytest.raises(ConfigurationError):
            model.core_budget_series(np.array([0.5, 1.2]))
        with pytest.raises(ConfigurationError):
            model.core_budget_series(np.array([-0.1]))


# ----------------------------------------------------------------------
# Detailed multi-site executor
# ----------------------------------------------------------------------


def detailed_scenario(seed, n=400, n_sites=3, n_apps=25):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(START, timedelta(hours=1), n)
    total = 400
    sites = []
    traces = {}
    for i in range(n_sites):
        t = np.arange(n)
        values = np.clip(
            0.5
            + 0.45 * np.sin(2 * np.pi * (t + i * 20) / 96)
            + rng.normal(0, 0.1, n),
            0.0,
            1.0,
        )
        values[(t % 150) < 10] = 0.0
        name = f"s{i}"
        sites.append(SiteCapacity(name, total, np.floor(values * total)))
        traces[name] = PowerTrace(grid, values, name, "wind", 400.0)
    apps = []
    assignment = {}
    for app_id in range(n_apps):
        arrival = int(rng.integers(0, n - 50))
        duration = int(rng.integers(3, min(150, n - arrival)))
        vm_count = int(rng.integers(2, 15))
        cores = int(rng.choice([2, 4, 8]))
        stable = float(rng.choice([0.0, 0.5, 1.0]))
        apps.append(
            Application(
                app_id, arrival, duration, vm_count,
                VMType(f"T{cores}", cores, cores * 4.0), stable,
            )
        )
        per_site = {}
        left = vm_count
        for i, site in enumerate(sites):
            if i == len(sites) - 1:
                per_site[site.name] = left
            else:
                take = int(rng.integers(0, left + 1))
                per_site[site.name] = take
                left -= take
        assignment[app_id] = per_site
    problem = SchedulingProblem(
        grid, tuple(sites), tuple(apps), bytes_per_core=4 * 2**30
    )
    return problem, Placement(assignment), traces


DETAILED_CLUSTER = ClusterSpec(n_servers=10, server=ServerSpec(cores=40))


def replay_checked(seed, **kwargs):
    """Replay ``detailed_scenario(seed)`` twice and check the result.

    The two runs must agree exactly; every site-step stays within its
    budget; and migrations only land what was evicted (a landing is a
    re-placed evicted VM, so neither its count nor its bytes can exceed
    the evictions').
    """
    problem, placement, traces = detailed_scenario(seed)
    first = simulate(
        problem, placement, traces, cluster=DETAILED_CLUSTER, **kwargs
    )
    problem, placement, traces = detailed_scenario(seed)
    second = simulate(
        problem, placement, traces, cluster=DETAILED_CLUSTER, **kwargs
    )
    assert first.records == second.records
    assert first.homeless_vm_steps == second.homeless_vm_steps
    columns = [first.columns[name] for name in first.site_names]
    for cols in columns:
        assert np.all(cols.running_cores <= cols.budget)
    assert sum(int(c.n_landed.sum()) for c in columns) <= sum(
        int(c.n_evicted.sum()) for c in columns
    )
    assert sum(float(c.in_bytes.sum()) for c in columns) <= sum(
        float(c.out_bytes.sum()) for c in columns
    )
    return first


#: Evictions per order on ``detailed_scenario(2)``, recorded from the
#: replay: each order picks different victims, so the totals differ.
EVICTIONS_BY_ORDER = {
    EvictionOrder.FIRST_PLACED: 153,
    EvictionOrder.LARGEST_CORES: 149,
    EvictionOrder.SMALLEST_MEMORY: 154,
}


class TestDetailedEngineEquivalence:
    """The placement replay: deterministic, within budget, and
    conserving migrations."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_scenarios(self, seed):
        replay_checked(seed)

    @pytest.mark.parametrize("order", list(EVICTIONS_BY_ORDER))
    def test_eviction_orders(self, order):
        result = replay_checked(2, eviction_order=order)
        evictions = sum(
            int(result.columns[name].n_evicted.sum())
            for name in result.site_names
        )
        assert evictions == EVICTIONS_BY_ORDER[order]

    def test_pause_resume_exercised(self):
        """The detailed executor pauses degradable VMs in place and
        resumes them when power returns."""
        problem, placement, traces = detailed_scenario(3)
        result = simulate(
            problem, placement, traces, cluster=DETAILED_CLUSTER
        )
        paused = sum(
            int(result.columns[name].n_paused.sum())
            for name in result.site_names
        )
        resumed = sum(
            int(result.columns[name].n_resumed.sum())
            for name in result.site_names
        )
        assert paused > 0
        assert resumed > 0

    def test_series_cached_and_records_lazy(self):
        problem, placement, traces = detailed_scenario(4)
        result = simulate(
            problem, placement, traces, cluster=DETAILED_CLUSTER
        )
        name = result.site_names[0]
        assert result.out_bytes_series(name) is result.out_bytes_series(name)
        assert (
            result.total_transfer_series() is result.total_transfer_series()
        )
        records = result.records
        assert records is result.records
        assert len(records[name]) == problem.grid.n

    def test_unknown_engine_rejected(self):
        problem, placement, traces = detailed_scenario(5, n=60)
        with pytest.raises(ConfigurationError):
            simulate(
                problem, placement, traces, cluster=DETAILED_CLUSTER, engine="warp"
            )


# ----------------------------------------------------------------------
# MIP assembly
# ----------------------------------------------------------------------


def mip_problem(seed, n_sites=6, n_apps=15, n_steps=48):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(START, timedelta(hours=1), n_steps)
    sites = tuple(
        SiteCapacity(
            f"s{i}", 400, np.floor(rng.uniform(0.0, 1.0, n_steps) * 400)
        )
        for i in range(n_sites)
    )
    apps = []
    for app_id in range(n_apps):
        arrival = int(rng.integers(0, n_steps - 2))
        duration = int(rng.integers(1, n_steps - arrival))
        cores = int(rng.choice([2, 4, 8]))
        apps.append(
            Application(
                app_id, arrival, duration, int(rng.integers(1, 20)),
                VMType(f"T{cores}", cores, cores * 4.0),
                float(rng.choice([0.0, 0.3, 1.0])),
            )
        )
    return SchedulingProblem(
        grid, sites, tuple(apps), bytes_per_core=4 * 2**30
    )


def assert_assembly_identical(problem, peak, cap, background, previous):
    layout = _Layout(
        len(problem.apps), len(problem.sites), problem.grid.n,
        peak, reassign=previous is not None,
    )
    vec_matrix, vec_lb, vec_ub = _assemble(
        problem, layout, cap, background, previous
    )
    ref_matrix, ref_lb, ref_ub = _assemble_reference(
        problem, layout, cap, background, previous
    )
    assert vec_matrix.shape == ref_matrix.shape
    assert (vec_matrix - ref_matrix).nnz == 0
    vec_matrix.sort_indices()
    ref_matrix.sort_indices()
    assert np.array_equal(vec_matrix.indptr, ref_matrix.indptr)
    assert np.array_equal(vec_matrix.indices, ref_matrix.indices)
    assert np.array_equal(vec_matrix.data, ref_matrix.data)
    assert np.array_equal(vec_lb, ref_lb)
    assert np.array_equal(vec_ub, ref_ub)


class TestVectorizedAssembly:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plain(self, seed):
        assert_assembly_identical(
            mip_problem(seed), False, None, None, None
        )

    def test_peak(self):
        assert_assembly_identical(mip_problem(3), True, None, None, None)

    def test_allocation_cap_and_background(self):
        problem = mip_problem(4)
        rng = np.random.default_rng(4)
        n = problem.grid.n
        cap = {
            site.name: rng.uniform(100, 300, n) for site in problem.sites
        }
        background = {
            site.name: np.abs(rng.normal(0, 20, n))
            for site in problem.sites
        }
        assert_assembly_identical(problem, False, cap, background, None)

    def test_reassignment(self):
        problem = mip_problem(5)
        previous = {
            app.app_id: {problem.sites[0].name: min(2, app.vm_count)}
            for app in problem.apps[::2]
        }
        assert_assembly_identical(problem, False, None, None, previous)
        assert_assembly_identical(problem, True, None, None, previous)

    def test_schedule_records_timings(self):
        problem = mip_problem(6, n_sites=3, n_apps=8)
        scheduler = MIPScheduler(time_limit_s=60.0)
        assert scheduler.last_timings is None
        placement = scheduler.schedule(problem)
        placement.validate_complete(problem)
        timings = scheduler.last_timings
        assert timings is not None
        assert timings.assembly_s > 0
        assert timings.solve_s > 0
        assert timings.n_rows > 0
        assert timings.nnz > 0
