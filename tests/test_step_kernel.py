"""Golden tests for the SoA step kernel (``engine="soa"``/``"event"``).

:class:`repro.cluster.kernel.StepKernel` re-implements the five
``Datacenter._step`` phases over structure-of-arrays state — VM and
server attributes as parallel arrays indexed by integers instead of
object graphs.  The object model (``engine="dense"``) stays the golden
oracle: these tests pin the kernel bit-identical to it (per-step
columns, event logs, supply telemetry, summaries) across allocation
policies, eviction orders, power models, pause behaviour, and
open/closed supply loops.

Also here: the closed-form launch-wake-threshold inversion
(:func:`repro.cluster.admission.min_budget_for_cap`) pinned against a
reference scan, and the ``sim.phase.*`` timing counters.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro import obs
from repro.cluster import (
    ClusterSpec,
    Datacenter,
    DatacenterConfig,
    LiveMigrationModel,
    ServerSpec,
)
from repro.cluster.admission import min_budget_for_cap
from repro.cluster.datacenter import StepColumns
from repro.cluster.migration import EvictionOrder
from repro.serve import SimSession
from repro.sim import FleetSite
from repro.supply import (
    BatteryDispatch,
    PricedGridPower,
    SupplyEvaluation,
    SupplyStack,
)
from repro.traces import PowerTrace
from repro.units import TimeGrid
from repro.workload import VMClass, VMRequest, VMType

START = datetime(2020, 5, 1)

VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
    VMType("D16", 16, 64.0),
)

SUPPLY_FIELDS = (
    "delivered",
    "soc_mwh",
    "charge_mwh",
    "discharge_mwh",
    "grid_import_mwh",
    "curtailed_mwh",
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


def assert_identical(got, want) -> None:
    for column in StepColumns.__slots__[1:]:
        np.testing.assert_array_equal(
            getattr(got.columns, column),
            getattr(want.columns, column),
            err_msg=f"column {column} differs",
        )
    assert list(got.events) == list(want.events)
    assert (got.supply is None) == (want.supply is None)
    if got.supply is not None:
        for field in SUPPLY_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(got.supply, field)),
                np.asarray(getattr(want.supply, field)),
                err_msg=f"supply {field} differs",
            )
    assert got.summary_dict() == want.summary_dict()


def run_engines(config, trace, requests, engines=("soa", "dense"), **dc_kw):
    return [
        Datacenter(config, trace, **dc_kw).run(requests, engine=engine)
        for engine in engines
    ]


class TestOpenLoopGolden:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_scenarios_match_event_and_dense(self, seed):
        soa, event, dense = run_engines(
            *random_scenario(seed), engines=("soa", "event", "dense")
        )
        assert_identical(soa, event)
        assert_identical(soa, dense)

    @pytest.mark.parametrize(
        "allocation", ["bestfit", "firstfit", "worstfit"]
    )
    def test_allocation_policies(self, allocation):
        soa, dense = run_engines(*random_scenario(4, allocation=allocation))
        assert_identical(soa, dense)

    @pytest.mark.parametrize(
        "order",
        [
            EvictionOrder.FIRST_PLACED,
            EvictionOrder.LARGEST_CORES,
            EvictionOrder.SMALLEST_MEMORY,
        ],
    )
    @pytest.mark.parametrize("pause", [False, True])
    def test_eviction_orders(self, order, pause):
        soa, dense = run_engines(
            *random_scenario(
                5, eviction_order=order, pause_degradable=pause
            )
        )
        assert_identical(soa, dense)

    def test_server_granular_power_model(self):
        soa, dense = run_engines(*random_scenario(6, power_model="server"))
        assert_identical(soa, dense)

    def test_static_utilization_cap(self):
        soa, dense = run_engines(
            *random_scenario(7, power_relative_admission=False)
        )
        assert_identical(soa, dense)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_wire_bytes_late_arrivals_and_equal_types(self, seed):
        """The kernel's per-request prepare: live-migration wire bytes
        that differ from memory bytes, arrivals at and past the grid end
        interleaved with live ones, and two equal but distinct VMType
        objects in one stream."""
        config, trace, requests = random_scenario(
            seed, migration_model=LiveMigrationModel()
        )
        n = trace.grid.n
        twin = VMType("D4", 4, 16.0)
        assert twin == VM_TYPES[1] and twin is not VM_TYPES[1]
        mixed = []
        for request in requests:
            if request.vm_id % 2 and request.vm_type is VM_TYPES[1]:
                request = VMRequest(
                    request.vm_id, request.arrival_step,
                    request.lifetime_steps, twin, request.vm_class,
                )
            mixed.append(request)
            if request.vm_id % 50 == 0:
                # Arrivals at n - 1 (the last step), n, n + 1 and n + 2.
                k = request.vm_id // 50 % 4
                mixed.append(
                    VMRequest(
                        len(requests) + request.vm_id, n - 1 + k, 5,
                        VM_TYPES[k], request.vm_class,
                    )
                )
        soa, dense = run_engines(config, trace, mixed)
        assert_identical(soa, dense)
        live = sum(1 for r in mixed if r.arrival_step < n)
        assert live < len(mixed)
        assert soa.columns.n_arrivals.sum() == live
        assert soa.columns.n_evicted.sum() > 0


def battery_stack() -> SupplyStack:
    return SupplyStack(
        components=(BatteryDispatch(capacity_mwh=4.0, max_power_mw=2.0),)
    )


def grid_stack() -> SupplyStack:
    return SupplyStack(
        components=(PricedGridPower(budget_mwh=400.0, max_power_mw=1.5),)
    )


def battery_grid_stack() -> SupplyStack:
    return SupplyStack(
        components=(
            BatteryDispatch(
                capacity_mwh=2.5, max_power_mw=1.5, efficiency=0.9
            ),
            PricedGridPower(budget_mwh=300.0, max_power_mw=1.0),
        )
    )


class HydrogenState:
    __slots__ = ("stored_mwh",)

    def __init__(self, stored_mwh: float):
        self.stored_mwh = stored_mwh


class HydrogenStore:
    """A component the supply layer knows only through the
    ``SupplyComponent`` protocol: an electrolyser and fuel cell that
    pay their losses on the way in (the battery pays on the way out)."""

    def __init__(self, capacity_mwh, max_power_mw, efficiency):
        self.capacity_mwh = capacity_mwh
        self.max_power_mw = max_power_mw
        self.efficiency = efficiency

    def initial_state(self) -> HydrogenState:
        return HydrogenState(0.0)

    def step(self, state, balance_mw, step_hours, t=0):
        if balance_mw >= 0.0:
            room_mwh = self.capacity_mwh - state.stored_mwh
            stored_mwh = min(
                min(balance_mw, self.max_power_mw) * step_hours
                * self.efficiency,
                room_mwh,
            )
            state.stored_mwh += stored_mwh
            return -stored_mwh / self.efficiency / step_hours
        drawn_mwh = min(
            min(-balance_mw, self.max_power_mw) * step_hours,
            state.stored_mwh,
        )
        state.stored_mwh -= drawn_mwh
        return drawn_mwh / step_hours

    def pinned(self, state, surplus):
        if surplus:
            return state.stored_mwh == self.capacity_mwh
        return state.stored_mwh == 0.0


def battery_hydrogen_stack() -> SupplyStack:
    return SupplyStack(
        components=(
            BatteryDispatch(capacity_mwh=2.0, max_power_mw=1.5),
            HydrogenStore(capacity_mwh=3.0, max_power_mw=0.8,
                          efficiency=0.6),
        )
    )


class TestClosedLoopGolden:
    @pytest.mark.parametrize(
        "stack_factory", [battery_stack, grid_stack, battery_grid_stack]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stacks_match_event(self, stack_factory, seed):
        config, trace, requests = random_scenario(seed)
        soa, dense = run_engines(
            config, trace, requests,
            supply=stack_factory(), supply_mode="closed",
        )
        assert_identical(soa, dense)

    def test_battery_matches_dense(self):
        config, trace, requests = random_scenario(2)
        soa, dense = run_engines(
            config, trace, requests, engines=("soa", "dense"),
            supply=battery_stack(), supply_mode="closed",
        )
        assert_identical(soa, dense)

    def test_server_power_model(self):
        config, trace, requests = random_scenario(3, power_model="server")
        soa, dense = run_engines(
            config, trace, requests,
            supply=battery_grid_stack(), supply_mode="closed",
        )
        assert_identical(soa, dense)

    def test_protocol_only_component(self):
        """A component known only through the ``SupplyComponent``
        protocol runs the same closed loop (per-step dispatch, wakes,
        pinned fills) as the shipped ones: a batch run and a session
        advanced in uneven chunks both equal the dense oracle."""
        config, trace, requests = random_scenario(1)

        def run(engine, stack):
            return Datacenter(
                config, trace, supply=stack, supply_mode="closed"
            ).run(requests, engine=engine)

        want = run("dense", battery_hydrogen_stack())
        session = SimSession(
            FleetSite("t", config, trace, requests,
                      supply=battery_hydrogen_stack(),
                      supply_mode="closed"),
        )
        for chunk in (1, 7, 137, 2, 500, 61):
            session.advance(chunk)
        session.run_to_end()
        for got in (
            run("event", battery_hydrogen_stack()),
            session.results()["t"],
        ):
            assert_identical(got, want)
            for field in SupplyEvaluation.SERIES_FIELDS:
                np.testing.assert_array_equal(
                    getattr(got.supply, field),
                    getattr(want.supply, field),
                    err_msg=f"supply {field} differs",
                )
        # Guard: the store moves power, so the protocol path matters.
        battery_only = run(
            "dense", SupplyStack(battery_hydrogen_stack().components[:1])
        )
        assert not np.array_equal(
            want.supply.delivered, battery_only.supply.delivered
        )


def reference_min_budget(need: int, util: float, total: int) -> int:
    """The historical inversion: scan budgets upward from zero."""
    b = 0
    while int(util * min(b, total)) < need:
        b += 1
    return b


class TestMinBudgetForCap:
    @pytest.mark.parametrize(
        "util",
        [0.1, 0.25, 1 / 3, 0.5, 0.7, 0.7000000000000001, 0.9, 0.99, 1.0],
    )
    @pytest.mark.parametrize("total", [10, 160])
    def test_matches_reference_scan_exhaustively(self, util, total):
        cap = int(util * total)
        for need in range(cap + 1):
            assert min_budget_for_cap(need, util, total) == (
                reference_min_budget(need, util, total)
            ), (need, util, total)

    def test_large_cluster_sampled(self):
        rng = np.random.default_rng(11)
        total = 5120
        for util in (0.3, 0.7, 0.85):
            cap = int(util * total)
            needs = set(rng.integers(0, cap + 1, size=60).tolist())
            needs.update((0, 1, cap - 1, cap))
            for need in needs:
                assert min_budget_for_cap(need, util, total) == (
                    reference_min_budget(need, util, total)
                ), (need, util, total)

    def test_nonpositive_need_is_free(self):
        assert min_budget_for_cap(0, 0.7, 100) == 0
        assert min_budget_for_cap(-5, 0.7, 100) == 0


class TestPhaseTimers:
    def test_disabled_without_observability(self):
        config, trace, requests = random_scenario(0, n=300, n_requests=200)
        dc = Datacenter(config, trace)
        dc.run(requests, engine="event")
        # No sink active: the timer-free fast path stays armed off.
        assert dc._phase_seconds is None

    @pytest.mark.parametrize("engine", ["dense", "event", "soa"])
    def test_counters_emitted_per_phase(self, engine):
        config, trace, requests = random_scenario(1, n=400, n_requests=400)
        with obs.use(obs.MemorySink()) as mem:
            Datacenter(config, trace).run(requests, engine=engine)
        counters = {
            r["name"]: r["value"]
            for r in mem.metrics()
            if r["name"].startswith("sim.phase.")
        }
        expected = {
            f"sim.phase.{phase}_us" for phase in Datacenter.PHASE_NAMES
        }
        assert set(counters) == expected
        assert all(v >= 0 for v in counters.values())
        # Work happened, so the phases cannot all be zero-cost.
        assert sum(counters.values()) > 0

    def test_counters_render_in_report(self):
        config, trace, requests = random_scenario(2, n=300, n_requests=300)
        with obs.use(obs.MemorySink()) as mem:
            Datacenter(config, trace).run(requests, engine="soa")
        text = obs.render_report(mem.records)
        assert "sim.phase.launches_us" in text

    def test_timed_run_stays_golden(self):
        # Timers must observe, not perturb: a run under observability
        # equals the silent run bit for bit.
        config, trace, requests = random_scenario(3, n=500, n_requests=500)
        silent = Datacenter(config, trace).run(requests, engine="soa")
        with obs.use(obs.MemorySink()):
            timed = Datacenter(config, trace).run(requests, engine="soa")
        assert_identical(timed, silent)
