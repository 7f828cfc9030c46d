"""Golden tests for the columnar fleet engine (repro.sim.fleet).

The load-bearing guarantee: :class:`FleetEngine` is *result-identical*
to N independent ``Datacenter.run`` calls — per-step columns, supply
evaluations, event logs, and summaries — across power models, supply
stacks (open and closed loop), pause/resume behaviour, and site counts.
The Runner routes every ``vm_requests`` scenario through it, one site
or many, and ``run_scenarios`` passes each task its staged traces; both
are covered here.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro import obs
from repro.cluster import ClusterSpec, Datacenter, DatacenterConfig, ServerSpec
from repro.cluster.datacenter import StepColumns, _first_crossing
from repro.experiments import (
    ArtifactCache,
    Scenario,
    WorkloadSpec,
    run_scenario,
    run_scenarios,
)
from repro.sim import FleetEngine, FleetSite
from repro.supply import SupplyEvaluation, SupplySpec, SupplyStack
from repro.supply.components import BatteryDispatch, PricedGridPower
from repro.traces import PowerTrace
from repro.units import TimeGrid, grid_days
from repro.workload import VMClass, VMRequest, VMType

START = datetime(2020, 5, 1)

VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
    VMType("D16", 16, 64.0),
)

#: The supply stack of the ``fleet-battery`` benchmark workload: a
#: battery plus a grid that buys only while the synthesized price is at
#: or below a $60/MWh cap.
FLEET_BATTERY_SUPPLY = SupplySpec(
    battery_mwh=200.0,
    grid_budget_mwh=500.0,
    price_trace="double_peak",
    carbon_trace="daily",
    grid_policy="threshold",
    price_threshold=60.0,
    mode="closed",
)


def make_trace(seed: int, n: int, name: str) -> PowerTrace:
    """A volatile wind-like trace with hard dead spans (forces queues,
    evictions, and pause/resume churn)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = np.clip(
        0.5 + 0.45 * np.sin(2 * np.pi * t / 96) + rng.normal(0, 0.08, n),
        0.0,
        1.0,
    )
    values[(t % 500) < 30] = 0.0
    grid = TimeGrid(START, timedelta(minutes=15), n)
    return PowerTrace(grid, values, name, "wind")


def make_requests(seed: int, n: int, count: int) -> list[VMRequest]:
    rng = np.random.default_rng(seed + 7)
    requests = []
    for vm_id in range(count):
        arrival = int(rng.integers(0, n))
        lifetime = int(rng.integers(1, 300))
        vm_type = VM_TYPES[rng.integers(0, len(VM_TYPES))]
        vm_class = (
            VMClass.STABLE if rng.random() < 0.6 else VMClass.DEGRADABLE
        )
        requests.append(
            VMRequest(vm_id, arrival, lifetime, vm_type, vm_class)
        )
    return requests


def make_site(
    seed: int,
    n: int,
    count: int,
    power_model: str = "linear",
    supply: SupplyStack | None = None,
    supply_mode: str = "open",
    name: str | None = None,
    pause: bool = True,
) -> FleetSite:
    config = DatacenterConfig(
        cluster=ClusterSpec(n_servers=40, server=ServerSpec()),
        power_model=power_model,
        pause_degradable=pause,
        queue_patience_steps=12,
    )
    name = name or f"site-{seed}"
    return FleetSite(
        name=name,
        config=config,
        trace=make_trace(seed, n, name),
        requests=make_requests(seed, n, count),
        supply=supply,
        supply_mode=supply_mode,
    )


def battery_stack() -> SupplyStack:
    return SupplyStack(
        components=(BatteryDispatch(capacity_mwh=4.0, max_power_mw=2.0),)
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


def reference_run(site: FleetSite, engine: str = "dense"):
    """The per-site ground truth: one independent Datacenter.run on the
    dense object-model oracle unless ``engine`` says otherwise."""
    return Datacenter(
        site.config,
        site.trace,
        supply=site.supply,
        supply_mode=site.supply_mode,
    ).run(site.requests, engine=engine)


def assert_identical(name, got, want, events: bool = False) -> None:
    """Column-exact, supply-exact, summary-exact result equality."""
    for column in StepColumns.__slots__[1:]:
        np.testing.assert_array_equal(
            getattr(got.columns, column),
            getattr(want.columns, column),
            err_msg=f"{name}: column {column} differs",
        )
    assert (got.supply is None) == (want.supply is None), name
    if got.supply is not None:
        for field in SupplyEvaluation.SERIES_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(got.supply, field)),
                np.asarray(getattr(want.supply, field)),
                err_msg=f"{name}: supply {field} differs",
            )
    assert got.summary_dict() == want.summary_dict(), name
    if events:
        assert list(got.events) == list(want.events), name


def mixed_fleet() -> list[FleetSite]:
    """Both power models, open/closed supply stacks, heterogeneous
    lengths, an empty site, and a no-pause site — the golden gauntlet."""
    return [
        make_site(1, 2000, 1500),
        make_site(2, 2000, 1500, power_model="server"),
        make_site(3, 1500, 900, supply=battery_stack(), supply_mode="open"),
        make_site(
            4, 2000, 1200, supply=battery_stack(), supply_mode="closed"
        ),
        make_site(
            5, 2000, 1200, supply=battery_grid_stack(), supply_mode="closed"
        ),
        make_site(6, 500, 0, name="empty"),
        make_site(
            7,
            2000,
            3000,
            power_model="server",
            supply=battery_grid_stack(),
            supply_mode="closed",
        ),
        make_site(8, 2000, 50, pause=False),
    ]


class TestFleetGolden:
    def test_mixed_fleet_matches_event_and_dense(self):
        sites = mixed_fleet()
        fleet = FleetEngine(sites).run()
        assert list(fleet) == [site.name for site in sites]
        for site in sites:
            assert_identical(
                site.name, fleet[site.name], reference_run(site, "event")
            )
            assert_identical(
                f"{site.name}:dense",
                fleet[site.name],
                reference_run(site, "dense"),
            )

    def test_mixed_fleet_exercises_the_full_lifecycle(self):
        """The golden gauntlet is only meaningful if it actually hits
        queues, evictions, and pause/resume churn."""
        fleet = FleetEngine(mixed_fleet()).run()
        totals = {
            column: sum(
                int(getattr(result.columns, column).sum())
                for result in fleet.values()
            )
            for column in ("n_paused", "n_resumed", "n_evicted", "n_queued",
                           "n_launched", "n_expired", "n_completed")
        }
        assert all(count > 0 for count in totals.values()), totals

    def test_single_site_fleet(self):
        site = make_site(11, 800, 400)
        fleet = FleetEngine([site]).run()
        assert_identical(site.name, fleet[site.name], reference_run(site))

    def test_64_site_fleet(self):
        sites = [make_site(100 + i, 288, 40) for i in range(64)]
        fleet = FleetEngine(sites).run()
        assert len(fleet) == 64
        for site in sites:
            assert_identical(site.name, fleet[site.name], reference_run(site))

    def test_event_log_parity(self):
        """record_events=True reproduces the per-site audit trail."""
        sites = [
            make_site(21, 600, 300),
            make_site(
                22, 600, 300, supply=battery_stack(), supply_mode="closed"
            ),
        ]
        fleet = FleetEngine(sites, record_events=True).run()
        for site in sites:
            assert_identical(
                site.name,
                fleet[site.name],
                reference_run(site),
                events=True,
            )
        assert len(list(fleet[sites[0].name].events)) > 0

    def test_events_off_by_default(self):
        site = make_site(23, 400, 100)
        fleet = FleetEngine([site]).run()
        assert list(fleet[site.name].events) == []

    def test_duplicate_site_names_rejected(self):
        sites = [make_site(1, 200, 0, name="dup"), make_site(2, 200, 0, name="dup")]
        with pytest.raises(Exception):
            FleetEngine(sites).run()


class TestDatacenterRerun:
    @pytest.mark.parametrize("engine", ["event", "dense"])
    def test_second_run_matches_first(self, engine):
        """Each run starts from fresh state: a second run of the same
        datacenter repeats the first and leaves its event log alone."""
        site = make_site(3, 600, 300)
        datacenter = Datacenter(site.config, site.trace)
        first = datacenter.run(site.requests, engine=engine)
        first_events = list(first.events)
        second = datacenter.run(site.requests, engine=engine)
        assert_identical(site.name, second, first, events=True)
        assert list(first.events) == first_events


class TestFirstCrossing:
    def test_no_crossing(self):
        budgets = np.array([5, 6, 7], dtype=np.int64)
        assert _first_crossing(budgets, 2, None) == 3

    def test_first_crossing_wins_across_bounds(self):
        budgets = np.array([5, 9, 0], dtype=np.int64)
        # The rise to ``upper`` at index 1 comes before the dip below
        # ``running`` at index 2: the site must wake at the earlier one.
        assert _first_crossing(budgets, 2, 8) == 1

    def test_upper_threshold_crossing(self):
        budgets = np.array([1, 1, 9], dtype=np.int64)
        assert _first_crossing(budgets, 0, 4) == 2

    def test_empty_window(self):
        budgets = np.zeros(0, dtype=np.int64)
        assert _first_crossing(budgets, 1, None) == 0

    def test_budget_equal_to_running_is_not_a_crossing(self):
        budgets = np.array([4, 4, 4], dtype=np.int64)
        assert _first_crossing(budgets, 4, None) == 3
        assert _first_crossing(budgets, 4, 9) == 3

    def test_budget_equal_to_upper_is_a_crossing(self):
        budgets = np.array([3, 5, 6], dtype=np.int64)
        assert _first_crossing(budgets, 2, 5) == 1
        assert _first_crossing(budgets, 0, 6) == 2


class TestClosedLoopSkipAhead:
    """The closed-loop event engine must skip idle spans *and* stay
    golden-identical to the dense per-step reference."""

    @pytest.mark.parametrize("stack_factory", [battery_stack, battery_grid_stack])
    def test_event_matches_dense(self, stack_factory):
        site = make_site(
            31, 1600, 800, supply=stack_factory(), supply_mode="closed"
        )
        assert_identical(
            site.name,
            reference_run(site, "event"),
            reference_run(site, "dense"),
        )

    def test_skip_ahead_actually_skips(self):
        site = make_site(
            32, 1600, 60, supply=battery_stack(), supply_mode="closed"
        )
        sink = obs.MemorySink()
        with obs.add_sink(sink):
            reference_run(site, "event")
        skipped = [
            record["value"]
            for record in sink.metrics()
            if record["name"] == "sim.steps_skipped"
        ]
        assert skipped and skipped[0] > 0


SITE_GROUPS = {
    "1-site": ("BE-wind",),
    "3-site": ("BE-wind", "NO-solar", "UK-wind"),
}


class TestRunnerFleetRouting:
    """Every ``vm_requests`` scenario, one site or many, runs its sites
    in one ``simulate:fleet`` stage, and each site's result equals
    ``Datacenter.run`` on the same trace and requests."""

    @pytest.fixture(params=sorted(SITE_GROUPS))
    def scenario(self, request) -> Scenario:
        return Scenario(
            name="fleet-route",
            sites=SITE_GROUPS[request.param],
            grid=grid_days(START, 2),
            workload=WorkloadSpec(kind="vm_requests"),
            seed=5,
        )

    def test_uses_fleet_stage(self, scenario, tmp_path):
        result = run_scenario(
            scenario, cache=ArtifactCache(tmp_path / "cache")
        )
        names = [stage.name for stage in result.manifest.stages]
        assert names == (
            ["traces"]
            + [f"workload:{name}" for name in scenario.sites]
            + ["simulate:fleet", "analyze"]
        )
        assert set(result.simulations) == set(scenario.sites)

    def test_fleet_stage_matches_per_site_loop(self, scenario, tmp_path):
        """The routed result is identical to simulating each site with
        the same traces and workloads independently."""
        from repro.workload import (
            generate_vm_requests,
            workload_matched_to_power,
        )

        result = run_scenario(
            scenario, cache=ArtifactCache(tmp_path / "cache")
        )
        config = DatacenterConfig(
            admission_utilization=scenario.workload.utilization
        )
        for index, name in enumerate(scenario.sites):
            trace = result.traces[name]
            workload = workload_matched_to_power(
                float(trace.values.mean()),
                config.cluster.total_cores,
                utilization=scenario.workload.utilization,
            )
            requests = generate_vm_requests(
                scenario.grid,
                workload,
                seed=scenario.effective_workload_seed + index,
            )
            want = Datacenter(config, trace).run(requests)
            assert_identical(
                name, result.simulations[name], want, events=True
            )


class TestSharedMemoryTraces:
    """Batches stage traces once per key in the parent and pass them
    to each task's arguments (the class keeps the name it had when
    traces rode shared memory, so test ids stay stable)."""

    def test_process_backend_round_trips_fleet_scenarios(self, tmp_path):
        """Multi-site scenarios through the process pool: traces ride
        each task's pickled arguments, sites ride the fleet engine, and
        the summaries match the in-process reference exactly."""
        scenarios = [
            Scenario(
                name=f"shm-{seed}",
                sites=("BE-wind", "NO-solar"),
                grid=grid_days(START, 2),
                workload=WorkloadSpec(kind="vm_requests"),
                seed=seed,
            )
            for seed in range(2)
        ]
        serial = run_scenarios(
            scenarios,
            jobs=1,
            cache=ArtifactCache(tmp_path / "cache-serial"),
        )
        parallel = run_scenarios(
            scenarios,
            jobs=2,
            cache=ArtifactCache(tmp_path / "cache-process"),
        )
        assert parallel.fleet.backend == "process"
        assert serial.summaries() == parallel.summaries()
        for manifest in parallel.manifests:
            assert "simulate:fleet" in [s.name for s in manifest.stages]

    def test_staged_traces_record_cache_hits(self, tmp_path):
        scenarios = [
            Scenario(
                name="hits",
                sites=("BE-wind",),
                grid=grid_days(START, 2),
                workload=WorkloadSpec(kind="vm_requests"),
                seed=3,
            )
        ]
        cache = ArtifactCache(tmp_path / "cache")
        cold = run_scenarios(scenarios, jobs=1, cache=cache)
        warm = run_scenarios(scenarios, jobs=1, cache=cache)

        def traces_hit(batch):
            (manifest,) = batch.manifests
            (stage,) = [s for s in manifest.stages if s.name == "traces"]
            return stage.cache_hit

        assert traces_hit(cold) is False
        assert traces_hit(warm) is True


def grid_stack() -> SupplyStack:
    return SupplyStack(
        components=(PricedGridPower(budget_mwh=400.0, max_power_mw=1.5),)
    )


class TestBatchedClosedFleet:
    """The fleet engine's closed-loop sites vs the dense oracle.

    Heterogeneous stacks (battery-only, grid-only, battery+grid, the
    ``fleet-battery`` benchmark's battery + threshold-priced grid, and
    empty/open sites mixed in) across fleet sizes: every site of one
    fleet run, event log included, must be bitwise identical to an
    independent dense-oracle run of that site.
    """

    #: Stack builders over a site's trace (``None``: open loop).
    STACKS = (
        lambda trace: battery_stack(),
        lambda trace: grid_stack(),
        lambda trace: battery_grid_stack(),
        FLEET_BATTERY_SUPPLY.build,
        None,
    )

    def heterogeneous_fleet(self, n_sites: int, n: int) -> list[FleetSite]:
        sites = []
        for i in range(n_sites):
            site = make_site(
                100 + i,
                n,
                600,
                power_model="server" if i % 3 == 0 else "linear",
                name=f"hetero-{i}",
            )
            factory = self.STACKS[i % len(self.STACKS)]
            if factory:
                site = replace(
                    site, supply=factory(site.trace), supply_mode="closed"
                )
            sites.append(site)
        return sites

    def test_batched_matches_independent_runs(self):
        for n_sites, n in ((1, 1200), (8, 1200), (64, 500)):
            sites = self.heterogeneous_fleet(n_sites, n)
            fleet = FleetEngine(sites, record_events=True).run()
            for site in sites:
                assert_identical(
                    site.name, fleet[site.name], reference_run(site),
                    events=True,
                )

    def test_priced_site_buys_and_refuses(self):
        """Guard: the priced site of the fleets above buys grid energy,
        and refuses it while budget remains, evicting VMs at steps
        whose price is over the cap."""
        site = self.heterogeneous_fleet(4, 1200)[3]
        result = FleetEngine([site]).run()[site.name]
        grid = site.supply.components[1]
        imports = result.supply.grid_import_mwh
        expensive = grid.price_per_mwh > grid.price_threshold
        budget_left = np.cumsum(imports) < grid.budget_mwh
        assert imports.sum() > 0.0
        assert imports[expensive].sum() == 0.0
        assert result.columns.n_evicted[expensive & budget_left].sum() > 0
