"""The staged experiment runner.

:class:`Runner` executes a :class:`~repro.experiments.scenario.Scenario`
through the canonical pipeline —

``applications`` workloads (the §3.1 co-scheduler study)::

    traces -> workload -> forecast -> solve:<policy> -> execute:<policy>
           -> analyze

``vm_requests`` workloads (the §3 migration study, one site or many)::

    traces -> workload:<site>... -> simulate:fleet -> analyze

Every ``vm_requests`` scenario builds its sites with the function
behind :func:`fleet_sites_for_scenario` and runs them in one
:class:`~repro.sim.fleet.FleetEngine` call, result-identical to a
``Datacenter.run`` per site.

— consulting the artifact cache for the expensive stages (trace
synthesis, forecast capacities, MIP solves) and recording a
:class:`~repro.experiments.telemetry.RunManifest` with per-stage wall
times, cache hits, seeds, and artifact content keys.
"""

from __future__ import annotations

import contextvars
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .. import obs
from ..cluster import DatacenterConfig, SimulationResult
from ..errors import ConfigurationError
from ..sched import (
    GridPricing,
    Placement,
    SchedulingProblem,
    SiteCapacity,
)
from ..sched.problem import default_bytes_per_core
from ..sim import (
    ExecutionResult,
    FleetSite,
    PolicyComparison,
    execute_placement,
    simulate,
    summarize_transfers,
)
from ..supply import BatteryDispatch, SupplyStack
from ..traces import PowerTrace
from ..workload import (
    generate_applications,
    generate_vm_requests,
    workload_matched_to_power,
)
from .cache import (
    ArtifactCache,
    placement_from_jsonable,
    placement_to_jsonable,
    stage_catalog_traces,
)
from .scenario import Scenario
from .telemetry import RunManifest


@dataclass
class RunResult:
    """Everything a scenario execution produced.

    Attributes:
        scenario: The scenario that ran.
        manifest: Per-stage telemetry (timings, cache hits, seeds,
            artifact keys, summary).
        manifest_path: Where the manifest JSON was written, if anywhere.
        traces: Per-site synthesized (or cache-loaded) traces.
        problem: The scheduling problem (``applications`` mode).
        placements: Policy name → placement (``applications`` mode).
        executions: Policy name → realized execution.
        comparison: Table-1-style policy comparison.
        simulations: Site name → per-site simulation
            (``vm_requests`` mode).
    """

    scenario: Scenario
    manifest: RunManifest
    manifest_path: Path | None = None
    traces: dict[str, PowerTrace] = field(default_factory=dict)
    problem: SchedulingProblem | None = None
    placements: dict[str, Placement] = field(default_factory=dict)
    executions: dict[str, ExecutionResult] = field(default_factory=dict)
    comparison: PolicyComparison | None = None
    simulations: dict[str, SimulationResult] = field(default_factory=dict)


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "scenario"


def fleet_sites_for_scenario(
    scenario: Scenario,
    traces: Mapping[str, PowerTrace] | None = None,
) -> list[FleetSite]:
    """Materialize a scenario's sites as ready-to-run :class:`FleetSite`\\ s.

    The Runner's ``vm_requests`` site builder — same per-site trace
    synthesis, power-matched workload sizing, and seed derivation —
    without the manifest/caching machinery, so live session backends
    (``repro.serve``) and ad-hoc scripts can build the exact fleet a
    :class:`~repro.experiments.Runner` would simulate.

    Args:
        scenario: A ``vm_requests`` scenario (the ``applications``
            pipeline schedules placements instead of replaying sites).
        traces: Pre-synthesized per-site traces; synthesized from the
            scenario's catalog when omitted.

    Returns:
        One :class:`FleetSite` per scenario site, in scenario order.
    """
    if scenario.workload.kind != "vm_requests":
        raise ConfigurationError(
            "fleet sites require a vm_requests workload, not"
            f" {scenario.workload.kind!r}"
        )
    if traces is None:
        traces, _ = stage_catalog_traces(
            scenario.catalog(),
            scenario.grid,
            scenario.effective_trace_seed,
            None,
        )
    return _fleet_sites(scenario, traces)


def _fleet_sites(
    scenario: Scenario,
    traces: Mapping[str, PowerTrace],
    manifest: RunManifest | None = None,
) -> list[FleetSite]:
    """Build one :class:`FleetSite` per scenario site, in scenario order.

    With a ``manifest``, each site's request generation is timed as
    its ``workload:<site>`` stage.
    """
    spec = scenario.workload
    config = DatacenterConfig(admission_utilization=spec.utilization)
    supply_spec = scenario.supply
    sites = []
    for index, name in enumerate(scenario.sites):
        trace = traces[name]
        stage = (
            manifest.record(f"workload:{name}")
            if manifest is not None
            else nullcontext()
        )
        with stage:
            workload = workload_matched_to_power(
                float(trace.values.mean()),
                config.cluster.total_cores,
                utilization=spec.utilization,
            )
            requests = generate_vm_requests(
                scenario.grid,
                workload,
                seed=scenario.effective_workload_seed + index,
            )
        # Per-site stacks: priced specs synthesize their price/carbon
        # series on the site's own trace grid.
        supply = supply_spec.build(trace) if supply_spec.enabled else None
        sites.append(
            FleetSite(
                name=name,
                config=config,
                trace=trace,
                requests=requests,
                supply=supply,
                supply_mode=supply_spec.mode,
            )
        )
    return sites


class Runner:
    """Execute a scenario's pipeline with caching and telemetry.

    Args:
        scenario: What to run.
        cache: Artifact cache to consult; built at the default location
            when omitted (and ``use_cache`` is on).
        use_cache: ``False`` disables artifact caching entirely — the
            ``--no-cache`` escape hatch.
        manifest_dir: Directory to write the run manifest JSON into;
            ``None`` keeps the manifest in memory only (it is always
            available on the returned :class:`RunResult`).
        jobs: Intra-scenario fan-out.  With ``jobs > 1`` the per-policy
            solve+execute stages (``applications`` mode) run
            concurrently on a thread pool, where the native HiGHS
            solves overlap; results and manifests are identical to a
            serial run because every concurrent task is self-contained
            (its own forecaster instance, scheduler, and detached stage
            records merged back in declaration order).
        traces: Pre-staged per-site traces.  When given, the ``traces``
            stage uses them directly instead of consulting the cache or
            synthesizing — the caller guarantees they match the
            scenario's trace fragment (:func:`run_scenarios` stages
            them once per unique trace key and passes them to each
            task).
        traces_from_cache: Whether the pre-staged ``traces`` came out
            of the artifact cache; recorded as the traces stage's
            ``cache_hit`` so batch telemetry stays faithful.
    """

    def __init__(
        self,
        scenario: Scenario,
        cache: ArtifactCache | None = None,
        use_cache: bool = True,
        manifest_dir: str | Path | None = None,
        jobs: int = 1,
        traces: Mapping[str, PowerTrace] | None = None,
        traces_from_cache: bool | None = None,
    ):
        self.scenario = scenario
        self.cache = (cache or ArtifactCache()) if use_cache else None
        self.manifest_dir = (
            Path(manifest_dir) if manifest_dir is not None else None
        )
        self.jobs = max(1, int(jobs))
        self.preloaded_traces = dict(traces) if traces is not None else None
        self.preloaded_from_cache = traces_from_cache

    def _fan_out(self, tasks):
        """Run ``() -> value`` thunks, concurrently when ``jobs > 1``.

        Returns results in task order regardless of completion order.
        """
        tasks = list(tasks)
        if self.jobs <= 1 or len(tasks) <= 1:
            return [task() for task in tasks]
        workers = min(self.jobs, len(tasks))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-stage"
        ) as pool:
            # Each task runs in a copy of the submitting context so the
            # run's trace sinks (and any ambient span) propagate into
            # the pool threads.
            futures = [
                pool.submit(contextvars.copy_context().run, task)
                for task in tasks
            ]
            return [future.result() for future in futures]

    def _worker_label(self) -> str | None:
        """Stage-record worker tag (``None`` on the main serial path)."""
        if self.jobs <= 1:
            return None
        return f"thread:{threading.current_thread().name}"

    def _grid_pricing(
        self, traces: Mapping[str, PowerTrace]
    ) -> GridPricing | None:
        """Planner-side pricing mirroring the scenario's supply spec.

        ``None`` for unpriced or grid-less specs — the MIP then keeps
        its classic displacement-only objective.  The base pricing
        carries ``carbon_weight=0``; each policy's own weight is
        applied per solve.
        """
        scenario = self.scenario
        return GridPricing.from_supply_spec(
            scenario.supply,
            {name: traces[name] for name in scenario.sites},
            {
                name: scenario.compute.cores_per_site
                for name in scenario.sites
            },
        )

    def _firming_stack(self, trace: PowerTrace) -> SupplyStack | None:
        """Capacity-firming stack for the planner/executor path.

        When the grid is priced the MIP owns grid purchases through
        its import variables, so firming keeps only the battery — grid
        energy priced into the objective must not also inflate the
        capacity series (the same MWh would be counted twice).
        """
        spec = self.scenario.supply
        if not spec.enabled:
            return None
        stack = spec.build(trace)
        if not (spec.priced and spec.grid_budget_mwh > 0):
            return stack
        return SupplyStack(
            tuple(
                component
                for component in stack.components
                if isinstance(component, BatteryDispatch)
            ),
            stack.target_fraction,
        )

    def _firmed_values(
        self,
        stack: SupplyStack | None,
        grid,
        values: np.ndarray,
        like: PowerTrace,
    ) -> np.ndarray:
        """Open-loop-firm a normalized series under ``like``'s scaling."""
        if stack is None:
            return values
        return stack.apply(
            PowerTrace(grid, values, like.name, like.kind, like.capacity_mw)
        ).values

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the pipeline and return its artifacts + manifest."""
        scenario = self.scenario
        manifest = RunManifest(
            scenario_name=scenario.name,
            scenario_hash=scenario.content_hash(),
            scenario=scenario.to_dict(),
            seeds=scenario.seeds_dict(),
            cache_dir=(
                str(self.cache.directory) if self.cache is not None else None
            ),
        )
        result = RunResult(scenario=scenario, manifest=manifest)

        # Capture the run's span/metric stream so the manifest carries
        # it (and so stage timings in the report line up with the
        # manifest's stage records — they are the same measurements).
        capture = obs.MemorySink()
        with obs.add_sink(capture):
            with obs.timed_span(
                f"run:{scenario.name}",
                scenario_hash=manifest.scenario_hash,
                jobs=self.jobs,
            ):
                result.traces = self._stage_traces(manifest)
                if scenario.workload.kind == "applications":
                    self._run_applications(manifest, result)
                else:
                    self._run_vm_requests(manifest, result)
        manifest.trace = capture.records

        if self.manifest_dir is not None:
            name = _slug(scenario.name)
            path = self.manifest_dir / (
                f"manifest_{name}_{manifest.scenario_hash[:12]}.json"
            )
            result.manifest_path = manifest.write(path)
        return result

    # ------------------------------------------------------------------
    # Shared stages
    # ------------------------------------------------------------------

    def _stage_traces(
        self, manifest: RunManifest
    ) -> dict[str, PowerTrace]:
        scenario = self.scenario
        key = scenario.trace_key()
        with manifest.record("traces") as stage:
            stage.artifact = key
            if self.preloaded_traces is not None:
                traces = self.preloaded_traces
                stage.cache_hit = self.preloaded_from_cache
            else:
                traces, stage.cache_hit = stage_catalog_traces(
                    scenario.catalog(),
                    scenario.grid,
                    scenario.effective_trace_seed,
                    self.cache,
                )
        manifest.artifacts["traces"] = key
        return traces

    # ------------------------------------------------------------------
    # applications mode: the co-scheduler pipeline
    # ------------------------------------------------------------------

    def _run_applications(
        self, manifest: RunManifest, result: RunResult
    ) -> None:
        scenario = self.scenario
        if not scenario.policies:
            raise ConfigurationError(
                f"scenario {scenario.name!r} has an applications workload"
                " but no policies to evaluate"
            )
        spec = scenario.workload
        grid = scenario.grid
        traces = result.traces
        cores = scenario.compute.cores_per_site

        with manifest.record("workload"):
            apps = generate_applications(
                grid,
                spec.count,
                seed=scenario.effective_workload_seed,
                mean_vm_count=spec.mean_vm_count,
                mean_duration_days=spec.mean_duration_days,
                stable_fraction=spec.stable_fraction,
                arrival_window_fraction=spec.arrival_window_fraction,
            )

        forecaster = scenario.forecaster.build(
            scenario.effective_forecast_seed
        )
        capacity = self._stage_forecast(manifest, traces, forecaster)
        pricing = self._grid_pricing(traces)
        problem = self._build_problem(apps, capacity, pricing)
        result.problem = problem

        # The fluid execution engine has no per-step demand signal, so
        # the supply stack firms the *actual* capacities open-loop —
        # the same composition the forecast capacities went through, so
        # planner and executor differ only by forecast error.  (With a
        # priced grid, _firming_stack keeps the battery only on both
        # paths; grid purchases live in the MIP's import variables.)
        firming = {
            name: self._firming_stack(traces[name])
            for name in scenario.sites
        }
        actual = {
            name: np.floor(
                self._firmed_values(
                    firming[name], scenario.grid,
                    traces[name].values, traces[name],
                )
                * cores
            )
            for name in scenario.sites
        }

        def policy_task(policy):
            # Self-contained so policies can solve concurrently: each
            # task builds its own forecaster (identical seed, so the
            # day-ahead capacity stream is deterministic per policy and
            # independent of execution order) and times its stages on
            # detached records merged back in policy order below.
            def solve():
                worker = self._worker_label()
                solve_key = scenario.solve_key(policy)
                stages = []
                with manifest.record_detached(
                    f"solve:{policy.name}", worker
                ) as stage:
                    stage.artifact = solve_key
                    placement = None
                    if self.cache is not None:
                        data = self.cache.get_json(solve_key)
                        stage.cache_hit = data is not None
                        if data is not None:
                            placement = placement_from_jsonable(data)
                    if placement is None:
                        task_forecaster = scenario.forecaster.build(
                            scenario.effective_forecast_seed
                        )

                        def day_ahead_provider(
                            site_name, issue_step, horizon
                        ):
                            forecast = task_forecaster.forecast(
                                traces[site_name], issue_step, horizon
                            )
                            values = self._firmed_values(
                                firming[site_name], forecast.grid,
                                forecast.values, traces[site_name],
                            )
                            return np.floor(values * cores)

                        scheduler = policy.build(
                            capacity_provider=day_ahead_provider
                        )
                        task_problem = problem
                        if (
                            pricing is not None
                            and policy.carbon_weight
                            != pricing.carbon_weight
                        ):
                            task_problem = replace(
                                problem,
                                grid_pricing=replace(
                                    pricing,
                                    carbon_weight=policy.carbon_weight,
                                ),
                            )
                        placement = scheduler.schedule(task_problem)
                        if self.cache is not None:
                            self.cache.put_json(
                                solve_key, placement_to_jsonable(placement)
                            )
                stages.append(stage)
                with manifest.record_detached(
                    f"execute:{policy.name}", worker
                ) as stage:
                    execution = execute_placement(
                        problem, placement, actual
                    )
                stages.append(stage)
                return solve_key, placement, execution, stages

            return solve

        outcomes = self._fan_out(
            policy_task(policy) for policy in scenario.policies
        )
        for policy, (solve_key, placement, execution, stages) in zip(
            scenario.policies, outcomes
        ):
            manifest.merge_stages(stages)
            manifest.artifacts[f"solve:{policy.name}"] = solve_key
            result.placements[policy.name] = placement
            result.executions[policy.name] = execution

        with manifest.record("analyze"):
            summaries = []
            for policy in scenario.policies:
                cost_usd = carbon_kg = 0.0
                if pricing is not None:
                    cost_usd, carbon_kg = result.placements[
                        policy.name
                    ].planned_cost(pricing)
                summaries.append(
                    summarize_transfers(
                        policy.name,
                        result.executions[
                            policy.name
                        ].total_transfer_series(),
                        cost_usd=cost_usd,
                        carbon_kg=carbon_kg,
                    )
                )
            result.comparison = PolicyComparison(summaries)
            manifest.summary = {
                "policies": result.comparison.summary_dict(),
                "executions": {
                    name: execution.summary_dict()
                    for name, execution in result.executions.items()
                },
            }

    def _stage_forecast(
        self,
        manifest: RunManifest,
        traces: Mapping[str, PowerTrace],
        forecaster,
    ) -> dict[str, np.ndarray]:
        scenario = self.scenario
        cores = scenario.compute.cores_per_site
        key = scenario.forecast_key()
        with manifest.record("forecast") as stage:
            stage.artifact = key
            capacity = None
            if self.cache is not None:
                capacity = self.cache.get_arrays(key)
                stage.cache_hit = capacity is not None
            if capacity is None:
                capacity = {}
                for name in scenario.sites:
                    forecast = forecaster.forecast(
                        traces[name], 0, scenario.grid.n
                    )
                    values = self._firmed_values(
                        self._firming_stack(traces[name]),
                        forecast.grid,
                        forecast.values, traces[name],
                    )
                    capacity[name] = np.floor(values * cores)
                if self.cache is not None:
                    self.cache.put_arrays(key, capacity)
        manifest.artifacts["forecast"] = key
        return dict(capacity)

    def _build_problem(
        self,
        apps,
        capacity: Mapping[str, np.ndarray],
        grid_pricing: GridPricing | None = None,
    ) -> SchedulingProblem:
        scenario = self.scenario
        compute = scenario.compute
        bytes_per_core = compute.bytes_per_core
        if bytes_per_core is None:
            bytes_per_core = default_bytes_per_core(apps)
        sites = tuple(
            SiteCapacity(name, compute.cores_per_site, capacity[name])
            for name in scenario.sites
        )
        return SchedulingProblem(
            scenario.grid,
            sites,
            tuple(apps),
            bytes_per_core,
            compute.utilization_cap,
            grid_pricing=grid_pricing,
        )

    # ------------------------------------------------------------------
    # vm_requests mode: the migration study, every site in one fleet run
    # ------------------------------------------------------------------

    def _run_vm_requests(
        self, manifest: RunManifest, result: RunResult
    ) -> None:
        sites = _fleet_sites(self.scenario, result.traces, manifest)
        with manifest.record("simulate:fleet"):
            result.simulations = simulate(sites, record_events=True)
        with manifest.record("analyze"):
            manifest.summary = {
                "sites": {
                    name: _simulation_summary(sim)
                    for name, sim in result.simulations.items()
                }
            }


def _simulation_summary(sim: SimulationResult) -> dict[str, float]:
    """Per-site manifest summary — the ``sites`` entry of
    :meth:`~repro.cluster.SimulationResult.summary_dict`."""
    return next(iter(sim.summary_dict()["sites"].values()))


def run_scenario(
    scenario: Scenario,
    cache: ArtifactCache | None = None,
    use_cache: bool = True,
    manifest_dir: str | Path | None = None,
    jobs: int = 1,
) -> RunResult:
    """One-call convenience wrapper around :class:`Runner`."""
    return Runner(
        scenario,
        cache=cache,
        use_cache=use_cache,
        manifest_dir=manifest_dir,
        jobs=jobs,
    ).run()
