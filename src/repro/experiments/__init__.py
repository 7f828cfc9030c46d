"""The experiment layer: declarative scenarios, cached artifacts,
instrumented runs.

Every entry point — the CLI, the benchmark harness, the examples —
describes an experiment as a frozen :class:`Scenario` (sites, time
grid, workload, forecaster, policies, cluster shape, seeds) and hands
it to a :class:`Runner`, which executes the staged
trace→forecast→schedule→execute→analyze pipeline:

- expensive intermediates (multi-month trace synthesis, forecast
  capacity series, MIP solves) go through a content-addressed
  :class:`ArtifactCache` keyed on scenario-fragment hashes, so repeated
  runs with an unchanged scenario load from disk;
- each run emits a :class:`RunManifest` (per-stage wall time, cache
  hit/miss, seeds, artifact hashes, result summary) written as JSON
  next to the text reports;
- batches of scenarios fan out across worker processes via
  :func:`run_scenarios` (``--jobs`` / ``$REPRO_JOBS``; one worker runs
  in-process), sharing the artifact cache and emitting a
  :class:`FleetManifest` with per-task timings and measured speedup;
  inside one scenario, ``Runner(jobs=N)`` solves the policies on
  threads.

Quickstart::

    from datetime import datetime, timedelta
    from repro.experiments import PolicySpec, Scenario, WorkloadSpec, run_scenario
    from repro.units import TimeGrid

    scenario = Scenario(
        name="demo",
        sites=("NO-solar", "UK-wind", "PT-wind"),
        grid=TimeGrid(datetime(2015, 5, 1), timedelta(hours=1), 7 * 24),
        workload=WorkloadSpec(count=100),
        policies=(PolicySpec("Greedy", "greedy"), PolicySpec("MIP", "mip")),
    )
    result = run_scenario(scenario)
    print(result.comparison.as_table())
    print(result.manifest.cache_hits())
"""

from .cache import (
    ArtifactCache,
    cached_catalog_traces,
    catalog_trace_key,
    default_cache_dir,
    default_manifest_dir,
)
from .defaults import (
    BENCH_SEED,
    BENCH_START,
    DEFAULT_CORES_PER_SITE,
    DEFAULT_SEED,
    DEFAULT_START,
    DEFAULT_UTILIZATION,
    TRIO_SITES,
    YEAR_START,
)
from .parallel import (
    BatchResult,
    auto_jobs,
    resolve_jobs,
    run_scenarios,
)
from .runner import Runner, RunResult, run_scenario
from .scenario import (
    ComputeSpec,
    ForecasterSpec,
    PolicySpec,
    Scenario,
    WorkloadSpec,
)
from ..supply import SupplySpec
from .telemetry import FleetManifest, RunManifest, StageRecord, TaskRecord

__all__ = [
    "ArtifactCache",
    "cached_catalog_traces",
    "catalog_trace_key",
    "default_cache_dir",
    "default_manifest_dir",
    "BENCH_SEED",
    "BENCH_START",
    "DEFAULT_CORES_PER_SITE",
    "DEFAULT_SEED",
    "DEFAULT_START",
    "DEFAULT_UTILIZATION",
    "TRIO_SITES",
    "YEAR_START",
    "Runner",
    "RunResult",
    "run_scenario",
    "BatchResult",
    "auto_jobs",
    "resolve_jobs",
    "run_scenarios",
    "ComputeSpec",
    "ForecasterSpec",
    "PolicySpec",
    "Scenario",
    "SupplySpec",
    "WorkloadSpec",
    "FleetManifest",
    "RunManifest",
    "StageRecord",
    "TaskRecord",
]
