"""Parallel scenario execution: fan a batch of scenarios across workers.

Sweep-style studies — a seed ensemble, a parameter grid, one scenario
per catalog site — are embarrassingly parallel: every
:class:`~repro.experiments.scenario.Scenario` is a self-contained,
seeded description of one run.  :func:`run_scenarios` executes a list
of them in-process with one worker and on a
:class:`~concurrent.futures.ProcessPoolExecutor` with more: the
pipelines are CPU-bound pure Python, so processes are the only pool
that scales them (threads measured slower than a serial loop on
simulation sweeps, and at best tied processes on MIP sweeps; DESIGN.md
§5c).

Both paths produce *identical* per-scenario
:class:`~repro.experiments.telemetry.RunManifest` result summaries:
each task derives every RNG stream from its scenario's seeds and shares
only the content-addressed :class:`~repro.experiments.cache.ArtifactCache`,
whose writes are atomic (temp file + ``os.replace``), so concurrent
workers computing the same key race benignly — last writer wins with
bit-identical content.

Traces are staged **once per unique trace key** by the batch parent
(cache lookup, or synthesis plus cache write) and travel to each task
in its arguments: as the mapping itself in-process, pickled with the
task in a pool.  Pickling year-long arrays measured no slower than
staging them through shared memory, so there is one path.

The worker count resolves explicit argument > ``$REPRO_JOBS`` >
``os.cpu_count()``.  Every batch returns the per-scenario manifests
plus a :class:`~repro.experiments.telemetry.FleetManifest` (wall time,
per-task timings with worker attribution, aggregate cache hit rate,
measured speedup over serial-equivalent time).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .. import obs
from ..errors import ConfigurationError
from ..traces import PowerTrace
from .cache import ArtifactCache, stage_catalog_traces
from .scenario import Scenario
from .telemetry import FleetManifest, RunManifest, TaskRecord

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"


def auto_jobs() -> int:
    """Default worker count: every available CPU."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: int | None = None, fallback: int | None = None) -> int:
    """Resolve a worker count: explicit > ``$REPRO_JOBS`` > fallback.

    Args:
        jobs: Explicit request; wins when not ``None``.
        fallback: Used when neither ``jobs`` nor the environment decide;
            ``None`` means :func:`auto_jobs`.

    Raises:
        ConfigurationError: on a non-integer ``$REPRO_JOBS``.
    """
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigurationError(
                f"${JOBS_ENV} must be an integer, got {env!r}"
            ) from exc
    if fallback is not None:
        return max(1, int(fallback))
    return auto_jobs()


def _run_scenario_task(
    scenario_json: str,
    cache_dir: str | None,
    manifest_dir: str | None,
    traces: Mapping[str, PowerTrace],
    traces_from_cache: bool | None,
) -> tuple[dict, float, str]:
    """Execute one scenario inside a worker.

    Module-level (hence picklable for the process pool).  Returns the
    run manifest as a plain dict — the full
    :class:`~repro.experiments.runner.RunResult` holds traces and
    cluster state that are expensive to ship between processes — plus
    the task's wall time and the worker's label.
    """
    from .runner import Runner

    start = time.perf_counter()
    scenario = Scenario.from_json(scenario_json)
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    runner = Runner(
        scenario,
        cache=cache,
        use_cache=cache is not None,
        manifest_dir=manifest_dir,
        traces=traces,
        traces_from_cache=traces_from_cache,
    )
    worker = f"pid:{os.getpid()}"
    with obs.span(
        f"task:{scenario.name}",
        scenario_hash=scenario.content_hash(),
        backend_worker=worker,
    ):
        manifest = runner.run().manifest
    for stage in manifest.stages:
        if stage.worker is None:
            stage.worker = worker
    return manifest.to_dict(), time.perf_counter() - start, worker


@dataclass
class BatchResult:
    """Everything a :func:`run_scenarios` batch produced.

    Attributes:
        scenarios: The scenarios, in submission order.
        manifests: One :class:`RunManifest` per scenario, same order.
        fleet: Batch-level telemetry (wall time, per-task timings,
            cache hit rate, measured speedup).
        fleet_path: Where the fleet manifest JSON was written, if
            anywhere.
    """

    scenarios: list[Scenario]
    manifests: list[RunManifest]
    fleet: FleetManifest
    fleet_path: Path | None = None

    def summaries(self) -> list[dict]:
        """Per-scenario result summaries, in submission order."""
        return [manifest.summary for manifest in self.manifests]


def run_scenarios(
    scenarios: Iterable[Scenario],
    jobs: int | None = None,
    cache: ArtifactCache | None = None,
    use_cache: bool = True,
    manifest_dir: str | Path | None = None,
    fleet_manifest_path: str | Path | None = None,
) -> BatchResult:
    """Run a batch of scenarios, fanned across worker processes.

    Args:
        scenarios: The scenarios to execute.
        jobs: Worker count; ``None`` resolves ``$REPRO_JOBS`` then
            ``os.cpu_count()``.  One worker runs the batch in-process;
            more run it on a process pool.
        cache: Shared artifact cache; built at the default location
            when omitted (and ``use_cache`` is on).  Workers share it
            by directory — writes are atomic, so concurrent identical
            computations are safe.
        use_cache: ``False`` disables artifact caching everywhere: the
            parent neither reads nor writes traces, and no worker
            opens a cache.
        manifest_dir: Where workers write per-scenario manifest JSONs;
            in-memory only when ``None``.
        fleet_manifest_path: Where to write the fleet manifest JSON;
            not written when ``None``.

    Returns:
        A :class:`BatchResult`: per-scenario manifests in submission
        order plus the fleet summary.
    """
    scenarios = list(scenarios)
    jobs = resolve_jobs(jobs)
    cache = (cache or ArtifactCache()) if use_cache else None
    cache_dir = str(cache.directory) if cache is not None else None
    manifest_dir_arg = (
        str(manifest_dir) if manifest_dir is not None else None
    )

    start = time.perf_counter()
    # Stage traces once per unique trace key in the parent; each task
    # then carries its scenario's traces in its arguments.
    staged: dict[str, tuple[dict[str, PowerTrace], bool | None]] = {}
    payloads = []
    for scenario in scenarios:
        key = scenario.trace_key()
        if key not in staged:
            staged[key] = stage_catalog_traces(
                scenario.catalog(),
                scenario.grid,
                scenario.effective_trace_seed,
                cache,
            )
        payloads.append(
            (scenario.to_json(), cache_dir, manifest_dir_arg, *staged[key])
        )
    workers = min(jobs, len(payloads))
    if workers <= 1:
        outcomes = [_run_scenario_task(*payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_scenario_task, *payload)
                for payload in payloads
            ]
            outcomes = [future.result() for future in futures]
    wall_seconds = time.perf_counter() - start

    manifests = [RunManifest.from_dict(data) for data, _, _ in outcomes]
    fleet = FleetManifest(
        backend="process" if jobs > 1 else "serial",
        jobs=jobs,
        wall_seconds=wall_seconds,
    )
    for manifest, (_, seconds, worker) in zip(manifests, outcomes):
        fleet.tasks.append(
            TaskRecord(
                scenario_name=manifest.scenario_name,
                scenario_hash=manifest.scenario_hash,
                seconds=seconds,
                worker=worker,
            )
        )
        for stage in manifest.stages:
            fleet.stage_seconds[stage.name] = (
                fleet.stage_seconds.get(stage.name, 0.0) + stage.seconds
            )
            if stage.cache_hit is not None:
                fleet.cache_lookups += 1
                fleet.cache_hits += int(stage.cache_hit)

    result = BatchResult(scenarios, manifests, fleet)
    if fleet_manifest_path is not None:
        result.fleet_path = fleet.write(fleet_manifest_path)
    return result
