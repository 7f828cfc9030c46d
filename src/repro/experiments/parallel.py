"""Parallel scenario execution: fan a batch of scenarios across workers.

Sweep-style studies — a seed ensemble, a parameter grid, one scenario
per catalog site — are embarrassingly parallel: every
:class:`~repro.experiments.scenario.Scenario` is a self-contained,
seeded description of one run.  :func:`run_scenarios` executes a list
of them on a pluggable executor backend:

- ``serial``  — in-process loop (the reference semantics);
- ``thread``  — :class:`~concurrent.futures.ThreadPoolExecutor`; right
  when tasks release the GIL (MIP solves in native HiGHS code) or are
  I/O-bound (warm-cache replays);
- ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`; right
  for the pure-Python simulation pipelines, and the ``auto`` choice
  whenever more than one worker is requested.

All backends produce *identical* per-scenario
:class:`~repro.experiments.telemetry.RunManifest` result summaries:
each task derives every RNG stream from its scenario's seeds and shares
only the content-addressed :class:`~repro.experiments.cache.ArtifactCache`,
whose writes are atomic (temp file + ``os.replace``), so concurrent
workers computing the same key race benignly — last writer wins with
bit-identical content.

Traces are staged **once per unique trace key** by the batch parent
(cache lookup or synthesis), then handed to every task: serial and
thread workers receive the in-memory mapping directly, and process
workers receive a :class:`~repro.experiments.cache.SharedTraces`
handle to a ``multiprocessing.shared_memory`` segment — one memcpy
per site on attach instead of pickling year-long arrays through the
executor pipe or re-synthesizing them per worker.  The parent unlinks
every segment after the batch drains.

The worker count resolves explicit argument > ``$REPRO_JOBS`` >
``os.cpu_count()``.  Every batch returns the per-scenario manifests
plus a :class:`~repro.experiments.telemetry.FleetManifest` (wall time,
per-task timings with worker attribution, aggregate cache hit rate,
measured speedup over serial-equivalent time).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .. import obs
from ..errors import ConfigurationError
from ..traces import PowerTrace, synthesize_catalog_traces
from .cache import (
    ArtifactCache,
    SharedTraces,
    get_traces,
    load_shared_traces,
    put_traces,
    stage_shared_traces,
)
from .scenario import Scenario
from .telemetry import FleetManifest, RunManifest, TaskRecord

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: The recognized executor backends (plus ``"auto"``).
BACKENDS = ("serial", "thread", "process")


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


def resolve_backend(backend: str = "auto", jobs: int = 1) -> str:
    """Pick the concrete executor backend.

    ``"auto"`` selects ``serial`` for one worker and ``process``
    otherwise (the pipelines are CPU-bound pure Python, so processes
    are the only backend that scales them).

    Raises:
        ConfigurationError: on an unknown backend name.
    """
    if backend == "auto":
        return "serial" if jobs <= 1 else "process"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown executor backend {backend!r};"
            f" expected one of {('auto',) + BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class StagedTraces:
    """Traces the batch parent staged for one trace key.

    Exactly one of ``traces`` (in-process backends: the mapping itself,
    zero-copy) or ``shared`` (process backend: a shared-memory handle)
    is set.  ``cache_hit`` carries the parent's artifact-cache lookup
    outcome into each worker's ``traces`` stage record.
    """

    cache_hit: bool | None = None
    traces: Mapping[str, PowerTrace] | None = None
    shared: SharedTraces | None = None


def _run_scenario_task(
    scenario_json: str,
    cache_dir: str | None,
    manifest_dir: str | None,
    staged: StagedTraces | None = None,
) -> tuple[dict, float, str]:
    """Execute one scenario inside a worker.

    Module-level (hence picklable for the process backend).  Returns
    the run manifest as a plain dict — the full
    :class:`~repro.experiments.runner.RunResult` holds traces and
    cluster state that are expensive to ship between processes — plus
    the task's wall time and the worker's label.
    """
    import threading

    from .runner import Runner

    start = time.perf_counter()
    scenario = Scenario.from_json(scenario_json)
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    traces = None
    traces_from_cache = None
    if staged is not None:
        traces_from_cache = staged.cache_hit
        if staged.shared is not None:
            traces = load_shared_traces(staged.shared)
        else:
            traces = staged.traces
    runner = Runner(
        scenario,
        cache=cache,
        use_cache=cache is not None,
        manifest_dir=manifest_dir,
        traces=traces,
        traces_from_cache=traces_from_cache,
    )
    thread = threading.current_thread()
    if thread is threading.main_thread():
        worker = f"pid:{os.getpid()}"
    else:
        worker = f"thread:{thread.name}"
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
    backend: str = "auto",
    cache: ArtifactCache | None = None,
    use_cache: bool = True,
    manifest_dir: str | Path | None = None,
    fleet_manifest_path: str | Path | None = None,
) -> BatchResult:
    """Run a batch of scenarios, fanned across workers.

    Args:
        scenarios: The scenarios to execute.
        jobs: Worker count; ``None`` resolves ``$REPRO_JOBS`` then
            ``os.cpu_count()``.
        backend: ``"auto"`` (process when ``jobs > 1``), ``"serial"``,
            ``"thread"``, or ``"process"``.
        cache: Shared artifact cache; built at the default location
            when omitted (and ``use_cache`` is on).  Workers share it
            by directory — writes are atomic, so concurrent identical
            computations are safe.
        use_cache: ``False`` disables artifact caching in every worker.
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
    backend = resolve_backend(backend, jobs)
    if backend == "serial":
        jobs = 1
    if use_cache:
        cache = cache or ArtifactCache()
        cache_dir: str | None = str(cache.directory)
    else:
        cache_dir = None
    manifest_dir_arg = (
        str(manifest_dir) if manifest_dir is not None else None
    )

    start = time.perf_counter()
    # Stage traces once per unique trace key: cache lookup (or
    # synthesis + cache write) in the parent, then hand every task a
    # lightweight payload — process workers get a shared-memory handle
    # instead of pickled year-long arrays.
    keys = [scenario.trace_key() for scenario in scenarios]
    use_shm = backend == "process"
    staged: dict[str, StagedTraces] = {}
    segments = []
    try:
        for scenario, key in zip(scenarios, keys):
            if key in staged:
                continue
            hit = None
            traces = None
            if cache is not None:
                traces = get_traces(cache, key)
                hit = traces is not None
            if traces is None:
                traces = synthesize_catalog_traces(
                    scenario.catalog(),
                    scenario.grid,
                    seed=scenario.effective_trace_seed,
                )
                if cache is not None:
                    put_traces(cache, key, traces)
            if use_shm:
                descriptor, segment = stage_shared_traces(traces)
                segments.append(segment)
                staged[key] = StagedTraces(
                    cache_hit=hit, shared=descriptor
                )
            else:
                staged[key] = StagedTraces(cache_hit=hit, traces=traces)
        payloads = [
            (scenario.to_json(), cache_dir, manifest_dir_arg, staged[key])
            for scenario, key in zip(scenarios, keys)
        ]
        workers = min(jobs, len(payloads))
        if workers <= 1:
            outcomes = [_run_scenario_task(*payload) for payload in payloads]
        else:
            pool_type = (
                ThreadPoolExecutor
                if backend == "thread"
                else ProcessPoolExecutor
            )
            with pool_type(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_scenario_task, *payload)
                    for payload in payloads
                ]
                outcomes = [future.result() for future in futures]
    finally:
        for segment in segments:
            segment.close()
            segment.unlink()
    wall_seconds = time.perf_counter() - start

    manifests = [RunManifest.from_dict(data) for data, _, _ in outcomes]
    fleet = FleetManifest(
        backend=backend,
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
