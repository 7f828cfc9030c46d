"""Per-stage run telemetry: the :class:`RunManifest`.

Every :class:`~repro.experiments.runner.Runner` execution emits a
structured manifest — per-stage wall time, cache hit/miss, the RNG
seeds in effect, the content keys of the artifacts it touched, and a
summary of the results — written as JSON next to the text reports.
Repeatability questions ("did the second bench run actually hit the
cache?", "which seed produced this table?") are answered by reading the
manifest instead of re-running the experiment.

Stage timing is built on :mod:`repro.obs`: every
:meth:`RunManifest.record` opens a ``stage:<name>`` span and fills the
:class:`StageRecord` from the span's measurements, so the manifest is a
projection of the same span stream a trace sink sees (no second timer).
The runner captures that stream with an in-memory sink and attaches it
as :attr:`RunManifest.trace`, which ``repro report`` renders.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .. import obs


@dataclass
class StageRecord:
    """Telemetry for one pipeline stage.

    Attributes:
        name: Stage label, e.g. ``"traces"`` or ``"solve:MIP-peak"``.
        seconds: Wall-clock duration.
        cache_hit: ``True``/``False`` when the stage consulted the
            artifact cache; ``None`` for uncached stages.
        artifact: Content key of the artifact the stage produced or
            loaded, when it has one.
        worker: Label of the worker that executed the stage
            (``"pid:1234"`` / ``"thread:repro-stage_0"``); ``None`` for the
            main thread of a serial run.
    """

    name: str
    seconds: float = 0.0
    cache_hit: bool | None = None
    artifact: str | None = None
    worker: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types rendition."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "cache_hit": self.cache_hit,
            "artifact": self.artifact,
            "worker": self.worker,
        }


@dataclass
class RunManifest:
    """Structured record of one scenario execution.

    Attributes:
        scenario_name: The scenario's human label.
        scenario_hash: :meth:`Scenario.content_hash` of the scenario.
        scenario: The scenario's full serialized form.
        seeds: Effective per-stage RNG seeds.
        stages: Per-stage telemetry, in execution order.
        artifacts: Artifact label → content key.
        summary: Result summary statistics (policy tables, per-site
            availability, ...).
        cache_dir: Cache root used, or ``None`` when caching was off.
        created: ISO timestamp of when the run started.
        trace: The run's full observability record stream (span and
            metric dicts, see :mod:`repro.obs`) as captured by the
            runner's in-memory sink; rendered by ``repro report``.
    """

    scenario_name: str
    scenario_hash: str
    scenario: dict[str, Any]
    seeds: dict[str, int]
    stages: list[StageRecord] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    cache_dir: str | None = None
    created: str = field(
        default_factory=lambda: datetime.now().isoformat(timespec="seconds")
    )
    trace: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------

    @contextmanager
    def _span_stage(
        self, name: str, worker: str | None, attach: bool
    ) -> Iterator[StageRecord]:
        """One stage = one ``stage:<name>`` span.

        The :class:`StageRecord` is a projection of the span: its
        ``seconds`` is the span's wall time and its ``worker`` defaults
        to the span's thread attribution.  The span always measures
        (:func:`repro.obs.timed_span`) so manifests work with no sinks
        active, and carries the stage's cache-hit/artifact attributes
        when it emits.
        """
        stage = StageRecord(name, worker=worker)
        span = obs.timed_span("stage:" + name)
        span.__enter__()
        try:
            yield stage
        finally:
            span.set(cache_hit=stage.cache_hit, artifact=stage.artifact)
            span.__exit__(*sys.exc_info())
            stage.seconds = span.wall_s
            if stage.worker is None:
                stage.worker = span.worker
            if attach:
                self.stages.append(stage)

    def record(self, name: str):
        """Time a stage (as a span) and append its record.

        Usage::

            with manifest.record("traces") as stage:
                ...
                stage.cache_hit = True
        """
        return self._span_stage(name, worker=None, attach=True)

    def record_detached(self, name: str, worker: str | None = None):
        """Time a stage *without* appending it to :attr:`stages`.

        Concurrent stages (policy solves fanned across workers) each
        time themselves detached, then the caller merges the finished
        records in a deterministic order via :meth:`merge_stages` —
        keeping the manifest's stage order independent of worker
        scheduling.
        """
        return self._span_stage(name, worker=worker, attach=False)

    def merge_stages(self, stages: Iterable[StageRecord]) -> None:
        """Append detached per-worker stage records, in the given order."""
        self.stages.extend(stages)

    def stage(self, name: str) -> StageRecord:
        """The named stage record.

        Raises:
            KeyError: when no stage of that name was recorded.
        """
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(
            f"no stage named {name!r};"
            f" recorded: {[s.name for s in self.stages]}"
        )

    def cache_hits(self) -> dict[str, bool]:
        """Hit/miss per cache-aware stage."""
        return {
            stage.name: stage.cache_hit
            for stage in self.stages
            if stage.cache_hit is not None
        }

    def all_cache_hits(self) -> bool:
        """True when every cache-aware stage hit (a fully warm run)."""
        hits = self.cache_hits()
        return bool(hits) and all(hits.values())

    def total_seconds(self) -> float:
        """Sum of all stage durations."""
        return sum(stage.seconds for stage in self.stages)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types rendition of the whole manifest."""
        return {
            "scenario_name": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "created": self.created,
            "cache_dir": self.cache_dir,
            "seeds": dict(self.seeds),
            "stages": [stage.to_dict() for stage in self.stages],
            "artifacts": dict(self.artifacts),
            "summary": self.summary,
            "scenario": self.scenario,
            "trace": list(self.trace),
        }

    def to_json(self) -> str:
        """Indented JSON text of the manifest."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def write(self, path: str | Path) -> Path:
        """Write the manifest JSON to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        """Rebuild a manifest from its :meth:`to_dict` form."""
        return cls(
            scenario_name=data["scenario_name"],
            scenario_hash=data["scenario_hash"],
            scenario=dict(data["scenario"]),
            seeds=dict(data["seeds"]),
            stages=[
                StageRecord(
                    name=s["name"],
                    seconds=s["seconds"],
                    cache_hit=s["cache_hit"],
                    artifact=s.get("artifact"),
                    worker=s.get("worker"),
                )
                for s in data["stages"]
            ],
            artifacts=dict(data["artifacts"]),
            summary=dict(data["summary"]),
            cache_dir=data.get("cache_dir"),
            created=data.get("created", ""),
            trace=list(data.get("trace", [])),
        )

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        """Load a manifest previously written by :meth:`write`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Fleet-level telemetry: one record per batch of scenarios
# ----------------------------------------------------------------------


@dataclass
class TaskRecord:
    """Timing of one scenario task inside a batch run.

    Attributes:
        scenario_name: The scenario's human label.
        scenario_hash: Its content hash.
        seconds: Task wall-clock time as measured inside the worker
            (synthesis + pipeline + manifest write).
        worker: Which process executed it (``"pid:1234"``).
    """

    scenario_name: str
    scenario_hash: str
    seconds: float
    worker: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types rendition."""
        return {
            "scenario_name": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "seconds": self.seconds,
            "worker": self.worker,
        }


@dataclass
class FleetManifest:
    """Summary telemetry of one :func:`~repro.experiments.run_scenarios`
    batch.

    Attributes:
        backend: ``serial`` for ``jobs=1`` (the batch runs
            in-process), else ``process`` (a process pool).
        jobs: Worker count.
        wall_seconds: Batch wall-clock time, fan-out included.
        tasks: Per-scenario task timings, in submission order.
        cache_hits: Artifact-cache hits summed over every stage of
            every scenario manifest.
        cache_lookups: Cache-aware stage count over the whole batch.
        stage_seconds: Stage name → total seconds across all scenarios
            (per-worker stage timings merged from the run manifests).
        created: ISO timestamp of when the batch started.
    """

    backend: str
    jobs: int
    wall_seconds: float = 0.0
    tasks: list[TaskRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    created: str = field(
        default_factory=lambda: datetime.now().isoformat(timespec="seconds")
    )

    def task_seconds(self) -> float:
        """Serial-equivalent time: the sum of per-task wall times."""
        return sum(task.seconds for task in self.tasks)

    def speedup(self) -> float:
        """Measured parallel-efficiency figure of the batch.

        The ratio of serial-equivalent time (sum of per-task wall
        times) to batch wall time.  On uncontended hardware this equals
        the true speedup over a serial run; when workers share
        oversubscribed cores the per-task times inflate, so compare
        jobs=1 vs jobs=N wall clocks (as the perf benchmark does) for
        an end-to-end number.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.task_seconds() / self.wall_seconds

    def cache_hit_rate(self) -> float:
        """Fraction of cache-aware stages that hit, over the batch."""
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types rendition of the fleet summary."""
        return {
            "backend": self.backend,
            "jobs": self.jobs,
            "created": self.created,
            "n_scenarios": len(self.tasks),
            "wall_seconds": self.wall_seconds,
            "task_seconds": self.task_seconds(),
            "speedup": self.speedup(),
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
            "cache_hit_rate": self.cache_hit_rate(),
            "stage_seconds": dict(self.stage_seconds),
            "tasks": [task.to_dict() for task in self.tasks],
        }

    def to_json(self) -> str:
        """Indented JSON text of the fleet manifest."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def write(self, path: str | Path) -> Path:
        """Write the fleet manifest JSON to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetManifest":
        """Rebuild a fleet manifest from its :meth:`to_dict` form."""
        return cls(
            backend=data["backend"],
            jobs=int(data["jobs"]),
            wall_seconds=float(data["wall_seconds"]),
            tasks=[
                TaskRecord(
                    scenario_name=t["scenario_name"],
                    scenario_hash=t["scenario_hash"],
                    seconds=float(t["seconds"]),
                    worker=t.get("worker"),
                )
                for t in data.get("tasks", [])
            ],
            cache_hits=int(data.get("cache_hits", 0)),
            cache_lookups=int(data.get("cache_lookups", 0)),
            stage_seconds={
                name: float(seconds)
                for name, seconds in data.get("stage_seconds", {}).items()
            },
            created=data.get("created", ""),
        )

    @classmethod
    def read(cls, path: str | Path) -> "FleetManifest":
        """Load a fleet manifest previously written by :meth:`write`."""
        return cls.from_dict(json.loads(Path(path).read_text()))
