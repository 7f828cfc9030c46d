"""Tests for parallel scenario execution (repro.experiments.parallel).

The load-bearing guarantees: worker-count resolution respects the
explicit > ``$REPRO_JOBS`` > fallback chain, in-process and process-pool
batches produce identical result summaries, ``use_cache=False`` touches
no cache anywhere, and concurrent workers racing on one cache key leave
a single valid entry (atomic ``os.replace`` writes).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ArtifactCache,
    ComputeSpec,
    FleetManifest,
    PolicySpec,
    Scenario,
    TaskRecord,
    WorkloadSpec,
    auto_jobs,
    resolve_jobs,
    run_scenario,
    run_scenarios,
)
from repro.experiments.parallel import JOBS_ENV
from repro.units import TimeGrid, grid_days

START = datetime(2015, 5, 1)


def tiny_scenarios(n: int = 3) -> list[Scenario]:
    """Seed ensemble of fast single-site vm_requests scenarios."""
    return [
        Scenario(
            name=f"batch-{seed}",
            sites=("BE-wind",),
            grid=grid_days(START, 2),
            workload=WorkloadSpec(kind="vm_requests"),
            seed=seed,
        )
        for seed in range(n)
    ]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(None, fallback=2) == 5

    def test_fallback_then_auto(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None, fallback=2) == 2
        assert resolve_jobs(None) == auto_jobs()

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)

    def test_floor_at_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


class TestFleetManifest:
    def test_round_trip(self, tmp_path):
        fleet = FleetManifest(backend="process", jobs=4, wall_seconds=2.0)
        fleet.tasks.append(
            TaskRecord("a", "hash-a", seconds=1.5, worker="pid:1")
        )
        fleet.tasks.append(
            TaskRecord("b", "hash-b", seconds=2.5, worker="pid:2")
        )
        fleet.cache_hits = 3
        fleet.cache_lookups = 4
        fleet.stage_seconds["traces"] = 0.5
        path = fleet.write(tmp_path / "fleet.json")
        clone = FleetManifest.read(path)
        assert clone.to_dict() == fleet.to_dict()

    def test_derived_metrics(self):
        fleet = FleetManifest(backend="process", jobs=2, wall_seconds=2.0)
        fleet.tasks = [
            TaskRecord("a", "ha", seconds=1.5),
            TaskRecord("b", "hb", seconds=2.5),
        ]
        fleet.cache_hits, fleet.cache_lookups = 1, 4
        assert fleet.task_seconds() == pytest.approx(4.0)
        assert fleet.speedup() == pytest.approx(2.0)
        assert fleet.cache_hit_rate() == pytest.approx(0.25)

    def test_empty_rates(self):
        fleet = FleetManifest(backend="serial", jobs=1)
        assert fleet.speedup() == 0.0
        assert fleet.cache_hit_rate() == 0.0


class TestBatchDeterminism:
    def test_serial_vs_process_identical_summaries(self, tmp_path):
        """jobs=1 serial and jobs=4 process agree result-for-result."""
        scenarios = tiny_scenarios(3)
        serial = run_scenarios(
            scenarios, jobs=1,
            cache=ArtifactCache(tmp_path / "cache-serial"),
        )
        parallel = run_scenarios(
            scenarios, jobs=4,
            cache=ArtifactCache(tmp_path / "cache-process"),
            fleet_manifest_path=tmp_path / "fleet.json",
        )
        assert serial.summaries() == parallel.summaries()
        assert serial.fleet.backend == "serial"
        # Manifests come back in submission order with worker labels.
        names = [m.scenario_name for m in parallel.manifests]
        assert names == [s.name for s in scenarios]
        assert all(
            task.worker and task.worker.startswith("pid:")
            for task in parallel.fleet.tasks
        )
        assert parallel.fleet.backend == "process"
        assert parallel.fleet.jobs == 4
        assert parallel.fleet.wall_seconds > 0
        # The written fleet manifest round-trips.
        clone = FleetManifest.read(parallel.fleet_path)
        assert clone.to_dict() == parallel.fleet.to_dict()

    def test_batch_matches_single_runs(self, tmp_path):
        """An in-process batch reproduces run_scenario one-by-one."""
        scenarios = tiny_scenarios(2)
        batch = run_scenarios(
            scenarios, jobs=1,
            cache=ArtifactCache(tmp_path / "cache-batch"),
        )
        singles = [
            run_scenario(
                scenario, cache=ArtifactCache(tmp_path / "cache-single")
            ).manifest.summary
            for scenario in scenarios
        ]
        assert batch.summaries() == singles

    def test_warm_cache_hits_recorded(self, tmp_path):
        scenarios = tiny_scenarios(2)
        cache = ArtifactCache(tmp_path / "cache")
        cold = run_scenarios(scenarios, jobs=1, cache=cache)
        warm = run_scenarios(scenarios, jobs=1, cache=cache)
        assert cold.summaries() == warm.summaries()
        assert warm.fleet.cache_lookups > 0
        assert warm.fleet.cache_hits == warm.fleet.cache_lookups
        assert warm.fleet.cache_hit_rate() == 1.0
        assert warm.fleet.cache_hit_rate() >= cold.fleet.cache_hit_rate()

    def test_no_cache_touches_no_cache(self, tmp_path):
        """use_cache=False ignores a given cache: the parent neither
        writes nor reads trace artifacts, and no stage does a lookup."""
        cache = ArtifactCache(tmp_path / "cache")
        scenarios = tiny_scenarios(1)
        for _ in range(2):
            batch = run_scenarios(
                scenarios, jobs=1, cache=cache, use_cache=False
            )
            assert not any(cache.directory.rglob("*.*"))
            assert batch.manifests[0].stage("traces").cache_hit is None
            assert batch.manifests[0].cache_dir is None
            assert batch.fleet.cache_lookups == 0
            assert batch.fleet.cache_hits == 0
        assert cache.hits == cache.misses == 0

    def test_stage_seconds_aggregated(self, tmp_path):
        batch = run_scenarios(
            tiny_scenarios(2), jobs=1,
            cache=ArtifactCache(tmp_path / "cache"),
        )
        assert "traces" in batch.fleet.stage_seconds
        total = sum(
            stage.seconds
            for manifest in batch.manifests
            for stage in manifest.stages
        )
        assert sum(batch.fleet.stage_seconds.values()) == pytest.approx(total)


def _contend_on_key(cache_dir: str, worker_index: int) -> str:
    """Worker body for the cache-contention test (module-level: picklable).

    Every worker writes the *same* deterministic arrays under the same
    key — the race the atomic-write design must survive.
    """
    cache = ArtifactCache(cache_dir)
    arrays = {"values": np.arange(1000, dtype=float)}
    for _ in range(5):
        cache.put_arrays("contended-key", arrays)
    return f"done-{worker_index}"


class TestCacheContention:
    def test_concurrent_same_key_single_valid_entry(self, tmp_path):
        """N processes hammering one key leave exactly one valid entry."""
        cache_dir = str(tmp_path / "shared-cache")
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(
                    _contend_on_key,
                    [cache_dir] * 4,
                    range(4),
                )
            )
        assert sorted(results) == [f"done-{i}" for i in range(4)]
        entries = sorted((tmp_path / "shared-cache").rglob("*.npz"))
        assert len(entries) == 1  # no temp-file debris, no duplicates
        loaded = ArtifactCache(cache_dir).get_arrays("contended-key")
        assert loaded is not None
        np.testing.assert_array_equal(
            loaded["values"], np.arange(1000, dtype=float)
        )


class TestRunnerJobs:
    def test_policy_fanout_matches_serial(self, tmp_path):
        """Runner jobs=2 (thread fan-out of policy solves) is identical
        to the serial run: each policy task builds its own forecaster
        from the scenario seed, so worker scheduling cannot leak in."""
        scenario = Scenario(
            name="fanout",
            sites=("NO-solar", "UK-wind"),
            grid=TimeGrid(START, timedelta(hours=1), 2 * 24),
            workload=WorkloadSpec(count=20, mean_vm_count=8.0),
            policies=(
                PolicySpec("Greedy", "greedy"),
                PolicySpec("MIP", "mip", time_limit_s=10.0),
            ),
            compute=ComputeSpec(cores_per_site=2000),
            seed=7,
        )
        serial = run_scenario(
            scenario, cache=ArtifactCache(tmp_path / "cache-1"), jobs=1
        )
        fanned = run_scenario(
            scenario, cache=ArtifactCache(tmp_path / "cache-2"), jobs=2
        )
        assert serial.manifest.summary == fanned.manifest.summary
        solve_workers = {
            stage.worker
            for stage in fanned.manifest.stages
            if stage.name.startswith("solve:")
        }
        assert all(
            worker and worker.startswith("thread:")
            for worker in solve_workers
        )
        # Stage order stays deterministic (merge order, not finish order).
        assert [s.name for s in serial.manifest.stages] == [
            s.name for s in fanned.manifest.stages
        ]
