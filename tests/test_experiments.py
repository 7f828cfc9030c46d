"""Tests for the experiments layer: Scenario, ArtifactCache, Runner."""

from __future__ import annotations

import json
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ArtifactCache,
    ComputeSpec,
    ForecasterSpec,
    PolicySpec,
    RunManifest,
    Scenario,
    WorkloadSpec,
    cached_catalog_traces,
    catalog_trace_key,
    run_scenario,
)
from repro.traces import default_european_catalog
from repro.units import TimeGrid, grid_days

START = datetime(2015, 5, 1)


def small_scenario(**overrides) -> Scenario:
    """A fast applications-mode scenario (2 sites, 2 days, 2 policies)."""
    defaults = dict(
        name="smoke",
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
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarioSerialization:
    def test_round_trip_equality(self):
        scenario = small_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_round_trip_preserves_hash(self):
        scenario = small_scenario()
        clone = Scenario.from_json(scenario.to_json())
        assert clone.content_hash() == scenario.content_hash()

    def test_vm_requests_round_trip(self):
        scenario = Scenario(
            name="vm",
            sites=("BE-wind",),
            grid=grid_days(START, 2),
            workload=WorkloadSpec(kind="vm_requests"),
            seed=3,
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_wrong_schema_rejected(self):
        data = small_scenario().to_dict()
        data["schema"] = 999
        with pytest.raises(ConfigurationError):
            Scenario.from_dict(data)

    def test_malformed_dict_rejected(self):
        data = small_scenario().to_dict()
        del data["grid"]
        with pytest.raises(ConfigurationError):
            Scenario.from_dict(data)

    def test_seed_derivation(self):
        scenario = small_scenario(seed=10)
        assert scenario.effective_trace_seed == 10
        assert scenario.effective_workload_seed == 11
        assert scenario.effective_forecast_seed == 12
        pinned = small_scenario(seed=10, trace_seed=50, workload_seed=60,
                                forecast_seed=70)
        assert pinned.seeds_dict() == {
            "master": 10, "traces": 50, "workload": 60, "forecast": 70,
        }

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            small_scenario(sites=())
        with pytest.raises(ConfigurationError):
            small_scenario(sites=("UK-wind", "UK-wind"))
        with pytest.raises(ConfigurationError):
            small_scenario(policies=(
                PolicySpec("A", "mip"), PolicySpec("A", "greedy"),
            ))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="quantum")
        with pytest.raises(ConfigurationError):
            ForecasterSpec(kind="oracle-of-delphi")
        with pytest.raises(ConfigurationError):
            PolicySpec("X", kind="simulated-annealing")
        with pytest.raises(ConfigurationError):
            ComputeSpec(cores_per_site=0)
        with pytest.raises(ConfigurationError):
            PolicySpec("X", "mip", decompose="frobnicate:3")
        with pytest.raises(ConfigurationError):
            PolicySpec("X", "mip", decompose="window:24,jobs:2")
        with pytest.raises(ConfigurationError):
            # Decomposition only applies to plain MIP policies.
            PolicySpec("X", "rolling_mip", decompose="window:24")

    def test_decompose_reaches_scheduler_and_cache_key(self):
        spec = PolicySpec("MIP", "mip", decompose="window:24")
        scheduler = spec.build()
        assert scheduler.decompose is not None
        assert scheduler.decompose.window_steps == 24
        base = small_scenario()
        tweaked = small_scenario(policies=(
            PolicySpec("Greedy", "greedy"),
            PolicySpec("MIP", "mip", time_limit_s=10.0,
                       decompose="window:24"),
        ))
        assert tweaked.solve_key(tweaked.policies[1]) != base.solve_key(
            base.policies[1]
        )


class TestContentHash:
    def test_hash_stable_across_processes(self):
        """The content hash must not depend on PYTHONHASHSEED."""
        scenario = small_scenario()
        program = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tests.test_experiments import small_scenario\n"
            "print(small_scenario().content_hash())\n"
        )
        root = str(Path(__file__).resolve().parent.parent)
        hashes = set()
        for hashseed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", program, root],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": hashseed,
                     "PYTHONPATH": str(Path(root) / "src")},
            )
            hashes.add(out.stdout.strip())
        assert hashes == {scenario.content_hash()}

    def test_hash_changes_with_content(self):
        base = small_scenario()
        assert small_scenario(seed=8).content_hash() != base.content_hash()
        renamed = small_scenario(name="other")
        assert renamed.content_hash() != base.content_hash()

    def test_fragment_keys_are_granular(self):
        """Changing a policy must not invalidate traces or forecasts."""
        base = small_scenario()
        tweaked = small_scenario(policies=(
            PolicySpec("Greedy", "greedy"),
            PolicySpec("MIP", "mip", time_limit_s=20.0),
        ))
        assert tweaked.trace_key() == base.trace_key()
        assert tweaked.forecast_key() == base.forecast_key()
        mip = base.policies[1]
        assert tweaked.solve_key(tweaked.policies[1]) != base.solve_key(mip)
        # The untouched policy's solve survives too.
        assert tweaked.solve_key(tweaked.policies[0]) == base.solve_key(
            base.policies[0]
        )

    def test_trace_key_covers_grid_and_seed(self):
        base = small_scenario()
        assert small_scenario(
            grid=TimeGrid(START, timedelta(hours=1), 3 * 24)
        ).trace_key() != base.trace_key()
        assert small_scenario(trace_seed=99).trace_key() != base.trace_key()
        # The scenario name is free to change without losing artifacts.
        assert small_scenario(name="renamed").trace_key() == base.trace_key()


class TestArtifactCache:
    def test_cached_traces_bit_identical(self, tmp_path):
        catalog = default_european_catalog().subset(
            ["NO-solar", "UK-wind"]
        )
        grid = grid_days(START, 2)
        cache = ArtifactCache(tmp_path)
        cold = cached_catalog_traces(catalog, grid, 5, cache)
        assert cache.misses == 1 and cache.hits == 0
        warm = cached_catalog_traces(catalog, grid, 5, cache)
        assert cache.hits == 1
        uncached = cached_catalog_traces(catalog, grid, 5, None)
        for name in catalog.names:
            np.testing.assert_array_equal(
                warm[name].values, cold[name].values
            )
            np.testing.assert_array_equal(
                warm[name].values, uncached[name].values
            )
            assert warm[name].grid == cold[name].grid
            assert warm[name].kind == cold[name].kind
            assert warm[name].capacity_mw == cold[name].capacity_mw

    def test_different_inputs_miss(self, tmp_path):
        catalog = default_european_catalog().subset(["NO-solar"])
        grid = grid_days(START, 1)
        cache = ArtifactCache(tmp_path)
        cached_catalog_traces(catalog, grid, 5, cache)
        assert catalog_trace_key(catalog, grid, 6) != catalog_trace_key(
            catalog, grid, 5
        )
        cached_catalog_traces(catalog, grid, 6, cache)
        assert cache.misses == 2

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        catalog = default_european_catalog().subset(["NO-solar"])
        grid = grid_days(START, 1)
        cache = ArtifactCache(tmp_path)
        original = cached_catalog_traces(catalog, grid, 5, cache)
        key = catalog_trace_key(catalog, grid, 5)
        path = cache._path(key, "npz")
        path.write_bytes(b"not a zipfile")
        recovered = cached_catalog_traces(catalog, grid, 5, cache)
        np.testing.assert_array_equal(
            recovered["NO-solar"].values, original["NO-solar"].values
        )

    def test_json_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get_json(key) is None
        cache.put_json(key, {"x": [1, 2, 3]})
        assert cache.get_json(key) == {"x": [1, 2, 3]}


class TestRunner:
    def test_applications_smoke(self, tmp_path):
        result = run_scenario(
            small_scenario(),
            cache=ArtifactCache(tmp_path / "cache"),
            manifest_dir=tmp_path / "manifests",
        )
        assert result.comparison is not None
        assert set(result.placements) == {"Greedy", "MIP"}
        assert set(result.executions) == {"Greedy", "MIP"}
        assert result.problem is not None
        manifest = result.manifest
        for stage in ("traces", "workload", "forecast", "solve:Greedy",
                      "solve:MIP", "execute:Greedy", "execute:MIP",
                      "analyze"):
            assert manifest.stage(stage).seconds >= 0.0
        assert set(manifest.summary["policies"]) == {"Greedy", "MIP"}
        assert result.manifest_path is not None
        written = json.loads(result.manifest_path.read_text())
        assert written["scenario_hash"] == small_scenario().content_hash()

    def test_repeat_run_hits_cache_and_is_faster(self, tmp_path):
        """The acceptance criterion: a rerun with an unchanged scenario
        reuses every cached stage and cuts wall time by >= 2x."""
        cache = ArtifactCache(tmp_path)
        cold = run_scenario(small_scenario(), cache=cache)
        assert not any(cold.manifest.cache_hits().values())
        warm = run_scenario(small_scenario(), cache=cache)
        hits = warm.manifest.cache_hits()
        assert hits == {
            "traces": True, "forecast": True,
            "solve:Greedy": True, "solve:MIP": True,
        }
        assert warm.manifest.all_cache_hits()
        assert warm.manifest.total_seconds() <= (
            cold.manifest.total_seconds() / 2.0
        )

    def test_cached_run_reproduces_results(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = run_scenario(small_scenario(), cache=cache)
        warm = run_scenario(small_scenario(), cache=cache)
        for name in ("Greedy", "MIP"):
            assert (
                warm.placements[name].assignment
                == cold.placements[name].assignment
            )
            np.testing.assert_array_equal(
                warm.executions[name].total_transfer_series(),
                cold.executions[name].total_transfer_series(),
            )
        assert warm.comparison.summary_dict() == (
            cold.comparison.summary_dict()
        )

    def test_no_cache_mode(self, tmp_path):
        result = run_scenario(small_scenario(), use_cache=False)
        assert result.manifest.cache_dir is None
        assert result.manifest.cache_hits() == {}
        assert not result.manifest.all_cache_hits()
        assert result.comparison is not None

    def test_vm_requests_smoke(self, tmp_path):
        scenario = Scenario(
            name="vm-smoke",
            sites=("BE-wind",),
            grid=grid_days(START, 2),
            workload=WorkloadSpec(kind="vm_requests"),
            seed=3,
        )
        result = run_scenario(
            scenario, cache=ArtifactCache(tmp_path)
        )
        assert set(result.simulations) == {"BE-wind"}
        summary = result.manifest.summary["sites"]["BE-wind"]
        for field in ("out_gb", "in_gb", "peak_step_gb",
                      "silent_power_change_fraction",
                      "wan_busy_fraction"):
            assert field in summary
        assert result.manifest.stage("simulate:BE-wind").seconds >= 0.0

    def test_applications_without_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(small_scenario(policies=()), use_cache=False)


class TestManifest:
    def test_round_trip(self, tmp_path):
        result = run_scenario(
            small_scenario(),
            cache=ArtifactCache(tmp_path / "cache"),
            manifest_dir=tmp_path / "manifests",
        )
        loaded = RunManifest.read(result.manifest_path)
        assert loaded.scenario_hash == result.manifest.scenario_hash
        assert loaded.cache_hits() == result.manifest.cache_hits()
        assert [s.name for s in loaded.stages] == (
            [s.name for s in result.manifest.stages]
        )
        assert Scenario.from_dict(loaded.scenario) == result.scenario

    def test_unknown_stage_lookup(self):
        manifest = RunManifest(
            scenario_name="x", scenario_hash="h", scenario={}, seeds={}
        )
        with pytest.raises(KeyError):
            manifest.stage("nope")
