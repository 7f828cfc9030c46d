"""Tests of the end-to-end benchmark itself (not of the program).

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``; they sit outside the tier-1 ``testpaths``.  One
tiny-size run of every workload (a few seconds each) feeds most tests.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from timing import (
    MIN_BEYOND,
    REFERENCE_S,
    quartiles,
    reference_kernel,
    relative_iqr,
    tail_percentile,
    timed,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = _run("--out", str(out), "--tiny", "--repeats", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_every_workload_runs_and_passes_its_checks(tiny_result):
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(tiny_result["workloads"]) == names
    for name, report in tiny_result["workloads"].items():
        assert report["failures"] == [], name
        assert report["failed_frac"] == 0.0
        assert report["attempted"] >= 1
        assert report["digest"]


def test_every_metric_is_reported_with_its_unit(tiny_result):
    for report in tiny_result["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            listed = {m["name"]: m["unit"] for m in SPEC[section]}
            assert list(report[section]) == list(listed)
            for name, value in report[section].items():
                assert value["unit"] == listed[name]
                assert isinstance(value["value"], float), name
        for value in report["end_to_end"].values():
            assert value["value"] > 0


def test_traced_pass_is_attributed_to_layers(tiny_result):
    expected = {
        "plan-week": {"sched"},
        "fleet-year": {"sim"},
        "fleet-battery": {"supply"},
        "twin-session": {"serve", "sim"},
    }
    for name, report in tiny_result["workloads"].items():
        assert report["per_layer"]["bench.layer_coverage"]["value"] >= 0.9
        assert report["layers"]["dominant"] in expected[name]


def test_machine_metadata(tiny_result):
    machine = tiny_result["machine"]
    for key in ("cpu_count", "affinity", "python", "numpy", "scipy",
                "highspy", "git_sha", "load_1min", "seed"):
        assert key in machine


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_result_line_is_the_last_line():
    done = _run("--workload", "fleet-year", "--tiny", "--repeats", "1",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _run("--workload", "fleet-year", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _slowed(result: dict, factor: float) -> dict:
    slower = copy.deepcopy(result)
    wall = slower["workloads"]["fleet-year"]["end_to_end"]["wall_s"]
    for key in ("value", "q1", "q3"):
        wall[key] *= factor
    wall["samples"] = [s * factor for s in wall["samples"]]
    return slower


def test_compare_fails_a_wall_time_regression(tiny_result, tmp_path):
    bound = next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s"
    )
    same = tmp_path / "a.json"
    same.write_text(json.dumps(tiny_result))
    assert compare.main([str(same), str(same)]) == 0
    # Half the bound passes; the bound's own 25% plus a margin fails.
    for factor, code in ((1 + bound / 2, 0), (1.30, 1)):
        changed = tmp_path / "b.json"
        changed.write_text(json.dumps(_slowed(tiny_result, factor)))
        assert compare.main([str(same), str(changed)]) == code, factor


def test_compare_rejects_changed_simulation(tiny_result, tmp_path):
    changed = copy.deepcopy(tiny_result)
    changed["workloads"]["twin-session"]["digest"] = "0" * 16
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(tiny_result))
    b.write_text(json.dumps(changed))
    assert compare.main([str(a), str(b)]) == 1


def test_timed_runs_warmup_then_exact_repeats():
    calls = []
    timing = timed(lambda: calls.append(1), repeats=4, warmup=2)
    assert len(calls) == 6
    assert len(timing.samples) == len(timing.raw) == 4
    assert timing.q1 <= timing.median <= timing.q3


def test_normalization_cancels_machine_speed():
    # The reference kernel timed against itself reads REFERENCE_S
    # whatever the machine's speed, up to the noise between two runs.
    timing = timed(reference_kernel, repeats=15, warmup=1)
    assert timing.median == pytest.approx(REFERENCE_S, rel=0.2)
    assert timing.slowdown == pytest.approx(
        statistics.median(timing.raw) / timing.median
    )


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert quartiles(values) == (1.5, 3.0, 4.5)
    assert relative_iqr(values) == pytest.approx(1.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_tail_percentile_needs_ten_samples_beyond():
    few = [float(i) for i in range(50)]
    assert tail_percentile(few)[0] == 50
    many = [float(i) for i in range(200)]
    p, value = tail_percentile(many)
    assert p == 90
    assert sum(1 for s in many if s > value) >= MIN_BEYOND
