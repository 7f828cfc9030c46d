"""Tests of the shared micro-benchmark harness (``harness.py``)."""

from __future__ import annotations

import json
import time

import harness
from harness import BenchFile, paired, run_timed
from e2e.timing import Timing


def benches(path) -> dict:
    return json.loads(path.read_text())["benches"]


def test_partial_run_keeps_other_rows(tmp_path):
    """A run records only B': the file keeps A and holds B'."""
    path = tmp_path / "BENCH_x.json"
    first = BenchFile(path)
    first.record("A", value=1)
    first.record("B", value=2)
    first.write()
    assert set(benches(path)) == {"A", "B"}

    second = BenchFile(path)
    second.record("B", value=3)
    second.write()
    rows = benches(path)
    assert set(rows) == {"A", "B"}
    assert rows["A"]["value"] == 1
    assert rows["B"]["value"] == 3
    assert rows["A"]["recorded"] and rows["B"]["recorded"]
    assert set(json.loads(path.read_text())["machine"]) >= {
        "cpus", "python", "numpy",
    }

    before = path.read_bytes()
    BenchFile(path).write()
    assert path.read_bytes() == before


def test_rows_from_another_machine_are_dropped(tmp_path):
    """The file has one machine block, so a run on another machine
    starts the file afresh instead of relabelling the stored rows."""
    path = tmp_path / "BENCH_x.json"
    elsewhere = {**harness.machine(), "cpus": harness.machine()["cpus"] + 1}
    path.write_text(json.dumps(
        {"machine": elsewhere, "benches": {"A": {"value": 1}}}
    ))
    bench = BenchFile(path)
    bench.record("B", value=2)
    bench.write()
    stored = json.loads(path.read_text())
    assert set(stored["benches"]) == {"B"}
    assert stored["machine"] == harness.machine()


def test_run_without_rows_creates_no_file(tmp_path):
    path = tmp_path / "BENCH_x.json"
    BenchFile(path).write()
    assert not path.exists()


def test_timing_fields_expand(tmp_path):
    path = tmp_path / "BENCH_x.json"
    bench = BenchFile(path)
    bench.record("leg", run_s=Timing.of([1.0, 2.0, 3.0, 4.0], [1.0] * 4))
    bench.write()
    row = benches(path)["leg"]
    assert row["run_s"] == 2.5
    assert row["run_s_quartiles"] == [1.25, 3.75]
    assert row["run_s_passes"] == 4


def test_run_timed_returns_last_result():
    calls = iter(range(10))
    result, timing = run_timed(lambda: next(calls), repeats=3, warmup=1)
    assert result == 3
    assert len(timing.samples) == 3


def test_rounds_runs_at_least_gated_rounds(monkeypatch):
    """No warm-up pass; a time box of zero still runs the minimum."""
    monkeypatch.setattr(harness, "BOX_S", 0.0)
    calls = iter(range(10))
    result, timing = harness.rounds(lambda: next(calls))
    assert result == harness.GATED_ROUNDS - 1
    assert len(timing.samples) == harness.GATED_ROUNDS


def test_paired_alternates_legs(monkeypatch):
    """One warm-up pass each, then A B B A passes, split per leg."""
    monkeypatch.setattr(harness, "BOX_S", 0.0)
    calls = []

    def slow():
        calls.append("b")
        time.sleep(0.02)

    a, b = paired(lambda: calls.append("a"), slow)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert len(a.samples) == len(b.samples) == harness.GATED_ROUNDS
    assert max(a.raw) < 0.02 <= min(b.raw)


def test_paired_runs_at_least_passes_each(monkeypatch):
    """A gate may ask for more passes than :data:`GATED_ROUNDS`; each
    leg then gets that many timed passes, still alternating."""
    monkeypatch.setattr(harness, "BOX_S", 0.0)
    calls = []
    a, b = paired(
        lambda: calls.append("a"), lambda: calls.append("b"), passes=9
    )
    assert len(a.samples) == len(b.samples) == 9
    assert calls == ["a", "b"] + ["b", "a", "a", "b"] * 4 + ["b", "a"]
