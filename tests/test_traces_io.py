"""Tests for trace CSV persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces import (
    synthesize_solar,
    trace_from_csv,
    trace_to_csv,
    catalog_traces_to_csv,
)


def test_roundtrip(tmp_path, week_grid):
    trace = synthesize_solar(week_grid, seed=3, name="BE-solar")
    path = tmp_path / "be.csv"
    trace_to_csv(trace, path)
    loaded = trace_from_csv(path)
    assert loaded.name == "BE-solar"
    assert loaded.kind == "solar"
    assert loaded.capacity_mw == trace.capacity_mw
    assert loaded.grid.compatible_with(trace.grid)
    np.testing.assert_allclose(loaded.values, trace.values, atol=1e-6)


def test_missing_metadata_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,normalized_power\n2020-05-01T00:00:00,0.5\n")
    with pytest.raises(TraceError):
        trace_from_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# capacity_mw=400.0\n# step_seconds=900.0\n")
    with pytest.raises(TraceError):
        trace_from_csv(path)


def test_malformed_metadata_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# nonsense\ntimestamp,normalized_power\n")
    with pytest.raises(TraceError):
        trace_from_csv(path)


def test_catalog_write(tmp_path, day_grid):
    traces = {
        "a": synthesize_solar(day_grid, seed=1, name="a"),
        "b": synthesize_solar(day_grid, seed=2, name="b"),
    }
    written = catalog_traces_to_csv(traces, tmp_path / "traces")
    assert len(written) == 2
    assert all(p.exists() for p in written)
    loaded = trace_from_csv(written[0])
    assert loaded.name == "a"


def test_shipped_sample_traces_load():
    """The repository's data/sample_traces CSVs parse and calibrate."""
    from pathlib import Path

    sample_dir = Path(__file__).parent.parent / "data" / "sample_traces"
    paths = sorted(sample_dir.glob("*.csv"))
    assert len(paths) == 3
    for path in paths:
        trace = trace_from_csv(path)
        assert len(trace) == 7 * 96
        assert trace.kind in ("solar", "wind")
        assert 0.0 <= trace.values.min()
        assert trace.values.max() <= 1.0
