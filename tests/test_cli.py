"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_sites_lists_catalog(capsys):
    assert main(["sites"]) == 0
    out = capsys.readouterr().out
    assert "NO-solar" in out
    assert "UK-wind" in out


def test_synthesize_writes_csv(tmp_path, capsys):
    code = main(
        [
            "synthesize", "--sites", "UK-wind", "BE-solar",
            "--days", "2", "--out", str(tmp_path), "--seed", "3",
        ]
    )
    assert code == 0
    assert (tmp_path / "UK-wind.csv").exists()
    assert (tmp_path / "BE-solar.csv").exists()
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == sorted(
        f"wrote {tmp_path / name}.csv (192 samples)"
        for name in ("UK-wind", "BE-solar")
    )
    from repro.traces import trace_from_csv

    trace = trace_from_csv(tmp_path / "UK-wind.csv")
    assert len(trace) == 2 * 96


def test_variability_report(capsys):
    code = main(
        [
            "variability", "--sites", "NO-solar", "UK-wind",
            "--days", "6", "--seed", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "NO-solar+UK-wind" in out
    assert "Stable energy" in out


def test_simulate_report(capsys):
    code = main(
        ["simulate", "--kind", "wind", "--days", "3", "--seed", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "out-migration GB" in out
    assert "silent power changes" in out


def test_forecast_report(capsys):
    code = main(
        ["forecast", "--kind", "solar", "--days", "20", "--seed", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "3h" in out and "MAPE" in out


@pytest.mark.slow
def test_schedule_report(capsys):
    code = main(
        ["schedule", "--days", "3", "--apps", "40", "--seed", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Greedy" in out and "MIP-peak" in out


@pytest.mark.slow
def test_schedule_decomposed(capsys):
    code = main(
        ["schedule", "--days", "2", "--apps", "25", "--seed", "5",
         "--decompose", "window:24"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Greedy" in out and "MIP-peak" in out


def test_bad_decompose_spec_is_a_usage_error(capsys):
    for command in (["schedule"], ["sweep", "--mode", "schedule"]):
        for spec in ("frobnicate", "window:24,jobs:2", "relax-fix"):
            with pytest.raises(SystemExit) as exit_info:
                main(command + ["--decompose", spec])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "argument --decompose" in err
            assert "unknown decompose token" in err


def test_serial_only_commands_take_no_fan_out_options(capsys):
    """Only ``schedule`` (policy solves) and ``sweep`` (scenarios)
    fan out; the other pipeline commands reject ``--jobs``, and no
    command takes an executor backend."""
    for argv in (
        ["sweep", "--backend", "thread"],
        ["simulate", "--jobs", "2"],
        ["synthesize", "--sites", "UK-wind", "--out", "x", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["warp-drive"])


def test_missing_required_argument():
    with pytest.raises(SystemExit):
        main(["synthesize", "--out", "/tmp/x"])  # --sites missing


def test_sweep_simulate_grid(tmp_path, capsys):
    code = main(
        [
            "sweep", "--mode", "simulate", "--sites", "BE-wind",
            "--days", "2", "--seeds", "0", "1",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest-dir", str(tmp_path / "manifests"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep: 2 scenarios" in out
    assert "backend=serial" in out
    assert "sweep-simulate-BE-wind-d2-s0-u0.7" in out
    assert "sweep-simulate-BE-wind-d2-s1-u0.7" in out
    assert "fleet manifest:" in out
    fleets = list((tmp_path / "manifests").glob("fleet_*.json"))
    assert len(fleets) == 1
    from repro.experiments import FleetManifest

    fleet = FleetManifest.read(fleets[0])
    assert fleet.backend == "serial"
    assert len(fleet.tasks) == 2
    # Per-scenario manifests land next to the fleet summary.
    assert (
        len(list((tmp_path / "manifests").glob("manifest_sweep-*.json")))
        == 2
    )
