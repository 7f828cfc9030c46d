"""Tests for repro.obs: spans, metrics, sinks, report, unified API."""

from __future__ import annotations

import contextvars
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta

import pytest

from repro import obs
from repro.cli import main
from repro.experiments import (
    ComputeSpec,
    PolicySpec,
    Runner,
    Scenario,
    WorkloadSpec,
    run_scenario,
)
from repro.sim import SUMMARY_SCHEMA, simulate
from repro.units import TimeGrid, grid_days

START = datetime(2015, 5, 1)


@pytest.fixture(autouse=True)
def _clean_trace_env(monkeypatch):
    """No ambient $REPRO_TRACE and a fresh sink cache per test."""
    monkeypatch.delenv(obs.TRACE_ENV, raising=False)
    obs.reset()
    yield
    obs.reset()


def vm_scenario(**overrides) -> Scenario:
    defaults = dict(
        name="obs-vm",
        sites=("BE-wind",),
        grid=grid_days(START, 2),
        workload=WorkloadSpec(kind="vm_requests"),
        seed=3,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def apps_scenario(**overrides) -> Scenario:
    defaults = dict(
        name="obs-apps",
        sites=("NO-solar", "UK-wind"),
        grid=TimeGrid(START, timedelta(hours=1), 2 * 24),
        workload=WorkloadSpec(count=15, mean_vm_count=8.0),
        policies=(
            PolicySpec("Greedy", "greedy"),
            PolicySpec("MIP", "mip", time_limit_s=10.0),
        ),
        compute=ComputeSpec(cores_per_site=2000),
        seed=7,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestSpans:
    def test_nesting_links_parent_ids(self):
        with obs.use(obs.MemorySink()) as mem:
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    assert obs.current_span_id() == inner.span_id
                assert obs.current_span_id() == outer.span_id
            assert obs.current_span_id() is None
        spans = {r["name"]: r for r in mem.spans()}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        # Children complete (and emit) before their parents.
        assert [r["name"] for r in mem.spans()] == ["inner", "outer"]

    def test_exception_sets_error_and_propagates(self):
        with obs.use(obs.MemorySink()) as mem:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("nope")
        record = mem.spans()[0]
        assert record["error"] == "ValueError"
        assert record["wall_s"] >= 0.0

    def test_attrs_and_set_skip_none(self):
        with obs.use(obs.MemorySink()) as mem:
            with obs.span("s", fixed=1) as span:
                span.set(later="x", skipped=None)
        attrs = mem.spans()[0]["attrs"]
        assert attrs == {"fixed": 1, "later": "x"}

    def test_timed_span_measures_without_sinks(self):
        assert not obs.enabled()
        with obs.timed_span("quiet") as span:
            pass
        assert span.wall_s >= 0.0
        assert span.cpu_s >= 0.0

    def test_metrics_attach_to_open_span(self):
        with obs.use(obs.MemorySink()) as mem:
            with obs.span("ctx") as span:
                obs.count("hits", 2, kind="x")
                obs.gauge("level", 0.5)
                obs.observe("latency", 1.25)
        kinds = [r["type"] for r in mem.metrics()]
        assert kinds == ["counter", "gauge", "histogram"]
        assert all(
            r["span_id"] == span.span_id for r in mem.metrics()
        )

    def test_thread_worker_attribution(self):
        mem = obs.MemorySink()

        def work():
            with obs.span("in-thread"):
                pass

        with obs.use(mem):
            ctx = contextvars.copy_context()
            with ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="obs-test"
            ) as pool:
                pool.submit(ctx.run, work).result()
            with obs.span("in-main"):
                pass
        by_name = {r["name"]: r for r in mem.spans()}
        assert by_name["in-thread"]["worker"].startswith(
            "thread:obs-test"
        )
        if threading.current_thread() is threading.main_thread():
            assert by_name["in-main"]["worker"] is None


class TestNoopPath:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not obs.enabled()
        first = obs.span("a", big=1)
        second = obs.span("b")
        assert first is obs.NOOP_SPAN
        assert second is obs.NOOP_SPAN
        with first:
            assert obs.current_span_id() is None
        assert first.set(x=1) is obs.NOOP_SPAN

    def test_disabled_metrics_are_noops(self):
        obs.count("nothing", 10)
        obs.gauge("nothing", 1.0)
        obs.observe("nothing", 2.0)

    def test_enabled_flips_with_sinks(self):
        assert not obs.enabled()
        with obs.use(obs.MemorySink()):
            assert obs.enabled()
            assert obs.span("live") is not obs.NOOP_SPAN
        assert not obs.enabled()

    def test_add_sink_stacks(self):
        first = obs.MemorySink()
        second = obs.MemorySink()
        with obs.use(first):
            with obs.add_sink(second):
                with obs.span("both"):
                    pass
            with obs.span("only-first"):
                pass
        assert [r["name"] for r in first.spans()] == [
            "both", "only-first",
        ]
        assert [r["name"] for r in second.spans()] == ["both"]


class TestJsonlSink:
    def test_round_trip_matches_memory(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        mem = obs.MemorySink()
        with obs.use(obs.JsonlSink(path), mem):
            with obs.span("outer", n=3):
                obs.count("points", 2)
        obs.reset()
        loaded = obs.load_trace(path)
        assert loaded == mem.records

    def test_env_var_installs_sink(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(path))
        obs.reset()
        assert obs.enabled()
        with obs.span("ambient"):
            pass
        obs.reset()  # closes the file
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert records[0]["name"] == "ambient"


class TestReport:
    def test_render_tree_and_metrics(self):
        with obs.use(obs.MemorySink()) as mem:
            with obs.span("parent"):
                with obs.span("child"):
                    obs.count("widgets", 3)
                    obs.gauge("depth", 2.0)
                    obs.observe("size", 1.0)
                    obs.observe("size", 3.0)
        text = obs.render_report(mem.records, top=1)
        assert "parent" in text and "child" in text
        tree_lines = [
            line for line in text.splitlines() if "child" in line
        ]
        assert any(line.startswith("  ") for line in tree_lines)
        assert "widgets" in text
        assert "depth" in text
        assert "size" in text

    def test_load_trace_rejects_unknown(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"no": "trace"}))
        with pytest.raises(ValueError):
            obs.load_trace(path)


class TestPipelineInstrumentation:
    def test_manifest_carries_trace_spans(self, tmp_path):
        result = Runner(vm_scenario(), use_cache=False).run()
        names = [
            r["name"]
            for r in result.manifest.trace
            if r["type"] == "span"
        ]
        assert any(n.startswith("run:") for n in names)
        assert "stage:traces" in names
        assert "stage:simulate:fleet" in names
        assert "fleet.run" in names
        counters = {
            r["name"]
            for r in result.manifest.trace
            if r["type"] == "counter"
        }
        assert "sim.wakes" in counters

    def test_trace_round_trips_through_manifest_json(self, tmp_path):
        result = Runner(
            vm_scenario(), use_cache=False, manifest_dir=tmp_path
        ).run()
        from repro.experiments import RunManifest

        loaded = RunManifest.read(result.manifest_path)
        assert loaded.trace == result.manifest.trace
        assert loaded.to_dict() == result.manifest.to_dict()

    def test_mip_spans_and_timings_agree(self, tmp_path):
        mem = obs.MemorySink()
        with obs.use(mem):
            result = Runner(apps_scenario(), use_cache=False).run()
        assert result.comparison is not None
        spans = {r["name"] for r in mem.spans()}
        assert {"mip.schedule", "mip.assemble", "mip.solve"} <= spans
        schedule = next(
            r for r in mem.spans() if r["name"] == "mip.schedule"
        )
        children = [
            r
            for r in mem.spans()
            if r.get("parent_id") == schedule["span_id"]
        ]
        assert {r["name"] for r in children} == {
            "mip.assemble", "mip.solve",
        }
        assert (
            sum(r["wall_s"] for r in children) <= schedule["wall_s"]
        )

    def test_cache_counters(self, tmp_path):
        cache_dir = tmp_path / "cache"
        scenario = vm_scenario()
        mem = obs.MemorySink()
        with obs.use(mem):
            from repro.experiments import ArtifactCache

            run_scenario(scenario, cache=ArtifactCache(cache_dir))
            run_scenario(scenario, cache=ArtifactCache(cache_dir))
        names = [r["name"] for r in mem.metrics()]
        assert "cache.miss" in names
        assert "cache.hit" in names


class TestUnifiedAPI:
    def test_facade_exports(self):
        import repro

        for name in (
            "Scenario", "Runner", "RunResult", "run_scenario",
            "run_scenarios", "ArtifactCache", "SUMMARY_SCHEMA", "obs",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_run_scenario_equals_runner_run(self):
        scenario = vm_scenario()
        via_function = run_scenario(scenario, use_cache=False)
        via_runner = Runner(scenario, use_cache=False).run()
        assert (
            via_function.manifest.summary == via_runner.manifest.summary
        )
        assert [s.name for s in via_function.manifest.stages] == [
            s.name for s in via_runner.manifest.stages
        ]
        assert (
            via_function.simulations["BE-wind"].summary_dict()
            == via_runner.simulations["BE-wind"].summary_dict()
        )

    def test_summary_schema_shared_across_result_classes(self):
        vm_result = run_scenario(vm_scenario(), use_cache=False)
        apps_result = run_scenario(apps_scenario(), use_cache=False)
        detailed = simulate(
            apps_result.problem,
            apps_result.placements["Greedy"],
            apps_result.traces,
        )
        summaries = [
            vm_result.simulations["BE-wind"].summary_dict(),
            apps_result.executions["Greedy"].summary_dict(),
            detailed.summary_dict(),
        ]
        for summary in summaries:
            for key in SUMMARY_SCHEMA["top_level"]:
                assert key in summary, key
            assert summary["total_transfer_gb"] >= 0.0
            assert summary["peak_step_gb"] >= 0.0
            assert summary["sites"]
            for per_site in summary["sites"].values():
                for key in SUMMARY_SCHEMA["per_site"]:
                    assert key in per_site, key


class TestCli:
    def test_trace_out_and_report(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "simulate", "--kind", "wind", "--days", "2",
                "--no-cache", "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        assert trace_path.exists()
        capsys.readouterr()
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Span tree" in out
        assert "fleet.run" in out
        assert "sim.wakes" in out
        assert "Top" in out

    def test_report_reads_manifest_json(self, tmp_path, capsys):
        code = main(
            [
                "simulate", "--kind", "wind", "--days", "2",
                "--no-cache", "--manifest-dir", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = next(tmp_path.glob("manifest_*.json"))
        capsys.readouterr()
        assert main(["report", str(manifest), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "stage:simulate:fleet" in out
