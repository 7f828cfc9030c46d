"""Performance benchmarks of the library's hot kernels.

Not a paper figure — these keep the substrate fast enough that the
3-month Figure-4 simulation and the Table-1 MIP stay interactive.
Every run merges its rows into ``BENCH_perf_kernels.json`` at the repo
root (``harness.py``; per-kernel timings, loop-vs-vectorized speedups,
parallel-sweep wall clocks) so the perf trajectory accrues per PR — CI
uploads the file as an artifact.

Every timed leg runs through the harness's speed-normalized timer;
the gated ones (OU and AR(1) kernels and the catalog sampler, each
against its reference loop) compare the medians of both sides.
"""

from __future__ import annotations

import os

import numpy as np

from harness import bench_file, paired, rounds
from repro.cluster import Datacenter, DatacenterConfig
from repro.experiments import (
    ArtifactCache,
    Scenario,
    WorkloadSpec,
    run_scenarios,
)
from repro.forecast import NoisyOracleForecaster
from repro.sched import MIPScheduler, problem_from_forecasts
from repro.traces import synthesize_solar, synthesize_wind, synthesize_catalog_traces
from repro.traces.weather import _intraday_ar1_loop, intraday_ar1
from repro.traces.wind import WindConfig, _ou_speed_path_loop, ou_speed_path
from repro.units import grid_days
from repro.workload import (
    default_vm_catalog,
    generate_vm_requests,
    workload_matched_to_power,
)
from repro.workload.vmtypes import vm_type_sampler

from conftest import SEED, START

record, write_bench_json = bench_file("BENCH_perf_kernels.json")

#: One year of 15-minute steps — the paper's Figure-2b synthesis span.
YEAR_STEPS = 365 * 96


def test_perf_solar_synthesis_year():
    grid = grid_days(START, 365)
    trace, synthesis_t = rounds(lambda: synthesize_solar(grid, seed=1))
    assert len(trace) == YEAR_STEPS
    record("solar_synthesis_year", seconds=synthesis_t)


def test_perf_wind_synthesis_year():
    grid = grid_days(START, 365)
    trace, synthesis_t = rounds(lambda: synthesize_wind(grid, seed=1))
    assert len(trace) == YEAR_STEPS
    record("wind_synthesis_year", seconds=synthesis_t)


def test_perf_ou_kernel_year():
    """Vectorized OU wind-speed kernel vs. the reference Python loop."""
    config = WindConfig()
    targets = np.full(YEAR_STEPS, config.mean_speed_ms)

    def run(kernel):
        return kernel(targets, 0.25, config, np.random.default_rng(3))

    vectorized_t, loop_t = paired(
        lambda: run(ou_speed_path), lambda: run(_ou_speed_path_loop)
    )
    assert len(run(ou_speed_path)) == YEAR_STEPS
    speedup = loop_t.median / vectorized_t.median
    record(
        "ou_speed_path_year",
        vectorized_s=vectorized_t,
        loop_seconds=loop_t,
        speedup_vs_loop=speedup,
    )
    assert speedup >= 5.0


def test_perf_ar1_kernel_year():
    """Vectorized AR(1) weather kernel vs. the reference Python loop."""

    def run(kernel):
        return kernel(YEAR_STEPS, 0.28, 0.45, np.random.default_rng(4))

    vectorized_t, loop_t = paired(
        lambda: run(intraday_ar1), lambda: run(_intraday_ar1_loop)
    )
    assert len(run(intraday_ar1)) == YEAR_STEPS
    speedup = loop_t.median / vectorized_t.median
    record(
        "intraday_ar1_year",
        vectorized_s=vectorized_t,
        loop_seconds=loop_t,
        speedup_vs_loop=speedup,
    )
    assert speedup >= 5.0


def test_perf_catalog_sampler():
    """Inverse-CDF VM-type sampler vs. the per-draw ``rng.choice`` loop
    it replaced, on 200k draws: identical types and generator state,
    and >= 5x faster.  Also records (ungated) what the generator costs
    per VM end to end: the default 700-server workload over 28 days.
    """
    catalog = default_vm_catalog()
    types = [t for t, _ in catalog]
    probabilities = np.array([p for _, p in catalog])
    draws = 200_000

    def sampled():
        rng = np.random.default_rng(SEED)
        draw = vm_type_sampler(catalog, rng)
        return [draw() for _ in range(draws)], rng.bit_generator.state

    def reference():
        rng = np.random.default_rng(SEED)
        picked = [
            types[rng.choice(len(types), p=probabilities)]
            for _ in range(draws)
        ]
        return picked, rng.bit_generator.state

    sampler_t, loop_t = paired(sampled, reference)
    assert sampled() == reference()
    speedup = loop_t.median / sampler_t.median
    record(
        "catalog_sampler_200k",
        sampler_s=sampler_t,
        loop_seconds=loop_t,
        speedup_vs_loop=speedup,
    )

    grid = grid_days(START, 28)
    requests, month_t = rounds(lambda: generate_vm_requests(grid, seed=SEED))
    record(
        "vm_requests_month",
        requests=len(requests),
        seconds=month_t,
        us_per_vm=month_t.median / len(requests) * 1e6,
    )
    assert speedup >= 5.0


def test_perf_parallel_sweep(tmp_path_factory):
    """8-scenario sweep, jobs=1 (in-process) vs jobs=4 (process pool),
    cold caches both times.

    Results must be identical; the wall-clock ratio is the measured
    batch speedup.  The assertion threshold follows the CPUs actually
    available — a single-core container can only record ~1x.  This is
    the one gate on raw wall clock (each side's ``FleetManifest``): it
    times two process pools, which the harness's one-core reference
    kernel cannot normalize.
    """
    scenarios = [
        Scenario(
            name=f"bench-sweep-{seed}",
            sites=("BE-wind",),
            grid=grid_days(START, 21),
            workload=WorkloadSpec(kind="vm_requests"),
            seed=seed,
        )
        for seed in range(8)
    ]
    serial_cache = tmp_path_factory.mktemp("sweep-cache-serial")
    parallel_cache = tmp_path_factory.mktemp("sweep-cache-parallel")

    serial = run_scenarios(
        scenarios, jobs=1, cache=ArtifactCache(serial_cache)
    )
    parallel = run_scenarios(
        scenarios, jobs=4, cache=ArtifactCache(parallel_cache)
    )

    assert serial.summaries() == parallel.summaries()
    speedup = serial.fleet.wall_seconds / parallel.fleet.wall_seconds
    cpus = os.cpu_count() or 1
    record(
        "parallel_sweep_8x21d",
        jobs1_wall_s=serial.fleet.wall_seconds,
        jobs4_wall_s=parallel.fleet.wall_seconds,
        speedup=speedup,
        cpus=cpus,
        workers=sorted({task.worker for task in parallel.fleet.tasks}),
    )
    if cpus >= 4:
        assert speedup >= 2.0
    elif cpus >= 2:
        assert speedup >= 1.2


def test_perf_datacenter_week():
    grid = grid_days(START, 7)
    trace = synthesize_wind(grid, seed=2, name="site")
    config = DatacenterConfig()
    workload = workload_matched_to_power(
        float(trace.values.mean()), config.cluster.total_cores
    )
    requests = generate_vm_requests(grid, workload, seed=3)

    def run():
        return Datacenter(config, trace).run(requests)

    result, run_t = rounds(run)
    assert len(result.records) == grid.n
    record("datacenter_week", seconds=run_t)


def test_perf_forecast_issue():
    grid = grid_days(START, 30)
    trace = synthesize_wind(grid, seed=4, name="site")
    model = NoisyOracleForecaster(seed=5)

    def run():
        return model.forecast(trace, 0, 96 * 7)

    forecast, forecast_t = rounds(run)
    assert len(forecast) == 96 * 7
    record("forecast_issue_week", seconds=forecast_t)


def test_perf_mip_solve(catalog, hourly_week_grid):
    from repro.workload import generate_applications

    trio = catalog.subset(["NO-solar", "UK-wind", "PT-wind"])
    traces = synthesize_catalog_traces(trio, hourly_week_grid, seed=SEED)
    total_cores = {name: 28000 for name in traces}
    apps = generate_applications(
        hourly_week_grid, 100, seed=SEED,
        mean_vm_count=30, mean_duration_days=2.0,
    )
    problem = problem_from_forecasts(
        hourly_week_grid, traces, total_cores, apps,
        NoisyOracleForecaster(seed=SEED),
    )

    def run():
        return MIPScheduler(time_limit_s=120.0).schedule(problem)

    placement, solve_t = rounds(run)
    placement.validate_complete(problem)
    record("mip_solve_week", seconds=solve_t)
