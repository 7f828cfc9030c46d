"""Benchmarks of the simulation core and MIP assembly at fleet scale.

Not a paper figure — these gate the §3/§3.1 scaling work: the
event-driven step-kernel path (``engine="event"``, alias ``"soa"``)
against the dense object-model oracle (quarter and year horizons, the
paper's 700-server cluster), and the vectorized MIP constraint assembly
against the per-coefficient loop (8, 64, and 200 candidate sites, with
the assembly/solve wall-clock split reported separately).

Every run writes machine-readable ``BENCH_sim_sched.json`` at the repo
root; CI uploads it as an artifact and fails the bench-smoke job if the
kernel is slower than dense on the year-horizon fleet scenario (both
are result-identical, so slower would mean the skipping machinery
costs more than it saves).

Two workload shapes on purpose:

* *Continuous* (quarter horizon): Figure-4-style arrivals at nearly
  every step.  There is little to skip — reported honestly, no speedup
  gate.
* *Fleet* (year horizon): sparse batch campaigns on each of several
  sites, the year-long hundreds-of-sites study §3 motivates.  Dense
  walks all 35,040 steps per site regardless; the kernel wakes only
  where state can change, which is where the ≥3x year-horizon headroom
  lives.
"""

from __future__ import annotations

import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Datacenter, DatacenterConfig
from repro.experiments.defaults import BENCH_START, YEAR_START
from repro.sched import MIPScheduler, SchedulingProblem, SiteCapacity
from repro.sched.mip import _Layout, _assemble, _assemble_reference
from repro.traces import synthesize_wind
from repro.units import TimeGrid, grid_days
from repro.workload import (
    Application,
    VMClass,
    VMRequest,
    VMType,
    generate_vm_requests,
    workload_matched_to_power,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON_PATH = REPO_ROOT / "BENCH_sim_sched.json"

_RESULTS: dict[str, dict] = {}

_VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
)


def _record(name: str, **extra) -> None:
    _RESULTS[name] = extra


def _time_once(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module", autouse=True)
def bench_json_writer():
    """Write ``BENCH_sim_sched.json`` after the module's benches ran."""
    yield
    if not _RESULTS:
        return
    payload = {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "benches": dict(sorted(_RESULTS.items())),
    }
    BENCH_JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n"
    )
    print(f"\n[sim/sched trajectory written to {BENCH_JSON_PATH}]")


# ----------------------------------------------------------------------
# Simulation core: dense oracle vs step kernel
# ----------------------------------------------------------------------


def _fleet_site(site_seed: int, grid) -> tuple:
    """One fleet site-year: three sparse week-scale batch campaigns."""
    rng = np.random.default_rng(site_seed)
    trace = synthesize_wind(grid, seed=site_seed, name=f"site{site_seed}")
    requests = []
    vm_id = 0
    for campaign in range(3):
        day = int(rng.integers(campaign * 120, campaign * 120 + 60))
        arrival = day * 96
        for _ in range(400):
            lifetime = int(rng.integers(96, 3 * 96))
            vm_type = _VM_TYPES[rng.integers(0, len(_VM_TYPES))]
            vm_class = (
                VMClass.STABLE if rng.random() < 0.5 else VMClass.DEGRADABLE
            )
            requests.append(
                VMRequest(
                    vm_id,
                    arrival + int(rng.integers(0, 48)),
                    lifetime,
                    vm_type,
                    vm_class,
                )
            )
            vm_id += 1
    return trace, requests


def test_sim_quarter_continuous():
    """Quarter horizon, Figure-4-style continuous arrivals.

    Nearly every step has work, so the kernel can hardly skip — this
    bench documents its cost on dense workloads, and checks the engines
    agree on a real workload inside the bench run.
    """
    grid = grid_days(BENCH_START, 90)
    trace = synthesize_wind(grid, seed=2, name="site")
    config = DatacenterConfig()
    workload = workload_matched_to_power(
        float(trace.values.mean()), config.cluster.total_cores
    )
    requests = generate_vm_requests(grid, workload, seed=3)

    dense, dense_s = _time_once(
        lambda: Datacenter(config, trace).run(requests, engine="dense")
    )
    kernel, kernel_s = _time_once(
        lambda: Datacenter(config, trace).run(requests, engine="event")
    )
    assert dense.records == kernel.records
    assert list(dense.events) == list(kernel.events)
    _record(
        "sim_quarter_continuous",
        n_steps=grid.n,
        n_requests=len(requests),
        dense_s=dense_s,
        kernel_s=kernel_s,
        kernel_vs_dense=dense_s / kernel_s,
    )
    # No speedup gate: with arrivals at ~every step there is little to
    # skip.  The engines must simply stay in the same ballpark.
    assert kernel_s <= dense_s * 1.5


def test_sim_year_fleet():
    """Year horizon x 8 sites, sparse batch campaigns (the fleet study).

    The CI gate: the kernel must not be slower than dense here (1.0x),
    and the recorded speedup is expected to be >= 3x on an unloaded
    machine — dense walks 35,040 steps per site while the kernel wakes
    at roughly a sixth of them.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [_fleet_site(seed, grid) for seed in range(8)]

    def run(engine: str):
        return [
            Datacenter(config, trace).run(requests, engine=engine)
            for trace, requests in sites
        ]

    dense, dense_s = _time_once(lambda: run("dense"))
    kernel, kernel_s = _time_once(lambda: run("event"))
    for dense_result, kernel_result in zip(dense, kernel):
        assert dense_result.records == kernel_result.records
    speedup = dense_s / kernel_s
    _record(
        "sim_year_fleet_8sites",
        n_steps=grid.n,
        n_sites=len(sites),
        n_requests_per_site=len(sites[0][1]),
        dense_s=dense_s,
        kernel_s=kernel_s,
        kernel_vs_dense=speedup,
    )
    # Result-identical engines: the kernel slower than dense would mean
    # the skipping machinery costs more than it saves.  (>=3x is the
    # expected headroom; 1.0x is the hard CI gate so a loaded runner
    # doesn't flake the build.)
    assert speedup >= 1.0


def test_sim_year_single_site_step_kernel():
    """Single site-year: the dense oracle vs the step kernel.

    The step-kernel microbench: one ``Datacenter.run`` on the
    structure-of-arrays :class:`repro.cluster.kernel.StepKernel`
    (``engine="soa"``) against the dense object-model walk.  Results
    are asserted identical, and the kernel may not be slower.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    trace, requests = _fleet_site(21, grid)

    def run(engine: str):
        return Datacenter(config, trace).run(requests, engine=engine)

    dense, dense_s = _time_once(lambda: run("dense"))
    kernel, kernel_s = _time_once(lambda: run("soa"))
    assert dense.records == kernel.records
    assert list(dense.events) == list(kernel.events)
    _record(
        "sim_year_single_site_step_kernel",
        n_steps=grid.n,
        n_requests=len(requests),
        dense_s=dense_s,
        kernel_s=kernel_s,
        kernel_vs_dense=dense_s / kernel_s,
    )
    assert kernel_s <= dense_s


def test_sim_year_fleet_tracing_overhead():
    """Year-fleet kernel runs with tracing off vs on.

    The no-op observability path must stay free: with no sinks the
    instrumented engine may not regress more than 5% against itself
    with a live JSONL sink (plus a small absolute floor so a loaded
    runner doesn't flake on sub-second noise).  Results must be
    identical either way, and the emitted trace is uploaded by CI.
    """
    from repro import obs

    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [_fleet_site(seed, grid) for seed in range(4)]

    def run():
        return [
            Datacenter(config, trace).run(requests, engine="event")
            for trace, requests in sites
        ]

    trace_path = REPO_ROOT / "BENCH_trace.jsonl"
    trace_path.unlink(missing_ok=True)
    assert not obs.enabled()
    untraced, untraced_s = _time_once(run)
    sink = obs.JsonlSink(trace_path)
    with obs.use(sink):
        traced, traced_s = _time_once(run)
    sink.close()
    for a, b in zip(untraced, traced):
        assert a.records == b.records
    assert trace_path.exists() and trace_path.stat().st_size > 0
    spans = [
        r
        for r in obs.load_trace(trace_path)
        if r["type"] == "span" and r["name"] == "datacenter.run"
    ]
    assert len(spans) == len(sites)
    _record(
        "sim_year_fleet_tracing",
        n_sites=len(sites),
        untraced_s=untraced_s,
        traced_s=traced_s,
        overhead=traced_s / untraced_s - 1.0,
    )
    # The gate protects the *untraced* path: instrumentation must not
    # have slowed the engine.  Tracing emits one span + a handful of
    # aggregate counters per site-year, so even the traced run should
    # sit within noise of untraced.
    assert traced_s <= untraced_s * 1.05 + 0.5


# ----------------------------------------------------------------------
# MIP: assembly vs solve, loop vs vectorized
# ----------------------------------------------------------------------


def _mip_problem(n_sites: int, n_apps: int, n_steps: int = 96):
    rng = np.random.default_rng(n_sites)
    grid = TimeGrid(BENCH_START, grid_days(BENCH_START, 1).step, n_steps)
    sites = tuple(
        SiteCapacity(
            f"s{i}", 28_000, np.floor(rng.uniform(0.2, 1.0, n_steps) * 28_000)
        )
        for i in range(n_sites)
    )
    apps = []
    for a in range(n_apps):
        arrival = int(rng.integers(0, n_steps - 2))
        duration = int(rng.integers(1, n_steps - arrival))
        cores = int(rng.choice([2, 4, 8]))
        apps.append(
            Application(
                a, arrival, duration, int(rng.integers(1, 30)),
                VMType(f"T{cores}", cores, cores * 4.0),
                float(rng.choice([0.0, 0.3, 1.0])),
            )
        )
    return SchedulingProblem(
        grid, sites, tuple(apps), bytes_per_core=4 * 2**30
    )


@pytest.mark.parametrize("n_sites", [8, 64, 200])
def test_mip_assembly_scaling(n_sites):
    """Vectorized vs per-coefficient constraint assembly.

    The matrices must be structurally identical (same canonical CSR),
    and the vectorized path must be >= 5x faster at 200 sites — the
    scale where assembly used to dwarf the HiGHS solve.
    """
    problem = _mip_problem(n_sites, n_apps=60)
    layout = _Layout(
        len(problem.apps), len(problem.sites), problem.grid.n, peak=False
    )
    (vec_matrix, vec_lb, vec_ub), vectorized_s = _time_once(
        lambda: _assemble(problem, layout, None, None, None)
    )
    (ref_matrix, ref_lb, ref_ub), reference_s = _time_once(
        lambda: _assemble_reference(problem, layout, None, None, None)
    )
    assert (vec_matrix - ref_matrix).nnz == 0
    assert np.array_equal(vec_lb, ref_lb)
    assert np.array_equal(vec_ub, ref_ub)
    speedup = reference_s / vectorized_s
    _record(
        f"mip_assembly_{n_sites}sites",
        n_rows=int(vec_matrix.shape[0]),
        n_cols=int(vec_matrix.shape[1]),
        nnz=int(vec_matrix.nnz),
        vectorized_s=vectorized_s,
        reference_s=reference_s,
        speedup_vs_loop=speedup,
    )
    if n_sites == 200:
        assert speedup >= 5.0


@pytest.mark.parametrize("n_sites", [8, 64, 200])
def test_mip_assembly_solve_split(n_sites):
    """Full solves with the assembly/solve wall-clock split recorded.

    Uses the relaxed LP (``integer_vms=False``) so the 200-site solve
    stays CI-sized; the split is what the bench tracks, not branching.
    """
    problem = _mip_problem(n_sites, n_apps=40)
    scheduler = MIPScheduler(integer_vms=False, time_limit_s=120.0)
    placement, total_s = _time_once(lambda: scheduler.schedule(problem))
    placement.validate_complete(problem)
    timings = scheduler.last_timings
    assert timings is not None
    _record(
        f"mip_schedule_{n_sites}sites",
        assembly_s=timings.assembly_s,
        solve_s=timings.solve_s,
        total_s=total_s,
        n_rows=timings.n_rows,
        n_cols=timings.n_cols,
        nnz=timings.nnz,
    )
    assert timings.assembly_s + timings.solve_s <= total_s


def _planning_problem(n_sites: int, n_apps: int, n_steps: int = 96):
    """A tight planning instance: site capacity dips force real
    displacement decisions, so the solve has actual work per window.

    Arrivals are day-aligned batch campaigns (each app runs inside
    one 24-step day, like the daily re-solve cadence of the paper's
    MIP-24h), so a ``window:24`` decomposition is time-separable and
    the window solves can run in parallel; the gap then measures seam
    accounting and LP-rounding, not blind placement (EXPERIMENTS.md
    discusses lookahead sizing for workloads that do span days).
    """
    rng = np.random.default_rng(1000 + n_sites)
    grid = TimeGrid(BENCH_START, grid_days(BENCH_START, 1).step, n_steps)
    # Fleet-wide renewable lulls (one per ~2 days): each dips ~70% of
    # the sites at once — a regional weather event.  During a lull the
    # fleet's aggregate capacity sits near the aggregate stable load,
    # so displacement is genuinely scarce and the solver objective is
    # meaningfully nonzero.
    lulls = []
    for _ in range(max(1, n_steps // 96)):
        start = int(rng.integers(0, n_steps - 6))
        lulls.append((start, rng.random(n_sites) < 0.6))
    sites = []
    for i in range(n_sites):
        caps = np.full(n_steps, 100.0)
        for start, hit in lulls:
            if hit[i]:
                caps[start:start + 6] = float(rng.uniform(10.0, 40.0))
        sites.append(SiteCapacity(f"s{i}", 100, caps))
    apps = []
    n_days = n_steps // 24
    for a in range(n_apps):
        day = int(rng.integers(0, n_days))
        offset = int(rng.integers(0, 12))
        arrival = day * 24 + offset
        duration = int(rng.integers(4, min(12, 24 - offset) + 1))
        cores = int(rng.choice([2, 4, 8]))
        apps.append(
            Application(
                a, arrival, duration, int(rng.integers(3, 20)),
                VMType(f"T{cores}", cores, cores * 4.0),
                float(rng.choice([0.5, 1.0])),
            )
        )
    return SchedulingProblem(
        grid, sites, tuple(apps), bytes_per_core=4 * 2**30
    )


@pytest.mark.parametrize(
    "n_sites,n_days", [(200, 4), (500, 6)]
)
def test_mip_schedule_decomposed(n_sites, n_days):
    """Monolithic vs decomposed planning at 200/500 sites (ISSUE 8).

    The CI gate lives at 500 sites: the windowed decomposition must
    finish in <= 0.5x the monolithic wall-clock with the solved
    objective within 1% of the monolithic optimum.  Uses the relaxed
    LP (``integer_vms=False``) like the solve-split bench so the
    monolithic baseline stays CI-sized; the quality gate compares the
    solver objectives (the placement-level numbers are also recorded,
    but VM-integerization rounds both modes' placements identically,
    so the solver objective is the decomposition-attributable signal).
    The day-aligned workload is time-separable at ``window:24``, so
    the windowed objective is exact up to solver tolerance — and the
    monolithic LP's solve cost grows superlinearly with the horizon
    while the windowed cost grows linearly, which is where the
    wall-clock gate's headroom comes from.
    """
    from repro.sched import placement_objective

    problem = _planning_problem(
        n_sites, n_apps=n_days * n_sites, n_steps=24 * n_days
    )
    mono = MIPScheduler(integer_vms=False, time_limit_s=600.0)
    p_mono, mono_s = _time_once(lambda: mono.schedule(problem))
    p_mono.validate_complete(problem)

    deco = MIPScheduler(
        integer_vms=False, time_limit_s=600.0, decompose="window:24",
    )
    p_deco, deco_s = _time_once(lambda: deco.schedule(problem))
    p_deco.validate_complete(problem)

    timings = deco.last_timings
    solver_mono = mono.last_timings.objective
    solver_deco = sum(w.objective for w in timings.windows)
    gap = (solver_deco - solver_mono) / max(solver_mono, 1.0)
    _record(
        f"mip_schedule_{n_sites}sites_decomposed",
        n_apps=len(problem.apps),
        n_steps=problem.grid.n,
        monolithic_s=mono_s,
        decomposed_s=deco_s,
        speedup=mono_s / deco_s,
        solver_objective_monolithic_gb=solver_mono,
        solver_objective_decomposed_gb=solver_deco,
        objective_gap=gap,
        placement_objective_monolithic_gb=placement_objective(
            problem, p_mono
        ),
        placement_objective_decomposed_gb=placement_objective(
            problem, p_deco
        ),
        n_windows=len(timings.windows),
        fell_back=timings.fell_back,
    )
    assert timings.fell_back is False
    assert gap <= 0.01
    if n_sites == 500:
        assert deco_s <= 0.5 * mono_s
