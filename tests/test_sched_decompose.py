"""Tests for repro.sched.decompose: windowed + relax-and-fix MIP solves.

The golden tests pin the decomposition contract from three angles:

- *Separable instances* (no app or background crosses a window seam):
  every decomposition mode must reproduce the monolithic placement
  exactly.
- *Seam carry*: when displacement is held across a window boundary,
  the decomposed solve charges the boundary ``u`` forward (objective-
  exact), while :class:`RollingMIPScheduler` deliberately re-charges
  it from zero (the paper's plain re-solve-daily semantics).
- *Relax-and-fix*: the certified LP gap bounds the integer solution,
  and a breached gap falls back to the full MIP.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro import obs
from repro.errors import SolverError
from repro.sched import (
    DecomposeSpec,
    MIPScheduler,
    RollingMIPScheduler,
    SchedulingProblem,
    SiteCapacity,
    placement_objective,
    plan_windows,
)
from repro.sched.mip import _Layout, _assemble, _assemble_reference
from repro.units import TimeGrid
from repro.workload import Application, VMType

START = datetime(2015, 5, 1)


def make_grid(n=48):
    return TimeGrid(START, timedelta(hours=1), n)


def make_app(app_id=0, arrival=0, duration=24, vms=10, cores=2,
             memory=8.0, stable=1.0):
    return Application(
        app_id, arrival, duration, vms, VMType(f"T{cores}", cores, memory),
        stable,
    )


def separable_problem():
    """Two apps fully inside different 24-step windows, each with a
    strictly-best site: app P pays 20 cores of displacement at b (dip
    in window 1), app Q pays 24 at a (dip in window 2)."""
    n = 48
    cap_a = np.full(n, 400.0)
    cap_a[30:34] = 40.0  # Q at a would displace 64 - 40 = 24 cores
    cap_b = np.full(n, 400.0)
    cap_b[8:12] = 40.0  # P at b would displace 60 - 40 = 20 cores
    sites = (
        SiteCapacity("a", 400, cap_a),
        SiteCapacity("b", 400, cap_b),
    )
    apps = (
        make_app(0, arrival=2, duration=18, vms=15, cores=4),  # 60 stable
        make_app(1, arrival=26, duration=18, vms=16, cores=4),  # 64 stable
    )
    return SchedulingProblem(
        make_grid(n), sites, apps, bytes_per_core=1e9,
        utilization_cap=0.9,
    )


def seam_problem(second_dip=140.0, with_arrival=True):
    """One 150-core VM forced onto the only site, displaced to 40 by a
    window-1 dip; the window-2 dip stays under the held 40, so carrying
    the boundary ``u`` makes window 2 free while a from-zero re-solve
    re-charges it."""
    n = 48
    cap_a = np.full(n, 400.0)
    cap_a[10:14] = 110.0  # floor 150 - 110 = 40, held for the horizon
    cap_a[30:34] = second_dip  # with Y: 170 - 140 = 30 <= held 40
    sites = (SiteCapacity("a", 400, cap_a),)
    apps = [Application(0, 0, n, 1, VMType("xl", 150, 300.0), 1.0)]
    if with_arrival:
        # A window-2 arrival forces the rolling scheduler to actually
        # re-solve chunk 2 (chunks with no arrivals are skipped).
        apps.append(Application(1, 26, 10, 1, VMType("m", 20, 40.0), 1.0))
    return SchedulingProblem(
        make_grid(n), sites, tuple(apps), bytes_per_core=1e9,
        utilization_cap=0.9,
    )


class TestDecomposeSpec:
    def test_parse_round_trip(self):
        spec = DecomposeSpec.parse("window:24,overlap:4,relax-fix,gap:0.05")
        assert spec.window_steps == 24
        assert spec.overlap_steps == 4
        assert spec.relax_fix is True
        assert spec.max_gap == 0.05
        assert DecomposeSpec.parse(spec.token()) == spec

    def test_token_is_canonical(self):
        assert DecomposeSpec.parse("window:24").token() == "window:24"
        assert DecomposeSpec.parse("relax-fix").token() == "relax-fix"

    def test_no_fallback(self):
        spec = DecomposeSpec.parse("window:12,no-fallback")
        assert spec.fallback is False

    def test_unknown_token_raises(self):
        for text in (
            "window:24,frobnicate",
            "window:24,jobs:2",
            "window:24,backend:thread",
        ):
            with pytest.raises(SolverError):
                DecomposeSpec.parse(text)

    def test_bad_value_raises(self):
        with pytest.raises(SolverError):
            DecomposeSpec.parse("window:zero")
        with pytest.raises(SolverError):
            DecomposeSpec.parse("window:0")
        with pytest.raises(SolverError):
            DecomposeSpec.parse("gap:-0.5")

    def test_needs_a_strategy(self):
        with pytest.raises(SolverError):
            DecomposeSpec()
        with pytest.raises(SolverError):
            DecomposeSpec.parse("overlap:4")

    def test_scheduler_accepts_spec_or_string(self):
        by_str = MIPScheduler(decompose="window:24")
        by_spec = MIPScheduler(decompose=DecomposeSpec(window_steps=24))
        assert by_str.decompose == by_spec.decompose


class TestPlanWindows:
    def test_covers_horizon_without_gaps(self):
        plans = plan_windows(50, 24)
        assert [(p.start, p.commit_end) for p in plans] == [
            (0, 24), (24, 48), (48, 50),
        ]

    def test_overlap_extends_lookahead_only(self):
        plans = plan_windows(48, 24, overlap_steps=6)
        # Commit ranges still partition the horizon.
        assert [(p.start, p.commit_end) for p in plans] == [
            (0, 24), (24, 48),
        ]
        assert plans[0].ext_end == 30
        assert plans[1].ext_end == 48  # clipped at horizon

    def test_single_window(self):
        plans = plan_windows(10, 24)
        assert len(plans) == 1
        assert plans[0].steps == 10


class TestGoldenSeparable:
    """On time-separable instances every mode must reproduce the
    monolithic placement exactly (ISSUE 8 acceptance)."""

    @pytest.fixture(scope="class")
    def monolithic(self):
        problem = separable_problem()
        scheduler = MIPScheduler()
        placement = scheduler.schedule(problem)
        return problem, placement

    def test_monolithic_baseline_is_strict(self, monolithic):
        _, placement = monolithic
        assert placement.assignment == {0: {"a": 15}, 1: {"b": 16}}

    @pytest.mark.parametrize("spec", [
        "window:24",
        "window:24,overlap:6",
        "relax-fix",
        "window:24,relax-fix",
    ])
    def test_matches_monolithic(self, monolithic, spec):
        problem, p_mono = monolithic
        scheduler = MIPScheduler(decompose=spec)
        p_deco = scheduler.schedule(problem)
        assert p_deco.assignment == p_mono.assignment
        om = placement_objective(problem, p_mono)
        od = placement_objective(problem, p_deco)
        assert od == pytest.approx(om, abs=1e-6)
        assert scheduler.last_timings.fell_back is False

    def test_windowed_timings_telemetry(self, monolithic):
        problem, _ = monolithic
        scheduler = MIPScheduler(decompose="window:24")
        scheduler.schedule(problem)
        t = scheduler.last_timings
        assert t.mode == "window"
        assert [w.index for w in t.windows] == [0, 1]
        assert [w.start for w in t.windows] == [0, 24]
        assert all(w.n_apps == 1 for w in t.windows)
        # Totals are sums over the windows.
        assert t.solve_s == pytest.approx(
            sum(w.solve_s for w in t.windows))
        assert t.assembly_s == pytest.approx(
            sum(w.assembly_s for w in t.windows))
        assert t.n_rows == sum(w.n_rows for w in t.windows)
        assert t.objective is not None

    def test_relax_fix_timings(self, monolithic):
        problem, _ = monolithic
        scheduler = MIPScheduler(decompose="relax-fix")
        scheduler.schedule(problem)
        t = scheduler.last_timings
        assert t.mode == "relax-fix"
        assert t.gap is not None
        assert t.gap <= 0.01
        assert t.fell_back is False
        # The LP bound is relax-fix's proven lower bound.
        assert t.dual_bound is not None
        assert t.dual_bound <= t.objective + 1e-6


class TestSeamCarry:
    """Satellite: seam semantics at chunk boundaries — decomposed
    solves carry ``u`` across the seam; RollingMIPScheduler re-charges
    it from zero."""

    def test_decomposed_matches_monolithic_across_seam(self):
        problem = seam_problem()
        p_mono = MIPScheduler().schedule(problem)
        deco = MIPScheduler(decompose="window:24")
        p_deco = deco.schedule(problem)
        assert p_mono.assignment == {0: {"a": 1}, 1: {"a": 1}}
        assert p_deco.assignment == p_mono.assignment
        om = placement_objective(problem, p_mono)
        od = placement_objective(problem, p_deco)
        assert od == pytest.approx(om, abs=1e-6)
        # The planned u is the running max: held at 40 through the
        # second dip, with no extra migration at the seam.
        u = p_deco.planned_displacement["a"]
        assert u[9] == 0.0
        assert np.all(u[10:] == 40.0)

    def test_window_two_is_free_under_carry(self):
        problem = seam_problem()
        deco = MIPScheduler(decompose="window:24")
        deco.schedule(problem)
        w0, w1 = deco.last_timings.windows
        # Window 1 charges the 40-core rise; window 2 only epsilon
        # holding — the 30-core floor sits under the carried u.
        assert w0.objective == pytest.approx(40.0, abs=0.1)
        assert w1.objective < 1.0

    def test_held_displacement_crosses_an_idle_seam(self):
        """No app is alive at the step-24 seam, yet the 40 cores that
        app 0 displaced at ``a`` stay displaced across it.  App 1's
        30-core floor at ``a`` then costs nothing, where ``b`` would
        cost 20 GB: a window 2 solved from ``u = 0`` would pick ``b``."""
        n = 48
        cap_a = np.full(n, 400.0)
        cap_a[10:14] = 110.0  # app 0 at a: floor 150 - 110 = 40
        cap_a[30:34] = 30.0  # app 1 at a: floor 60 - 30 = 30 <= 40
        cap_b = np.full(n, 100.0)
        cap_b[30:34] = 40.0  # app 1 at b: floor 60 - 40 = 20
        sites = (
            SiteCapacity("a", 400, cap_a),
            SiteCapacity("b", 100, cap_b),
        )
        apps = (
            Application(0, 0, 20, 1, VMType("xl", 150, 300.0), 1.0),
            Application(1, 26, 10, 1, VMType("l", 60, 120.0), 1.0),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, apps, bytes_per_core=1e9,
            utilization_cap=0.9,
        )
        for spec in (None, "window:24"):
            placement = MIPScheduler(decompose=spec).schedule(problem)
            assert placement.assignment == {0: {"a": 1}, 1: {"a": 1}}
            assert placement_objective(problem, placement) == (
                pytest.approx(40.0, abs=0.01)
            )

    def test_rolling_recharges_displacement_from_zero(self):
        problem = seam_problem()
        roll = RollingMIPScheduler(window_steps=24)
        p_roll = roll.schedule(problem)
        # Same assignment (there is only one site) ...
        assert p_roll.assignment == {0: {"a": 1}, 1: {"a": 1}}
        # ... but chunk 2 re-charged the displacement it inherited:
        # from u=0 it pays the full 30-core floor again.
        assert len(roll.last_chunk_timings) == 2
        chunk2 = roll.last_chunk_timings[1]
        assert chunk2.objective == pytest.approx(30.0, abs=0.1)

    def test_rolling_matches_monolithic_when_seams_are_clean(self):
        """Boundary-zero equivalence: with no displacement held at the
        seam, chunked and unchunked solves agree."""
        problem = separable_problem()
        p_mono = MIPScheduler().schedule(problem)
        p_roll = RollingMIPScheduler(window_steps=24).schedule(problem)
        assert p_roll.assignment == p_mono.assignment

    def test_initial_displacement_makes_staying_free(self):
        """The boundary u parameter feeds C3's t=0 row: demand under
        the carried displacement charges nothing."""
        n = 24
        cap = np.full(n, 400.0)
        cap[4:8] = 120.0  # floor 150 - 120 = 30
        sites = (SiteCapacity("a", 400, cap),)
        app = Application(0, 0, n, 1, VMType("xl", 150, 300.0), 1.0)
        problem = SchedulingProblem(
            make_grid(n), sites, (app,), bytes_per_core=1e9,
            utilization_cap=0.9,
        )
        cold = MIPScheduler()
        cold.schedule(problem)
        carried = MIPScheduler()
        carried.schedule(problem, initial_displacement={"a": 40.0})
        assert cold.last_timings.objective == pytest.approx(30.0, abs=0.1)
        # Under a 40-core carry the 30-core floor is already paid.
        assert carried.last_timings.objective < 1.0

    def test_negative_initial_displacement_rejected(self):
        problem = seam_problem(with_arrival=False)
        with pytest.raises(SolverError):
            MIPScheduler().schedule(
                problem, initial_displacement={"a": -1.0})


class TestDualBound:
    """Every integer solve reports HiGHS's proven lower bound, and its
    objective lies within ``mip_rel_gap`` of it."""

    def test_integer_solve_is_within_its_gap(self):
        scheduler = MIPScheduler()
        with obs.use(obs.MemorySink()) as mem:
            scheduler.schedule(seam_problem())
        t = scheduler.last_timings
        assert t.dual_bound is not None
        assert t.dual_bound <= t.objective
        assert t.objective - t.dual_bound <= (
            scheduler.mip_rel_gap * abs(t.objective) + 1e-6
        )
        solve = next(
            r for r in mem.records
            if r.get("type") == "span" and r["name"] == "mip.solve")
        assert solve["attrs"]["dual_bound"] == t.dual_bound

    def test_windows_carry_their_own_bound(self):
        scheduler = MIPScheduler(decompose="window:24")
        scheduler.schedule(seam_problem())
        t = scheduler.last_timings
        assert t.dual_bound is None
        for w in t.windows:
            assert w.dual_bound is not None
            assert w.dual_bound <= w.objective + 1e-9

    def test_lp_solve_has_no_bound(self):
        scheduler = MIPScheduler(integer_vms=False)
        scheduler.schedule(seam_problem())
        assert scheduler.last_timings.dual_bound is None


class TestAssemblerGolden:
    """The vectorized assembler must agree with the reference loop,
    including the boundary-displacement C3 bounds."""

    def test_initial_displacement_bounds_match(self):
        problem = separable_problem()
        layout = _Layout(
            len(problem.apps), len(problem.sites), problem.grid.n,
            peak=False,
        )
        u0 = {"a": 7.0, "b": 3.0}
        f_m, f_lb, f_ub = _assemble(
            problem, layout, None, None, None, initial_displacement=u0)
        s_m, s_lb, s_ub = _assemble_reference(
            problem, layout, None, None, None, initial_displacement=u0)
        assert (f_m - s_m).nnz == 0
        np.testing.assert_allclose(f_lb, s_lb)
        np.testing.assert_allclose(f_ub, s_ub)


class TestSpanningApps:
    """Apps that cross a seam are solved myopically per window; the
    audit bounds the merged objective against the per-window charges
    and the result stays within the configured gap here."""

    def test_spanning_app_within_gap(self):
        problem = seam_problem(with_arrival=False)
        p_mono = MIPScheduler().schedule(problem)
        deco = MIPScheduler(decompose="window:24,gap:0.01")
        p_deco = deco.schedule(problem)
        om = placement_objective(problem, p_mono)
        od = placement_objective(problem, p_deco)
        assert od <= om * 1.01 + 1e-6
        assert deco.last_timings.fell_back is False


class TestRelaxFix:
    def test_fallback_on_breached_gap(self):
        """A symmetric instance whose LP optimum fractionally splits
        VMs strictly beats any integer placement, so with gap 0 the
        reduced solve must fall back to the full MIP."""
        n = 24
        dip = np.full(n, 400.0)
        dip[8:12] = 5.0
        sites = (
            SiteCapacity("a", 400, dip.copy()),
            SiteCapacity("b", 400, dip.copy()),
        )
        app = make_app(0, arrival=0, duration=24, vms=3, cores=4)
        problem = SchedulingProblem(
            make_grid(n), sites, (app,), bytes_per_core=1e9,
            utilization_cap=0.9,
        )
        scheduler = MIPScheduler(decompose="relax-fix,gap:0.0")
        placement = scheduler.schedule(problem)
        placement.validate_complete(problem)
        t = scheduler.last_timings
        assert t.mode == "relax-fix"
        assert t.fell_back is True
        # Fallback still produces the true integer optimum.
        p_mono = MIPScheduler().schedule(problem)
        assert placement_objective(problem, placement) == pytest.approx(
            placement_objective(problem, p_mono), abs=1e-6)

    def test_continuous_vms_have_zero_gap(self):
        problem = separable_problem()
        scheduler = MIPScheduler(
            integer_vms=False, decompose="relax-fix")
        scheduler.schedule(problem)
        assert scheduler.last_timings.gap == 0.0


class TestFailureDiagnostics:
    def make_infeasible_window_two(self):
        """Window 1 solves fine; the window-2 app exceeds every site's
        allocation cap, so that window's MIP is infeasible."""
        n = 48
        sites = (SiteCapacity("a", 100, np.full(n, 100.0)),)
        apps = (
            make_app(0, arrival=0, duration=20, vms=2, cores=4),
            Application(1, 26, 10, 1, VMType("huge", 95, 190.0), 1.0),
        )
        return SchedulingProblem(
            make_grid(n), sites, apps, bytes_per_core=1e9,
            utilization_cap=0.9,
        )

    def test_solver_error_carries_window_context(self):
        problem = self.make_infeasible_window_two()
        scheduler = MIPScheduler(
            decompose="window:24,no-fallback")
        with pytest.raises(SolverError) as err:
            scheduler.schedule(problem)
        assert err.value.window == 1
        assert err.value.shape is not None
        assert "window=1" in str(err.value)

    def test_fallback_reports_monolithic_failure(self):
        """With fallback on, an instance that is globally infeasible
        still raises — from the monolithic retry."""
        problem = self.make_infeasible_window_two()
        scheduler = MIPScheduler(decompose="window:24")
        with pytest.raises(SolverError):
            scheduler.schedule(problem)


class TestObservability:
    """Satellite: per-window spans nest under ``mip.schedule`` and
    render in the report tree."""

    def test_window_spans_nest_under_schedule(self):
        problem = separable_problem()
        with obs.use(obs.MemorySink()) as mem:
            MIPScheduler(decompose="window:24").schedule(problem)
        spans = [r for r in mem.records if r.get("type") == "span"]
        by_name = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        assert "mip.schedule" in by_name
        assert len(by_name["mip.window"]) == 2
        # The outer decomposed schedule span is the tree root; each
        # window span hangs directly off it (the inner per-window
        # solves then nest their own mip.schedule under the window).
        root = next(
            r for r in by_name["mip.schedule"]
            if r.get("parent_id") is None)
        for window_span in by_name["mip.window"]:
            assert window_span["parent_id"] == root["span_id"]
        assert root["attrs"]["decompose"] == "window:24"

    def test_report_renders_window_tree(self):
        problem = separable_problem()
        with obs.use(obs.MemorySink()) as mem:
            MIPScheduler(decompose="window:24").schedule(problem)
        text = obs.render_report(mem.records)
        lines = text.splitlines()
        schedule_idx = next(
            i for i, line in enumerate(lines) if "mip.schedule" in line)
        window_lines = [line for line in lines if "mip.window" in line]
        assert window_lines, text
        # Window spans render below and indented past their parent.
        schedule_indent = len(lines[schedule_idx]) - len(
            lines[schedule_idx].lstrip())
        for line in window_lines:
            assert len(line) - len(line.lstrip()) > schedule_indent
