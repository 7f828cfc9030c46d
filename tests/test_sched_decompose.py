"""Tests for repro.sched.decompose: windowed (``window:N``) MIP solves.

The golden tests pin the decomposition contract from three angles:

- *Matching instances*: on the pinned instances below, ``window:24``
  reproduces the monolithic placement exactly.
- *Seam carry*: when displacement is held across a window boundary,
  the decomposed solve charges the boundary ``u`` forward, while
  :class:`RollingMIPScheduler` deliberately re-charges it from zero
  (the paper's plain re-solve-daily semantics).
- *Myopia*: a window cannot see later arrivals, and the boundary it
  commits binds the next window even when no app is alive at the
  seam, so ``window:24`` can plan more than the monolithic solve on a
  day-aligned instance.  The other direction holds: the monolithic
  objective never exceeds the windowed one by more than the solver's
  ``mip_rel_gap``.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    in window 1), app Q pays 24 at a (dip in window 2).  Neither best
    site is displaced at the seam, so window 1's boundary leaves
    window 2's choice alone."""
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
        spec = DecomposeSpec.parse("window:24")
        assert spec.window_steps == 24
        assert DecomposeSpec.parse(spec.token()) == spec

    def test_token_is_canonical(self):
        assert DecomposeSpec.parse(" window:24 ").token() == "window:24"
        assert DecomposeSpec(12).token() == "window:12"

    def test_no_fallback(self):
        """The fallback to the monolithic solve cannot be turned off:
        the spec has no field for it and ``no-fallback`` is refused."""
        assert list(DecomposeSpec.__dataclass_fields__) == ["window_steps"]
        with pytest.raises(SolverError):
            DecomposeSpec.parse("window:12,no-fallback")

    def test_unknown_token_raises(self):
        for text in (
            "window:24,frobnicate",
            "window:24,jobs:2",
            "window:24,backend:thread",
            "relax-fix",
            "window:24,overlap:6",
            "window:24,gap:0.01",
            "window:24,int-tol:1e-6",
            "window:24,no-fallback",
        ):
            with pytest.raises(SolverError, match="unknown decompose token"):
                DecomposeSpec.parse(text)

    def test_bad_value_raises(self):
        for text in ("window:zero", "window:0", "window:-3", "window:2.5"):
            with pytest.raises(SolverError):
                DecomposeSpec.parse(text)

    def test_needs_a_strategy(self):
        for text in ("", "window", "overlap:4"):
            with pytest.raises(SolverError):
                DecomposeSpec.parse(text)

    def test_scheduler_accepts_spec_or_string(self):
        by_str = MIPScheduler(decompose="window:24")
        by_spec = MIPScheduler(decompose=DecomposeSpec(window_steps=24))
        assert by_str.decompose == by_spec.decompose


class TestPlanWindows:
    def test_covers_horizon_without_gaps(self):
        plans = plan_windows(50, 24)
        assert [(p.index, p.start, p.stop) for p in plans] == [
            (0, 0, 24), (1, 24, 48), (2, 48, 50),
        ]

    def test_single_window(self):
        plans = plan_windows(10, 24)
        assert len(plans) == 1
        assert plans[0].steps == 10


class TestGoldenSeparable:
    """On :func:`separable_problem`, ``window:24`` reproduces the
    monolithic placement exactly.  That is a property of this instance,
    not of every day-aligned one (see :class:`TestMyopia`)."""

    @pytest.fixture(scope="class")
    def monolithic(self):
        problem = separable_problem()
        scheduler = MIPScheduler()
        placement = scheduler.schedule(problem)
        return problem, placement

    def test_monolithic_baseline_is_strict(self, monolithic):
        _, placement = monolithic
        assert placement.assignment == {0: {"a": 15}, 1: {"b": 16}}

    @pytest.mark.parametrize("spec", ["window:24"])
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
        """On :func:`separable_problem`, where no displacement is held
        at the seam, chunked and unchunked solves agree."""
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
    and the result stays within 1% of the monolithic one here."""

    def test_spanning_app_within_gap(self):
        problem = seam_problem(with_arrival=False)
        p_mono = MIPScheduler().schedule(problem)
        deco = MIPScheduler(decompose="window:24")
        p_deco = deco.schedule(problem)
        om = placement_objective(problem, p_mono)
        od = placement_objective(problem, p_deco)
        assert od <= om * 1.01 + 1e-6
        assert deco.last_timings.fell_back is False


@st.composite
def day_aligned_problems(draw):
    """2 sites x 2 days; every app lives inside one day, and each day
    dips each site's capacity once.  Apps are large enough for the
    90-core allocation cap to bind."""
    n = 48
    sites = []
    for name in ("a", "b"):
        cap = np.full(n, 100.0)
        for day in (0, 1):
            start = day * 24 + draw(st.integers(0, 20))
            length = draw(st.integers(1, 4))
            cap[start:start + length] = float(draw(st.integers(0, 90)))
        sites.append(SiteCapacity(name, 100, cap))
    apps = []
    for app_id in range(draw(st.integers(1, 5))):
        day = draw(st.integers(0, 1))
        offset = draw(st.integers(0, 22))
        duration = draw(st.integers(1, 24 - offset))
        cores = draw(st.sampled_from([20, 30, 40]))
        apps.append(Application(
            app_id, day * 24 + offset, duration,
            draw(st.integers(1, 3)), VMType(f"T{cores}", cores, 2.0 * cores),
            draw(st.sampled_from([0.5, 1.0])),
        ))
    return SchedulingProblem(
        make_grid(n), tuple(sites), tuple(apps), bytes_per_core=1e9,
        utilization_cap=0.9,
    )


class TestMyopia:
    """No app spans the step-24 seam, yet ``window:24`` need not match
    the monolithic solve: the boundary ``u`` that window 1 commits ties
    it to window 2."""

    def test_day_aligned_instance_can_plan_more(self):
        """P (steps 2-11) and Q (28-37) each run one 50-core stable VM.
        Alone, P is cheapest at ``a`` (10 cores displaced against 12 at
        ``b``), and window 1 commits that.  Held at ``a``, those 10
        cores do not help Q, which then pays 14 more at ``b``: 24 GB.
        The monolithic solve puts both on ``b``, where Q's floor of 14
        sits two cores over P's held 12: 14 GB."""
        n = 48
        cap_a = np.full(n, 100.0)
        cap_a[4:8] = 40.0
        cap_a[30:34] = 20.0
        cap_b = np.full(n, 100.0)
        cap_b[4:8] = 38.0
        cap_b[30:34] = 36.0
        sites = (
            SiteCapacity("a", 100, cap_a),
            SiteCapacity("b", 100, cap_b),
        )
        vm = VMType("v50", 50, 100.0)
        apps = (
            Application(0, 2, 10, 1, vm, 1.0),
            Application(1, 28, 10, 1, vm, 1.0),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, apps, bytes_per_core=1e9,
            utilization_cap=0.9,
        )
        p_mono = MIPScheduler().schedule(problem)
        deco = MIPScheduler(decompose="window:24")
        p_deco = deco.schedule(problem)
        assert p_mono.assignment == {0: {"b": 1}, 1: {"b": 1}}
        assert p_deco.assignment == {0: {"a": 1}, 1: {"b": 1}}
        assert placement_objective(problem, p_mono) == pytest.approx(
            14.0, abs=0.01)
        assert placement_objective(problem, p_deco) == pytest.approx(
            24.0, abs=0.01)
        # Seam accounting is exact, so the audit has nothing to catch.
        assert deco.last_timings.fell_back is False

    @given(day_aligned_problems())
    @settings(max_examples=25, deadline=None)
    def test_monolithic_never_plans_more_beyond_its_gap(self, problem):
        """The windowed placement is feasible for the monolithic model,
        so the monolithic solve, optimal within ``mip_rel_gap``, plans
        no more than it.  Where no placement fits at all, the windowed
        solve falls back to the same model and fails with it."""
        mono = MIPScheduler()
        windowed = MIPScheduler(decompose="window:24")
        try:
            p_mono = mono.schedule(problem)
        except SolverError:
            with pytest.raises(SolverError):
                windowed.schedule(problem)
            return
        p_deco = windowed.schedule(problem)
        om = placement_objective(problem, p_mono)
        od = placement_objective(problem, p_deco)
        assert om - od <= mono.mip_rel_gap * om + 1e-4


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
        """Window 1 splits app 0 evenly to dodge both sites' dip, which
        leaves no site room for app 1's 80-core VM in window 2.  The
        monolithic solve, seeing both, keeps one site free; the
        fallback answers with it and the span names the window."""
        n = 48
        cap = np.full(n, 100.0)
        cap[4:8] = 25.0
        sites = (
            SiteCapacity("a", 100, cap.copy()),
            SiteCapacity("b", 100, cap.copy()),
        )
        apps = (
            make_app(0, arrival=2, duration=40, vms=10, cores=5),
            Application(1, 26, 10, 1, VMType("xl", 80, 160.0), 1.0),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, apps, bytes_per_core=1e9,
            utilization_cap=0.9,
        )
        scheduler = MIPScheduler(decompose="window:24")
        with obs.use(obs.MemorySink()) as mem:
            placement = scheduler.schedule(problem)
        placement.validate_complete(problem)
        assert scheduler.last_timings.fell_back is True
        assert scheduler.last_timings.mode == "window"
        root = next(
            r for r in mem.records
            if r.get("type") == "span" and r["name"] == "mip.schedule"
            and r.get("parent_id") is None)
        reason = root["attrs"]["fallback_reason"]
        assert reason.startswith("window solve failed")
        assert "window=1" in reason
        assert "shape=" in reason

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
