"""Decomposed MIP site selection: a chain of temporal windows.

The monolithic §3.1 MIP (:mod:`repro.sched.mip`) is exact but its
solve time grows superlinearly with ``n_sites * n_steps``; at 500
sites the HiGHS solve dominates assembly by orders of magnitude.  This
module makes MIPScheduler-quality placements tractable at that scale
by cutting the horizon into commit windows of ``N`` steps
(``MIPScheduler(decompose="window:24")``, see :class:`DecomposeSpec`).

Each window places the apps arriving inside it, with earlier
commitments entering as stable/total background load.  Unlike
:class:`~repro.sched.mip.RollingMIPScheduler` — which rides the same
window machinery — the displacement boundary ``u[s, t]`` is carried
across seams: window ``k+1``'s C3 traffic row at its first step reads
``d+ - d- - u = -u_prev`` where ``u_prev`` is window ``k``'s final
planned displacement.  Because the optimal displacement plan holds
``u`` at the running max of the displacement floor (see the
:mod:`repro.sched.mip` docstring), carried boundaries make the sum of
per-window charged traffic telescope to exactly the monolithic
objective *of the merged placement*: windowing never double-charges a
seam.

What windowing loses is foresight.  A window places its apps without
seeing later arrivals, and the boundary ``u`` it commits binds every
window after it — displaced cores stay displaced across a seam even
when no app is alive there — so no window can be solved apart from the
one before it, and the merged placement can plan more migration than
the monolithic optimum even on day-aligned instances where no app
spans a seam (``tests/test_sched_decompose.py::TestMyopia`` pins one).
The converse holds: the merged placement is feasible for the
monolithic model, so the monolithic objective never exceeds the
windowed one by more than the solver's ``mip_rel_gap``.

A post-solve audit recomputes the merged placement's closed-form
objective and falls back to the monolithic solve if it exceeds the
window-committed bound by more than :data:`AUDIT_GAP` (a
seam-accounting invariant; it catches solver tolerance drift, not
myopia).  A failed window raises :class:`~repro.errors.SolverError`
carrying the solver status, window index, and problem shape; either
failure is absorbed, the full monolithic solve answers instead
(flagged in :attr:`~repro.sched.mip.MIPTimings.fell_back`), and the
error text lands in the ``mip.schedule`` span's ``fallback_reason``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .. import obs
from ..errors import SolverError
from .overhead import placement_load_series
from .problem import Placement, SchedulingProblem, SiteCapacity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..workload import Application
    from .mip import MIPScheduler, MIPTimings, WindowTiming

#: Relative budget of the windowed audit: the merged placement's
#: objective may exceed the sum of per-window charges by this share
#: before the monolithic solve is asked instead.
AUDIT_GAP = 0.01

#: Objective floor (in GB) for the audit's relative budget: below this,
#: an objective is migration noise and absolute differences up to
#: ``AUDIT_GAP * GAP_FLOOR_GB`` pass.  Keeps near-zero-objective
#: instances (ample capacity everywhere) from tripping spurious
#: fallbacks on solver tolerance.
GAP_FLOOR_GB = 1.0


@dataclass(frozen=True)
class DecomposeSpec:
    """Decomposition strategy for :class:`MIPScheduler`: ``window:N``.

    Attributes:
        window_steps: Commit-window length in grid steps.
    """

    window_steps: int

    def __post_init__(self) -> None:
        if self.window_steps <= 0:
            raise SolverError(
                f"window must be positive: {self.window_steps}"
            )

    @classmethod
    def parse(cls, text: str) -> "DecomposeSpec":
        """Parse the CLI/scenario string form, exactly ``window:N``."""
        key, _, value = text.strip().partition(":")
        if key != "window" or "," in value:
            raise SolverError(
                f"unknown decompose token {text!r} (expected window:N)"
            )
        try:
            return cls(int(value))
        except ValueError as exc:
            raise SolverError(
                f"bad decompose token {text!r}: {exc}"
            ) from exc

    def token(self) -> str:
        """Canonical string form (round-trips through :meth:`parse`)."""
        return f"window:{self.window_steps}"


# ----------------------------------------------------------------------
# Window planning and sub-problem construction (shared with
# RollingMIPScheduler, which predates and now rides this machinery).


@dataclass(frozen=True)
class WindowPlan:
    """One temporal window: the steps ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def steps(self) -> int:
        """Steps the window's solve sees and commits."""
        return self.stop - self.start


def plan_windows(n_steps: int, window_steps: int) -> tuple[WindowPlan, ...]:
    """Cut ``[0, n_steps)`` into consecutive windows of ``window_steps``
    (the last one clipped at the horizon)."""
    if window_steps <= 0:
        raise SolverError(f"window must be positive: {window_steps}")
    return tuple(
        WindowPlan(index, start, min(start + window_steps, n_steps))
        for index, start in enumerate(range(0, n_steps, window_steps))
    )


class WindowState:
    """Mutable ledger of placements committed by earlier windows.

    Tracks the merged assignment plus per-site stable/total background
    load over the *full* horizon (committed apps contribute their
    untruncated activity windows, so later windows see load the
    committing window could not).  ``base_cap`` generalizes the
    allocation cap: windows see ``clip(base_cap - total_bg, 0)``.

    When the problem carries a :class:`~repro.sched.problem.GridPricing`,
    the ledger also tracks committed grid spend: ``grid_spent_mwh`` is
    the per-site energy already bought by earlier windows (later
    windows see the budget *minus* it — the seam carry that keeps a
    shared budget exact across windows), and ``grid_import`` merges the
    committed per-step purchase series over the full horizon.
    """

    def __init__(
        self,
        problem: SchedulingProblem,
        allocation_cap: Mapping[str, np.ndarray] | None = None,
        stable_background: Mapping[str, np.ndarray] | None = None,
    ):
        n = problem.grid.n
        self.problem = problem
        self.assignment: dict[int, dict[str, int]] = {}
        self.stable_bg: dict[str, np.ndarray] = {}
        self.total_bg: dict[str, np.ndarray] = {}
        self.base_cap: dict[str, np.ndarray] = {}
        self.grid_spent_mwh: dict[str, float] = {
            site.name: 0.0 for site in problem.sites
        }
        self.grid_import: dict[str, np.ndarray] = {
            site.name: np.zeros(n) for site in problem.sites
        }
        for site in problem.sites:
            if stable_background is not None:
                self.stable_bg[site.name] = np.array(
                    stable_background[site.name], dtype=float
                )
            else:
                self.stable_bg[site.name] = np.zeros(n)
            self.total_bg[site.name] = np.zeros(n)
            if allocation_cap is not None:
                self.base_cap[site.name] = np.asarray(
                    allocation_cap[site.name], dtype=float
                )
            else:
                self.base_cap[site.name] = np.full(
                    n, problem.utilization_cap * site.total_cores
                )

    def commit(
        self, built: "WindowProblem", sub_placement: Placement
    ) -> None:
        """Fold one window's placement into the ledger."""
        for app, sub_app in zip(built.batch, built.shifted):
            per_site = sub_placement.assignment.get(sub_app.app_id, {})
            self.assignment[app.app_id] = dict(per_site)
            for name, count in per_site.items():
                window_full = slice(app.arrival_step, app.end_step)
                self.stable_bg[name][window_full] += (
                    count * app.vm_type.cores * app.stable_fraction
                )
                self.total_bg[name][window_full] += (
                    count * app.vm_type.cores
                )
        window = slice(built.plan.start, built.plan.stop)
        for name, series in sub_placement.planned_grid_import.items():
            committed = np.asarray(series, dtype=float)
            self.grid_import[name][window] = committed
            self.grid_spent_mwh[name] += float(committed.sum())


@dataclass(frozen=True)
class WindowProblem:
    """One window's solvable sub-problem plus its commit bookkeeping."""

    plan: WindowPlan
    problem: SchedulingProblem
    batch: tuple["Application", ...]
    shifted: tuple["Application", ...]
    caps: dict[str, np.ndarray]
    backgrounds: dict[str, np.ndarray]


def build_window_problem(
    problem: SchedulingProblem,
    plan: WindowPlan,
    state: WindowState,
    capacity_provider: Callable[[str, int, int], np.ndarray]
    | None = None,
) -> WindowProblem | None:
    """Build the sub-problem for one window, or ``None`` if no app
    arrives inside it.

    Batched apps are shifted to the window's clock and truncated to
    its horizon (the solver only reasons about what it can see);
    committed load enters through ``caps`` / ``backgrounds``.
    """
    batch = [
        app
        for app in problem.apps
        if plan.start <= app.arrival_step < plan.stop
    ]
    if not batch:
        return None
    shifted = [
        replace(
            app,
            arrival_step=app.arrival_step - plan.start,
            duration_steps=min(
                app.duration_steps, plan.stop - app.arrival_step
            ),
        )
        for app in batch
    ]
    window = slice(plan.start, plan.stop)
    sub_sites = []
    caps: dict[str, np.ndarray] = {}
    backgrounds: dict[str, np.ndarray] = {}
    for site in problem.sites:
        if capacity_provider is not None:
            capacity = np.asarray(
                capacity_provider(site.name, plan.start, plan.steps),
                dtype=float,
            )
        else:
            capacity = site.capacity_cores[window]
        capacity = np.clip(capacity, 0, site.total_cores)
        sub_sites.append(
            SiteCapacity(site.name, site.total_cores, capacity)
        )
        caps[site.name] = np.clip(
            state.base_cap[site.name][window]
            - state.total_bg[site.name][window],
            0.0,
            None,
        )
        backgrounds[site.name] = state.stable_bg[site.name][window].copy()
    pricing = None
    if problem.grid_pricing is not None:
        # Window signals plus the budget left after committed spend —
        # the grid-side analogue of the carried displacement boundary.
        gp = problem.grid_pricing
        pricing = gp.slice(plan.start, plan.stop).with_budgets(
            {
                name: max(
                    budget - state.grid_spent_mwh.get(name, 0.0), 0.0
                )
                for name, budget in gp.budget_mwh.items()
            }
        )
    sub_problem = SchedulingProblem(
        problem.grid.subgrid(plan.start, plan.steps),
        tuple(sub_sites),
        tuple(shifted),
        problem.bytes_per_core,
        problem.utilization_cap,
        grid_pricing=pricing,
    )
    return WindowProblem(
        plan, sub_problem, tuple(batch), tuple(shifted), caps,
        backgrounds,
    )


# ----------------------------------------------------------------------
# Closed-form displacement of a fixed placement.


def _held_displacement(
    load: np.ndarray, capacity: np.ndarray, u0: float
) -> np.ndarray:
    """The optimal displacement plan for a fixed stable load.

    Holding a displaced VM costs ``epsilon`` per step while migrating
    it back costs a full ``bytes_per_core`` (see the
    :mod:`repro.sched.mip` docstring), so the plan is the running max
    of the floor ``clip(load - capacity, 0)``, never below the
    carried-in ``u0``.
    """
    floor = np.clip(load - capacity, 0.0, None)
    return np.maximum.accumulate(np.maximum(floor, u0))


def _held_cost(
    u: np.ndarray, u0: float, epsilon: float, bpc_gb: float
) -> float:
    """O1 + anchor of a held plan ``u`` that starts from ``u0``."""
    return ((u[-1] - u0) + epsilon * u.sum()) * bpc_gb


def _initial(
    initial_displacement: Mapping[str, float] | None, name: str
) -> float:
    if initial_displacement is None:
        return 0.0
    return float(initial_displacement.get(name, 0.0))


def _placement_displacement(
    problem: SchedulingProblem,
    placement: Placement,
    stable_background: Mapping[str, np.ndarray] | None,
    initial_displacement: Mapping[str, float] | None,
) -> dict[str, np.ndarray]:
    """Per-site held displacement of a fixed (placement, grid plan).

    Bought grid cores raise each site's effective capacity, so they
    lower the floor one for one.
    """
    stable, _ = placement_load_series(problem, placement)
    gp = problem.grid_pricing
    plan: dict[str, np.ndarray] = {}
    for site in problem.sites:
        load = stable[site.name]
        if stable_background is not None:
            load = load + np.asarray(
                stable_background[site.name], dtype=float
            )
        if gp is not None and site.name in placement.planned_grid_import:
            mwh = np.asarray(
                placement.planned_grid_import[site.name], dtype=float
            )
            load = load - mwh * gp.cores_per_mw[site.name] / gp.step_hours
        plan[site.name] = _held_displacement(
            load,
            site.capacity_cores,
            _initial(initial_displacement, site.name),
        )
    return plan


def placement_objective(
    problem: SchedulingProblem,
    placement: Placement,
    stable_background: Mapping[str, np.ndarray] | None = None,
    initial_displacement: Mapping[str, float] | None = None,
    epsilon: float = 1e-6,
    previous_assignment: Mapping[int, Mapping[str, int]] | None = None,
    switch_weight: float = 1.0,
) -> float:
    """O1(+anchor, +switch) objective value of a *fixed* placement.

    Given the placement, the sites decouple and the optimal
    displacement plan is the running max of the displacement floor
    ``clip(stable_load + background - capacity, 0)`` (holding a
    displaced VM costs ``epsilon`` per step; migrating it back costs a
    full ``bytes_per_core`` — see the :mod:`repro.sched.mip`
    docstring), so the objective has the closed form::

        bpc_gb * sum_s [ max(0, max_t floor_s - u0_s)
                         + epsilon * sum_t runmax(floor_s, u0_s) ]

    plus the reassignment term when ``previous_assignment`` is given.
    The O2 peak term is *excluded* — for ``peak_weight > 0`` the
    solver trades O1 against the peak and no placement-only closed
    form exists.

    When the problem carries a :class:`~repro.sched.problem.GridPricing`
    and the placement a grid-import plan, the bought cores raise each
    site's effective capacity (lowering the displacement floor) and
    their ``(price + carbon_weight * carbon)`` cost joins the total —
    the objective of the *fixed* (placement, grid plan) pair.
    """
    bpc_gb = problem.bytes_per_core / 1e9
    total = 0.0
    gp = problem.grid_pricing
    if gp is not None:
        weight = gp.objective_per_mwh()
        for series in placement.planned_grid_import.values():
            mwh = np.asarray(series, dtype=float)
            total += float(mwh @ weight[: len(mwh)])
    displacement = _placement_displacement(
        problem, placement, stable_background, initial_displacement
    )
    for name, u in displacement.items():
        total += _held_cost(
            u, _initial(initial_displacement, name), epsilon, bpc_gb
        )
    if previous_assignment is not None:
        for app in problem.apps:
            prev = previous_assignment.get(app.app_id, {})
            move_gb = app.vm_type.memory_bytes / 1e9
            for name, count in placement.assignment.get(
                app.app_id, {}
            ).items():
                moved = max(0, count - int(prev.get(name, 0)))
                total += switch_weight * moved * move_gb
    return total


# ----------------------------------------------------------------------
# The windowed solve.


def solve_decomposed(
    scheduler: "MIPScheduler",
    problem: SchedulingProblem,
    allocation_cap: Mapping[str, np.ndarray] | None = None,
    stable_background: Mapping[str, np.ndarray] | None = None,
    previous_assignment: Mapping[int, Mapping[str, int]] | None = None,
    switch_weight: float = 1.0,
    initial_displacement: Mapping[str, float] | None = None,
) -> Placement:
    """Entry point from :meth:`MIPScheduler.schedule` when a
    :class:`DecomposeSpec` is set.

    Runs the windowed solve, absorbs any :class:`SolverError` into a
    monolithic fallback (its text recorded as the span's
    ``fallback_reason``), and leaves the aggregate :class:`MIPTimings`
    (with per-window telemetry) on ``scheduler.last_timings``.
    """
    with obs.timed_span(
        "mip.schedule",
        n_apps=len(problem.apps),
        n_sites=len(problem.sites),
        n_steps=problem.grid.n,
        decompose=scheduler.decompose.token(),
    ) as span:
        try:
            placement, timings = _solve_windowed(
                scheduler, problem, allocation_cap, stable_background,
                previous_assignment, switch_weight, initial_displacement,
            )
        except SolverError as exc:
            span.set(fallback_reason=str(exc))
            placement = scheduler._schedule_monolithic(
                problem, allocation_cap, stable_background,
                previous_assignment, switch_weight,
                initial_displacement,
            )
            timings = replace(
                scheduler.last_timings, mode="window", fell_back=True
            )
        scheduler.last_timings = timings
        span.set(
            mode=timings.mode,
            fell_back=timings.fell_back,
            n_windows=len(timings.windows),
        )
        if timings.objective is not None:
            span.set(objective=timings.objective)
        return placement


def _filter_previous(
    previous_assignment: Mapping[int, Mapping[str, int]] | None,
    batch: tuple["Application", ...],
) -> dict[int, dict[str, int]] | None:
    if previous_assignment is None:
        return None
    return {
        app.app_id: dict(previous_assignment.get(app.app_id, {}))
        for app in batch
    }


def _window_timing(
    plan: WindowPlan, n_batch: int, timings: "MIPTimings"
) -> "WindowTiming":
    from .mip import WindowTiming

    return WindowTiming(
        index=plan.index,
        start=plan.start,
        steps=plan.steps,
        n_apps=n_batch,
        assembly_s=timings.assembly_s,
        solve_s=timings.solve_s,
        n_rows=timings.n_rows,
        n_cols=timings.n_cols,
        nnz=timings.nnz,
        objective=timings.objective,
        dual_bound=timings.dual_bound,
    )


def _committed_grid_cost(
    problem: SchedulingProblem,
    plan: WindowPlan,
    sub_placement: Placement,
) -> float:
    """$-equivalent cost of one window's committed grid purchases."""
    if problem.grid_pricing is None:
        return 0.0
    weight = problem.grid_pricing.objective_per_mwh()[plan.start : plan.stop]
    return sum(
        float(np.asarray(series, dtype=float) @ weight)
        for series in sub_placement.planned_grid_import.values()
    )


def _solve_windowed(
    scheduler: "MIPScheduler",
    problem: SchedulingProblem,
    allocation_cap: Mapping[str, np.ndarray] | None,
    stable_background: Mapping[str, np.ndarray] | None,
    previous_assignment: Mapping[int, Mapping[str, int]] | None,
    switch_weight: float,
    initial_displacement: Mapping[str, float] | None,
) -> tuple[Placement, "MIPTimings"]:
    from .mip import MIPScheduler, MIPTimings

    n = problem.grid.n
    plans = plan_windows(n, scheduler.decompose.window_steps)
    state = WindowState(problem, allocation_cap, stable_background)
    bpc_gb = problem.bytes_per_core / 1e9
    eps = scheduler.epsilon
    boundary = {
        site.name: _initial(initial_displacement, site.name)
        for site in problem.sites
    }
    windows: list[WindowTiming] = []
    # Sum of per-window committed objective contributions (traffic
    # charged with carried boundaries + the epsilon anchor + grid
    # spend) — the bound the merged placement's closed-form objective
    # is audited against.
    expected = 0.0
    planned_parts = {name: np.zeros(n) for name in problem.site_names}

    inner = MIPScheduler(
        peak_weight=scheduler.peak_weight,
        integer_vms=scheduler.integer_vms,
        time_limit_s=scheduler.time_limit_s,
        mip_rel_gap=scheduler.mip_rel_gap,
        epsilon=scheduler.epsilon,
    )
    for plan in plans:
        built = build_window_problem(problem, plan, state)
        window = slice(plan.start, plan.stop)
        if built is None:
            # No arrivals: the boundary still evolves (committed
            # background can raise the displacement floor), and the
            # monolithic objective charges those steps too.
            for site in problem.sites:
                name = site.name
                useg = _held_displacement(
                    state.stable_bg[name][window],
                    site.capacity_cores[window],
                    boundary[name],
                )
                expected += _held_cost(useg, boundary[name], eps, bpc_gb)
                planned_parts[name][window] = useg
                boundary[name] = float(useg[-1])
            continue
        with obs.timed_span(
            "mip.window",
            index=plan.index,
            start=plan.start,
            steps=plan.steps,
            n_apps=len(built.batch),
        ):
            try:
                sub_placement = inner.schedule(
                    built.problem,
                    allocation_cap=built.caps,
                    stable_background=built.backgrounds,
                    previous_assignment=_filter_previous(
                        previous_assignment, built.batch
                    ),
                    switch_weight=switch_weight,
                    initial_displacement=dict(boundary),
                )
            except SolverError as exc:
                raise SolverError(
                    f"window solve failed: {exc.message}",
                    status=exc.status,
                    window=plan.index,
                    shape=exc.shape,
                ) from exc
        windows.append(
            _window_timing(plan, len(built.batch), inner.last_timings)
        )
        for name in problem.site_names:
            series = sub_placement.planned_displacement.get(name)
            if series is None:
                series = np.zeros(plan.steps)
            series = np.asarray(series, dtype=float)
            delta = np.diff(series, prepend=boundary[name])
            expected += (np.abs(delta).sum() + eps * series.sum()) * bpc_gb
            planned_parts[name][window] = series
            boundary[name] = float(series[-1])
        expected += _committed_grid_cost(problem, plan, sub_placement)
        state.commit(built, sub_placement)

    merged = Placement(
        dict(state.assignment),
        planned_parts,
        preemptive=scheduler.peak_weight > 0,
        planned_grid_import=(
            {
                name: series.copy()
                for name, series in state.grid_import.items()
            }
            if problem.grid_pricing is not None
            else {}
        ),
    )
    merged.validate_complete(problem)

    objective = None
    if scheduler.peak_weight == 0 and previous_assignment is None:
        objective = placement_objective(
            problem,
            merged,
            stable_background=stable_background,
            initial_displacement=initial_displacement,
            epsilon=eps,
        )
        # The merged plan's closed-form optimum is also the better
        # displacement series to publish (per-window solves carry
        # solver tolerance; the closed form is exact for the merged y).
        merged.planned_displacement.update(
            _placement_displacement(
                problem, merged, stable_background, initial_displacement
            )
        )
        # The audit needs the merged placement to be exactly what the
        # windows charged for: with ``integer_vms=False`` the windows
        # solve LPs whose fractional VM splits are rounded to integers
        # at extraction, so the achieved objective legitimately drifts
        # from the fractional per-window charges (monolithic LP solves
        # round identically) — the invariant only holds for integral
        # solves.
        tolerance = AUDIT_GAP * max(expected, GAP_FLOOR_GB) + 1e-9
        if scheduler.integer_vms and objective > expected + tolerance:
            raise SolverError(
                f"windowed objective {objective:.6f} GB exceeds the"
                f" window-committed bound {expected:.6f} GB beyond"
                f" gap {AUDIT_GAP}"
            )

    timings = MIPTimings(
        assembly_s=sum(w.assembly_s for w in windows),
        solve_s=sum(w.solve_s for w in windows),
        n_rows=sum(w.n_rows for w in windows),
        n_cols=sum(w.n_cols for w in windows),
        nnz=sum(w.nnz for w in windows),
        objective=objective,
        mode="window",
        windows=tuple(windows),
    )
    return merged, timings
