"""Decomposed MIP site selection: windows and relax-and-fix.

The monolithic §3.1 MIP (:mod:`repro.sched.mip`) is exact but its
solve time grows superlinearly with ``n_sites * n_steps``; at 500
sites the HiGHS solve dominates assembly by orders of magnitude.  This
module makes MIPScheduler-quality placements tractable at that scale
with two composable strategies, selected by a :class:`DecomposeSpec`
(``MIPScheduler(decompose="window:24,relax-fix")``):

**Rolling-horizon temporal decomposition** (``window:N[,overlap:M]``).
The horizon is cut into commit windows of ``N`` steps (each optionally
*seeing* ``M`` extra lookahead steps); each window places the apps
arriving inside it, with earlier commitments entering as stable/total
background load.  Unlike :class:`~repro.sched.mip.RollingMIPScheduler`
— which this machinery generalizes and subsumes — the displacement
boundary ``u[s, t]`` is carried across seams: window ``k+1``'s C3
traffic row at its first step reads ``d+ - d- - u = -u_prev`` where
``u_prev`` is window ``k``'s final planned displacement.  Because the
optimal displacement plan holds ``u`` at the running max of the
displacement floor (see the :mod:`repro.sched.mip` docstring), carried
boundaries make the sum of per-window charged traffic telescope to
exactly the monolithic objective *of the merged placement*: windowing
never double-charges a seam.  The solved windows are therefore
objective-exact given their placements; the only quality loss is
placement myopia (a window cannot see arrivals beyond its lookahead),
which the golden tests pin to zero on time-separable instances and the
benchmarks bound empirically (< 1% at 500 sites).  A post-solve audit
recomputes the merged placement's closed-form objective and falls back
to the monolithic solve if it exceeds the window-committed bound by
more than ``max_gap`` (a seam-accounting invariant; it catches solver
tolerance drift, not myopia).

**LP-relax-and-fix** (``relax-fix``).  Solve the LP relaxation once
(its objective is a *certified lower bound*), fix every ``y[a, s]``
within ``int_tol`` of an integer, and solve the reduced integer
problem.  If the reduced problem is infeasible or its objective
exceeds the LP bound by more than ``max_gap`` (relative, floored at
:data:`GAP_FLOOR_GB` for near-zero objectives), fall back to the full
MIP.  The reported :attr:`~repro.sched.mip.MIPTimings.gap` is the
certified bound gap of whatever solve produced the answer.

Windows solve in order: each starts from the boundary ``u`` its
predecessor committed, which stays nonzero across a seam even when no
app is alive there (displaced cores stay displaced), so no window can
be solved apart from the one before it.

Every failure path (window infeasible, reduced problem infeasible,
gap exceeded) raises :class:`~repro.errors.SolverError` carrying the
solver status, window index, and problem shape; with ``fallback`` on
(default) the error is absorbed and the full monolithic solve answers
instead, flagged in :attr:`~repro.sched.mip.MIPTimings.fell_back`.
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

#: Objective floor (in GB) for *relative* gap checks: below this, an
#: objective is migration noise and absolute differences up to
#: ``max_gap * GAP_FLOOR_GB`` pass.  Keeps near-zero-objective
#: instances (ample capacity everywhere) from tripping spurious
#: fallbacks on solver tolerance.
GAP_FLOOR_GB = 1.0


@dataclass(frozen=True)
class DecomposeSpec:
    """Declarative decomposition strategy for :class:`MIPScheduler`.

    Attributes:
        window_steps: Commit-window length for temporal decomposition;
            ``None`` disables windowing (relax-fix only).
        overlap_steps: Extra lookahead steps each window *sees* beyond
            its commit range (commitments stay disjoint).
        relax_fix: Solve each (sub)problem by LP-relax-and-fix instead
            of one integer solve.
        max_gap: Relative objective-gap budget: relax-and-fix falls
            back to the full MIP beyond it, and the windowed audit
            falls back to the monolithic solve beyond it.
        int_tol: |y - round(y)| threshold under which an LP-relaxed
            placement variable is considered integral and fixed.
        fallback: Fall back to the monolithic solve on any
            decomposition failure instead of raising.
    """

    window_steps: int | None = None
    overlap_steps: int = 0
    relax_fix: bool = False
    max_gap: float = 0.01
    int_tol: float = 1e-6
    fallback: bool = True

    def __post_init__(self) -> None:
        if self.window_steps is None and not self.relax_fix:
            raise SolverError(
                "decompose spec needs window:N and/or relax-fix"
            )
        if self.window_steps is not None and self.window_steps <= 0:
            raise SolverError(
                f"window must be positive: {self.window_steps}"
            )
        if self.overlap_steps < 0:
            raise SolverError(
                f"overlap must be >= 0: {self.overlap_steps}"
            )
        if self.max_gap < 0:
            raise SolverError(f"gap must be >= 0: {self.max_gap}")
        if not 0 <= self.int_tol < 0.5:
            raise SolverError(
                f"int-tol must be in [0, 0.5): {self.int_tol}"
            )

    @classmethod
    def parse(cls, text: str) -> "DecomposeSpec":
        """Parse the CLI/scenario string form.

        Comma-separated tokens: ``window:N``, ``overlap:N``,
        ``relax-fix``, ``gap:F``, ``int-tol:F``, ``no-fallback``.
        Example: ``"window:24,overlap:6,relax-fix,gap:0.01"``.
        """
        kwargs: dict = {}
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            key, _, value = token.partition(":")
            try:
                if key == "window":
                    kwargs["window_steps"] = int(value)
                elif key == "overlap":
                    kwargs["overlap_steps"] = int(value)
                elif key == "relax-fix" and not value:
                    kwargs["relax_fix"] = True
                elif key == "gap":
                    kwargs["max_gap"] = float(value)
                elif key == "int-tol":
                    kwargs["int_tol"] = float(value)
                elif key == "no-fallback" and not value:
                    kwargs["fallback"] = False
                else:
                    raise SolverError(
                        f"unknown decompose token {token!r}"
                        " (expected window:N, overlap:N, relax-fix,"
                        " gap:F, int-tol:F, no-fallback)"
                    )
            except ValueError as exc:
                raise SolverError(
                    f"bad decompose token {token!r}: {exc}"
                ) from exc
        return cls(**kwargs)

    def token(self) -> str:
        """Canonical string form (round-trips through :meth:`parse`)."""
        parts: list[str] = []
        if self.window_steps is not None:
            parts.append(f"window:{self.window_steps}")
            if self.overlap_steps:
                parts.append(f"overlap:{self.overlap_steps}")
        if self.relax_fix:
            parts.append("relax-fix")
        if self.max_gap != 0.01:
            parts.append(f"gap:{self.max_gap:g}")
        if self.int_tol != 1e-6:
            parts.append(f"int-tol:{self.int_tol:g}")
        if not self.fallback:
            parts.append("no-fallback")
        return ",".join(parts)


# ----------------------------------------------------------------------
# Window planning and sub-problem construction (shared with
# RollingMIPScheduler, which predates and now rides this machinery).


@dataclass(frozen=True)
class WindowPlan:
    """One temporal window: commit range plus lookahead extension."""

    index: int
    start: int
    commit_end: int
    ext_end: int

    @property
    def steps(self) -> int:
        """Steps the window's solve sees."""
        return self.ext_end - self.start

    @property
    def commit_steps(self) -> int:
        """Steps whose arrivals/displacement the window commits."""
        return self.commit_end - self.start


def plan_windows(
    n_steps: int, window_steps: int, overlap_steps: int = 0
) -> tuple[WindowPlan, ...]:
    """Cut ``[0, n_steps)`` into commit windows with optional overlap.

    Commit ranges partition the horizon; each window's solve sees up
    to ``overlap_steps`` beyond its commit range (clipped at the
    horizon).
    """
    if window_steps <= 0:
        raise SolverError(f"window must be positive: {window_steps}")
    if overlap_steps < 0:
        raise SolverError(f"overlap must be >= 0: {overlap_steps}")
    plans = []
    for index, start in enumerate(range(0, n_steps, window_steps)):
        commit_end = min(start + window_steps, n_steps)
        ext_end = min(commit_end + overlap_steps, n_steps)
        plans.append(WindowPlan(index, start, commit_end, ext_end))
    return tuple(plans)


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
        if sub_placement.planned_grid_import:
            commit = slice(built.plan.start, built.plan.commit_end)
            for name, series in (
                sub_placement.planned_grid_import.items()
            ):
                committed = np.asarray(series, dtype=float)[
                    : built.plan.commit_steps
                ]
                if committed.size:
                    self.grid_import[name][commit] = committed
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
    arrives inside its commit range.

    Batched apps are shifted to the window's clock and truncated to
    its visible horizon (the solver only reasons about what it can
    see); committed load enters through ``caps`` / ``backgrounds``.
    """
    batch = [
        app
        for app in problem.apps
        if plan.start <= app.arrival_step < plan.commit_end
    ]
    if not batch:
        return None
    horizon = plan.steps
    shifted = []
    for app in batch:
        duration = min(
            app.duration_steps, plan.ext_end - app.arrival_step
        )
        shifted.append(
            replace(
                app,
                arrival_step=app.arrival_step - plan.start,
                duration_steps=duration,
            )
        )
    window = slice(plan.start, plan.ext_end)
    sub_sites = []
    caps: dict[str, np.ndarray] = {}
    backgrounds: dict[str, np.ndarray] = {}
    for site in problem.sites:
        if capacity_provider is not None:
            capacity = np.asarray(
                capacity_provider(site.name, plan.start, horizon),
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
        pricing = gp.slice(plan.start, plan.ext_end).with_budgets(
            {
                name: max(
                    budget - state.grid_spent_mwh.get(name, 0.0), 0.0
                )
                for name, budget in gp.budget_mwh.items()
            }
        )
    sub_problem = SchedulingProblem(
        problem.grid.subgrid(plan.start, horizon),
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
# Closed-form placement objective.


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
    stable, _ = placement_load_series(problem, placement)
    bpc_gb = problem.bytes_per_core / 1e9
    total = 0.0
    gp = problem.grid_pricing
    grid_cores: dict[str, np.ndarray] = {}
    if gp is not None and placement.planned_grid_import:
        weight = gp.objective_per_mwh()
        for name, series in placement.planned_grid_import.items():
            mwh = np.asarray(series, dtype=float)
            grid_cores[name] = (
                mwh * gp.cores_per_mw[name] / gp.step_hours
            )
            total += float(mwh @ weight[: len(mwh)])
    for site in problem.sites:
        load = stable[site.name]
        if stable_background is not None:
            load = load + np.asarray(
                stable_background[site.name], dtype=float
            )
        bought = grid_cores.get(site.name)
        if bought is not None:
            load = load - bought
        floor = np.clip(load - site.capacity_cores, 0.0, None)
        u0 = 0.0
        if initial_displacement is not None:
            u0 = float(initial_displacement.get(site.name, 0.0))
        u = np.maximum.accumulate(np.maximum(floor, u0))
        total += ((u[-1] - u0) + epsilon * u.sum()) * bpc_gb
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
# Decomposed solve drivers.


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

    Routes to the windowed or relax-and-fix driver, absorbs any
    :class:`SolverError` into a monolithic fallback when the spec
    allows it, and leaves the aggregate :class:`MIPTimings` (with
    per-window telemetry) on ``scheduler.last_timings``.
    """
    from .mip import MIPTimings

    spec = scheduler.decompose
    with obs.timed_span(
        "mip.schedule",
        n_apps=len(problem.apps),
        n_sites=len(problem.sites),
        n_steps=problem.grid.n,
        decompose=spec.token(),
    ) as span:
        mode = "window" if spec.window_steps is not None else "relax-fix"
        try:
            if spec.window_steps is not None:
                placement, timings = _solve_windowed(
                    scheduler, spec, problem, allocation_cap,
                    stable_background, previous_assignment,
                    switch_weight, initial_displacement,
                )
            else:
                placement, timings = _solve_relax_fix(
                    scheduler, spec, problem, allocation_cap,
                    stable_background, previous_assignment,
                    switch_weight, initial_displacement,
                )
        except SolverError as exc:
            if not spec.fallback:
                raise
            span.set(fallback_reason=str(exc))
            placement = scheduler._schedule_monolithic(
                problem, allocation_cap, stable_background,
                previous_assignment, switch_weight,
                initial_displacement,
            )
            base = scheduler.last_timings
            timings = MIPTimings(
                assembly_s=base.assembly_s,
                solve_s=base.solve_s,
                n_rows=base.n_rows,
                n_cols=base.n_cols,
                nnz=base.nnz,
                objective=base.objective,
                mode=mode,
                dual_bound=base.dual_bound,
                fell_back=True,
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
        gap=timings.gap,
        dual_bound=timings.dual_bound,
    )


def _commit_series(
    built: WindowProblem, sub_placement: Placement, name: str
) -> np.ndarray:
    """The committed slice of one window's planned displacement."""
    series = sub_placement.planned_displacement.get(name)
    if series is None:
        series = np.zeros(built.plan.steps)
    return np.asarray(series, dtype=float)[: built.plan.commit_steps]


def _committed_grid_cost(
    problem: SchedulingProblem,
    built: WindowProblem,
    sub_placement: Placement,
) -> float:
    """$-equivalent cost of one window's committed grid purchases."""
    if (
        problem.grid_pricing is None
        or not sub_placement.planned_grid_import
    ):
        return 0.0
    weight = problem.grid_pricing.objective_per_mwh()[
        built.plan.start : built.plan.commit_end
    ]
    cost = 0.0
    for series in sub_placement.planned_grid_import.values():
        committed = np.asarray(series, dtype=float)[
            : built.plan.commit_steps
        ]
        if committed.size:
            cost += float(committed @ weight[: len(committed)])
    return cost


def _solve_windowed(
    scheduler: "MIPScheduler",
    spec: DecomposeSpec,
    problem: SchedulingProblem,
    allocation_cap: Mapping[str, np.ndarray] | None,
    stable_background: Mapping[str, np.ndarray] | None,
    previous_assignment: Mapping[int, Mapping[str, int]] | None,
    switch_weight: float,
    initial_displacement: Mapping[str, float] | None,
) -> tuple[Placement, "MIPTimings"]:
    from .mip import MIPScheduler, MIPTimings

    n = problem.grid.n
    plans = plan_windows(n, spec.window_steps, spec.overlap_steps)
    state = WindowState(problem, allocation_cap, stable_background)
    bpc_gb = problem.bytes_per_core / 1e9
    eps = scheduler.epsilon
    boundary = {
        site.name: (
            float(initial_displacement.get(site.name, 0.0))
            if initial_displacement is not None
            else 0.0
        )
        for site in problem.sites
    }
    outer_boundary = dict(boundary)
    relax_spec = (
        DecomposeSpec(
            relax_fix=True, max_gap=spec.max_gap, int_tol=spec.int_tol
        )
        if spec.relax_fix
        else None
    )
    windows: list[WindowTiming] = []
    # Sum of per-window committed objective contributions (traffic
    # charged on commit slices with carried boundaries + the epsilon
    # anchor) — the bound the merged placement's closed-form objective
    # is audited against.
    expected = 0.0
    planned_parts = {name: np.zeros(n) for name in problem.site_names}

    inner = MIPScheduler(
        peak_weight=scheduler.peak_weight,
        integer_vms=scheduler.integer_vms,
        time_limit_s=scheduler.time_limit_s,
        mip_rel_gap=scheduler.mip_rel_gap,
        epsilon=scheduler.epsilon,
        decompose=relax_spec,
    )
    for plan in plans:
        built = build_window_problem(problem, plan, state)
        commit = slice(plan.start, plan.commit_end)
        if built is None:
            # No arrivals: the boundary still evolves (committed
            # background can raise the displacement floor), and the
            # monolithic objective charges those steps too.
            for site in problem.sites:
                name = site.name
                floor = np.clip(
                    state.stable_bg[name][commit]
                    - site.capacity_cores[commit],
                    0.0,
                    None,
                )
                useg = np.maximum.accumulate(
                    np.maximum(floor, boundary[name])
                )
                expected += (
                    (useg[-1] - boundary[name]) + eps * useg.sum()
                ) * bpc_gb
                planned_parts[name][commit] = useg
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
            series = _commit_series(built, sub_placement, name)
            if series.size:
                delta = np.diff(series, prepend=boundary[name])
                expected += (
                    np.abs(delta).sum() + eps * series.sum()
                ) * bpc_gb
                planned_parts[name][commit] = series
                boundary[name] = float(series[-1])
        expected += _committed_grid_cost(problem, built, sub_placement)
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
    # The gap audit needs the merged placement to be exactly what the
    # windows charged for: with ``integer_vms=False`` the windows solve
    # LPs whose fractional VM splits are rounded to integers at
    # extraction, so the achieved objective legitimately drifts from
    # the fractional per-window charges (monolithic LP solves round
    # identically) — the invariant only holds for integral solves.
    audit = (
        scheduler.peak_weight == 0
        and previous_assignment is None
        and scheduler.integer_vms
    )
    publish = (
        scheduler.peak_weight == 0 and previous_assignment is None
    )
    if publish:
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
        stable, _ = placement_load_series(problem, merged)
        for site in problem.sites:
            load = stable[site.name]
            if stable_background is not None:
                load = load + np.asarray(
                    stable_background[site.name], dtype=float
                )
            if problem.grid_pricing is not None:
                gp = problem.grid_pricing
                load = load - (
                    merged.planned_grid_import[site.name]
                    * gp.cores_per_mw[site.name]
                    / gp.step_hours
                )
            floor = np.clip(load - site.capacity_cores, 0.0, None)
            merged.planned_displacement[site.name] = (
                np.maximum.accumulate(
                    np.maximum(floor, outer_boundary[site.name])
                )
            )
        tolerance = spec.max_gap * max(expected, GAP_FLOOR_GB) + 1e-9
        if audit and objective > expected + tolerance:
            raise SolverError(
                f"windowed objective {objective:.6f} GB exceeds the"
                f" window-committed bound {expected:.6f} GB beyond"
                f" gap {spec.max_gap}"
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


def _solve_relax_fix(
    scheduler: "MIPScheduler",
    spec: DecomposeSpec,
    problem: SchedulingProblem,
    allocation_cap: Mapping[str, np.ndarray] | None,
    stable_background: Mapping[str, np.ndarray] | None,
    previous_assignment: Mapping[int, Mapping[str, int]] | None,
    switch_weight: float,
    initial_displacement: Mapping[str, float] | None,
) -> tuple[Placement, "MIPTimings"]:
    from .mip import MIPTimings

    with obs.timed_span("mip.assemble") as assemble_span:
        model = scheduler._build_model(
            problem, allocation_cap, stable_background,
            previous_assignment, switch_weight, initial_displacement,
        )
        assemble_span.set(
            n_rows=model.shape[0],
            n_cols=model.shape[1],
            nnz=model.matrix.nnz,
        )
    layout = model.layout
    fell_back = False
    dual_bound = None
    with obs.timed_span("mip.solve", strategy="relax-fix") as solve_span:
        if not model.integrality.any():
            # Already an LP (integer_vms=False): nothing to fix.
            x, status, _ = scheduler._solve_model(model)
            gap = 0.0
            solve_span.set(status=status, gap=gap)
        else:
            lp_x, status, _ = scheduler._solve_model(model, relax=True)
            objective_lp = float(model.c @ lp_x)
            # The LP optimum bounds the full MIP from below, whichever
            # solve below produces the answer.
            dual_bound = objective_lp
            y = lp_x[: layout.o_u]
            rounded = np.round(y)
            near = np.abs(y - rounded) <= spec.int_tol
            lower = model.lower.copy()
            upper = model.upper.copy()
            lower[: layout.o_u][near] = rounded[near]
            upper[: layout.o_u][near] = rounded[near]

            def certified_gap(x: np.ndarray) -> float:
                raw = float(model.c @ x) - objective_lp
                return raw / max(abs(objective_lp), GAP_FLOOR_GB)

            x = None
            try:
                x, status, _ = scheduler._solve_model(
                    model, lower=lower, upper=upper
                )
            except SolverError:
                fell_back = True
            if x is not None and certified_gap(x) > spec.max_gap:
                fell_back = True
            if fell_back:
                x, status, _ = scheduler._solve_model(model)
            gap = certified_gap(x)
            solve_span.set(
                status=status,
                gap=gap,
                dual_bound=dual_bound,
                n_fixed=int(near.sum()),
                n_free=int((~near).sum()),
                fell_back=fell_back,
            )
    timings = MIPTimings(
        assembly_s=assemble_span.wall_s,
        solve_s=solve_span.wall_s,
        n_rows=model.shape[0],
        n_cols=model.shape[1],
        nnz=model.matrix.nnz,
        objective=float(model.c @ x),
        mode="relax-fix",
        gap=gap,
        dual_bound=dual_bound,
        fell_back=fell_back,
    )
    return scheduler._extract(problem, layout, x), timings
