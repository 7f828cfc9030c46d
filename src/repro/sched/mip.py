"""Mixed-integer site selection (§3.1 steps 2-3).

Decision variables place each application's VMs across the candidate
sites; the objective is the paper's O1 (total predicted migration
bytes) with an optional O2 term (peak migration bytes).  Migration
bytes come from the displaced-stable-cores model of
:mod:`repro.sched.overhead`, which is linear in the placement:

    minimize  sum_{s,t} (d+[s,t] + d-[s,t]) * bpc            (O1)
            + peak_weight * M                                 (O2)
            + epsilon * sum u[s,t]                            (anchor)

    s.t.  sum_s y[a,s] = vm_count_a                           (place all)
          u[s,t] >= stable_load(y, s, t) - capacity[s,t]      (displace)
          d+[s,t] - d-[s,t] = u[s,t] - u[s,t-1]               (traffic)
          total_load(y, s, t) <= allocation_cap[s,t]          (capacity)
          M >= (d+[s,t] + d-[s,t]) * bpc                      (peak, O2)

The epsilon anchor keeps ``u`` finite without distorting O1.  Note
that the optimal ``u`` is *not* the pointwise displacement floor:
migrating VMs back costs a full ``bpc`` per core while holding them
displaced costs only ``epsilon`` per step, so with ``peak_weight == 0``
the optimal plan holds ``u`` at the *running maximum* of the floor
(displaced VMs never migrate back inside the horizon).  The peak
objective can additionally make it profitable to raise ``u`` early —
the paper's observation that MIP-peak "migrates VMs preemptively,
spreading out migrations over time".  Solved with HiGHS via
:func:`scipy.optimize.milp`.

Instances too large for one monolithic solve go through
:mod:`repro.sched.decompose` (``MIPScheduler(decompose="window:24")``):
a chain of temporal windows with the boundary ``u[s,t]`` carried
across seams.  The seam state enters the model here as
``initial_displacement`` — the C3 traffic row at ``t == 0`` becomes
``d+ - d- - u[s,0] = -u_prev[s]``, so a window is charged only for
displacement *changes* relative to its predecessor.

Constraint assembly is vectorized: every constraint family (C1-C6)
contributes numpy row/col/val blocks built with broadcasting, and one
COO→CSR conversion produces the matrix.  The per-coefficient loop
implementation is kept as :func:`_assemble_reference` — both builders
produce structurally identical matrices (no duplicate entries, so the
canonical CSR forms coincide; enforced by the golden assembly tests),
which makes scaling to hundreds of sites an assembly-time change only,
with identical solver input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .. import obs
from ..errors import SolverError
from .problem import Placement, SchedulingProblem


@dataclass(frozen=True)
class _Layout:
    """Flat variable layout of one MIP instance."""

    n_apps: int
    n_sites: int
    n_steps: int
    peak: bool
    reassign: bool = False
    grid: bool = False

    @property
    def o_u(self) -> int:
        return self.n_apps * self.n_sites

    @property
    def o_dp(self) -> int:
        return self.o_u + self.n_sites * self.n_steps

    @property
    def o_dn(self) -> int:
        return self.o_dp + self.n_sites * self.n_steps

    @property
    def o_m(self) -> int:
        return self.o_dn + self.n_sites * self.n_steps

    @property
    def o_mp(self) -> int:
        """Reassignment move-in variables (replanning only)."""
        return self.o_m + (1 if self.peak else 0)

    @property
    def o_g(self) -> int:
        """Grid-import variables (priced problems only)."""
        base = self.o_mp
        if self.reassign:
            base += 2 * self.n_apps * self.n_sites
        return base

    @property
    def n_vars(self) -> int:
        base = self.o_g
        if self.grid:
            base += self.n_sites * self.n_steps
        return base

    def y(self, a: int, s: int) -> int:
        return a * self.n_sites + s

    def u(self, s: int, t: int) -> int:
        return self.o_u + s * self.n_steps + t

    def dp(self, s: int, t: int) -> int:
        return self.o_dp + s * self.n_steps + t

    def dn(self, s: int, t: int) -> int:
        return self.o_dn + s * self.n_steps + t

    def mp(self, a: int, s: int) -> int:
        return self.o_mp + a * self.n_sites + s

    def mn(self, a: int, s: int) -> int:
        return self.o_mp + self.n_apps * self.n_sites + (
            a * self.n_sites + s
        )

    def g(self, s: int, t: int) -> int:
        return self.o_g + s * self.n_steps + t


@dataclass(frozen=True)
class WindowTiming:
    """Telemetry for one decomposition window.

    ``dual_bound`` is the window solve's proven lower bound (see
    :class:`MIPTimings`).
    """

    index: int
    start: int
    steps: int
    n_apps: int
    assembly_s: float
    solve_s: float
    n_rows: int
    n_cols: int
    nnz: int
    objective: float | None = None
    dual_bound: float | None = None


@dataclass(frozen=True)
class MIPTimings:
    """Assembly/solve split of the last :meth:`MIPScheduler.schedule`.

    ``dual_bound`` is a proven lower bound on the optimum of the solved
    model, so ``objective - dual_bound`` is how far the solve may sit
    from optimal: HiGHS's MIP dual bound for integer solves, and
    ``None`` for LP solves (``integer_vms=False``) and for windowed
    solves as a whole (each :class:`WindowTiming` carries its own).

    For windowed solves (``MIPScheduler(decompose="window:N")``):

    - ``mode`` is ``"window"`` (``"monolithic"`` otherwise);
      ``windows`` holds one :class:`WindowTiming` per solved window,
      and the top-level ``assembly_s`` / ``solve_s`` / ``n_rows`` /
      ``n_cols`` / ``nnz`` are sums over the windows.
    - ``objective`` is the O1(+anchor) value of the returned placement
      (the solver objective for monolithic solves).
    - ``fell_back`` flags that the windowed solve gave up and the
      result came from a full monolithic solve.
    """

    assembly_s: float
    solve_s: float
    n_rows: int
    n_cols: int
    nnz: int
    objective: float | None = None
    mode: str = "monolithic"
    dual_bound: float | None = None
    fell_back: bool = False
    windows: tuple[WindowTiming, ...] = ()


def _active_mask(problem: SchedulingProblem) -> np.ndarray:
    """(n_apps, n_steps) bool: app ``a`` runs during step ``t``."""
    n_steps = problem.grid.n
    arrivals = np.array(
        [app.arrival_step for app in problem.apps], dtype=np.int64
    )
    ends = np.array([app.end_step for app in problem.apps], dtype=np.int64)
    t = np.arange(n_steps)
    return (t >= arrivals[:, None]) & (t < ends[:, None])


def _capacity_matrix(problem: SchedulingProblem) -> np.ndarray:
    """(n_sites, n_steps) float: forecast capacity per site per step."""
    return np.stack(
        [
            np.asarray(site.capacity_cores, dtype=float)
            for site in problem.sites
        ]
    )


def _allocation_cap_matrix(
    problem: SchedulingProblem,
    allocation_cap: Mapping[str, np.ndarray] | None,
) -> np.ndarray:
    """(n_sites, n_steps) float: allocated-core cap per site per step."""
    n_steps = problem.grid.n
    caps = np.empty((len(problem.sites), n_steps))
    for s, site in enumerate(problem.sites):
        if allocation_cap is not None:
            caps[s] = np.asarray(allocation_cap[site.name], dtype=float)
        else:
            caps[s] = problem.utilization_cap * site.total_cores
    return caps


def _boundary_displacement(
    problem: SchedulingProblem,
    initial_displacement: Mapping[str, float] | None,
) -> np.ndarray:
    """(n_sites,) float: displacement carried in from before step 0."""
    u0 = np.zeros(len(problem.sites))
    if initial_displacement is not None:
        for s, site in enumerate(problem.sites):
            value = float(initial_displacement.get(site.name, 0.0))
            if value < 0:
                raise SolverError(
                    f"initial displacement for {site.name} must be"
                    f" >= 0: {value}"
                )
            u0[s] = value
    return u0


def _assemble(
    problem: SchedulingProblem,
    layout: _Layout,
    allocation_cap: Mapping[str, np.ndarray] | None,
    stable_background: Mapping[str, np.ndarray] | None,
    previous_assignment: Mapping[int, Mapping[str, int]] | None,
    initial_displacement: Mapping[str, float] | None = None,
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Vectorized constraint assembly.

    Builds numpy row/col/val blocks per constraint family and converts
    once; row numbering matches :func:`_assemble_reference` exactly, and
    no (row, col) pair is emitted twice, so the canonical CSR forms of
    the two builders are identical.

    ``initial_displacement`` is the decomposition seam state: the C3
    row at ``t == 0`` becomes ``d+ - d- - u[s,0] = -u_prev[s]``, so
    step 0 is charged only for the displacement *change* relative to
    the carried-in boundary value.
    """
    apps = problem.apps
    sites = problem.sites
    A, S, T = layout.n_apps, layout.n_sites, layout.n_steps
    ST = S * T

    active = _active_mask(problem)
    stable_cpv = np.array(
        [app.vm_type.cores * app.stable_fraction for app in apps]
    )
    total_cpv = np.array([float(app.vm_type.cores) for app in apps])
    vm_counts = np.array([float(app.vm_count) for app in apps])
    s_idx = np.arange(S, dtype=np.int64)
    st_idx = np.arange(ST, dtype=np.int64)
    bpc_gb = problem.bytes_per_core / 1e9

    row_blocks: list[np.ndarray] = []
    col_blocks: list[np.ndarray] = []
    val_blocks: list[np.ndarray] = []
    lb_blocks: list[np.ndarray] = []
    ub_blocks: list[np.ndarray] = []

    def emit(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        row_blocks.append(np.asarray(rows, dtype=np.int64))
        col_blocks.append(np.asarray(cols, dtype=np.int64))
        val_blocks.append(np.asarray(vals, dtype=float))

    # (C1) every app fully placed: rows [0, A).
    emit(
        np.repeat(np.arange(A, dtype=np.int64), S),
        np.arange(A * S, dtype=np.int64),
        np.ones(A * S),
    )
    lb_blocks.append(vm_counts)
    ub_blocks.append(vm_counts)

    # (C2) displacement lower bound: rows [A, A + S*T), row A + s*T + t.
    # With grid pricing, bought cores g[s,t] relax the bound one for
    # one: u + g - stable_load >= -capacity + background.
    r2 = A
    emit(r2 + st_idx, layout.o_u + st_idx, np.ones(ST))
    if layout.grid:
        emit(r2 + st_idx, layout.o_g + st_idx, np.ones(ST))
    a2, t2 = np.nonzero(active & (stable_cpv > 0)[:, None])
    if a2.size:
        emit(
            (r2 + s_idx[:, None] * T + t2[None, :]).ravel(),
            (a2[None, :] * S + s_idx[:, None]).ravel(),
            np.tile(-stable_cpv[a2], S),
        )
    capacity = _capacity_matrix(problem)
    background = np.zeros((S, T))
    if stable_background is not None:
        for s, site in enumerate(sites):
            background[s] = np.asarray(
                stable_background[site.name], dtype=float
            )
    lb_blocks.append((-capacity + background).ravel())
    ub_blocks.append(np.full(ST, np.inf))

    # (C3) traffic decomposition: rows [A + S*T, A + 2*S*T).
    r3 = A + ST
    emit(r3 + st_idx, layout.o_dp + st_idx, np.ones(ST))
    emit(r3 + st_idx, layout.o_dn + st_idx, -np.ones(ST))
    emit(r3 + st_idx, layout.o_u + st_idx, -np.ones(ST))
    has_prev = (st_idx % T) != 0
    prev_idx = st_idx[has_prev]
    emit(
        r3 + prev_idx, layout.o_u + prev_idx - 1, np.ones(prev_idx.size)
    )
    bound3 = np.zeros(ST)
    bound3[s_idx * T] = -_boundary_displacement(
        problem, initial_displacement
    )
    lb_blocks.append(bound3)
    ub_blocks.append(bound3.copy())

    # (C4) allocated cores within the cap: one row per site per step
    # with at least one active app (rank maps step -> row offset).
    r4 = A + 2 * ST
    t_active = np.flatnonzero(active.any(axis=0))
    n_act = t_active.size
    if n_act:
        rank = np.empty(T, dtype=np.int64)
        rank[t_active] = np.arange(n_act, dtype=np.int64)
        a4, t4 = np.nonzero(active)
        emit(
            (r4 + s_idx[:, None] * n_act + rank[t4][None, :]).ravel(),
            (a4[None, :] * S + s_idx[:, None]).ravel(),
            np.tile(total_cpv[a4], S),
        )
        caps = _allocation_cap_matrix(problem, allocation_cap)
        lb_blocks.append(np.full(S * n_act, -np.inf))
        ub_blocks.append(caps[:, t_active].ravel())
    r5 = r4 + S * n_act

    # (C5) peak bound: rows [r5, r5 + S*T) when the O2 term is on.
    if layout.peak:
        emit(r5 + st_idx, layout.o_dp + st_idx, np.full(ST, bpc_gb))
        emit(r5 + st_idx, layout.o_dn + st_idx, np.full(ST, bpc_gb))
        emit(
            r5 + st_idx,
            np.full(ST, layout.o_m, dtype=np.int64),
            -np.ones(ST),
        )
        lb_blocks.append(np.full(ST, -np.inf))
        ub_blocks.append(np.zeros(ST))
    r6 = r5 + (ST if layout.peak else 0)

    # (C6) reassignment decomposition: rows [r6, r6 + A*S).
    if layout.reassign:
        as_idx = np.arange(A * S, dtype=np.int64)
        emit(r6 + as_idx, as_idx, np.ones(A * S))
        emit(r6 + as_idx, layout.o_mp + as_idx, -np.ones(A * S))
        emit(r6 + as_idx, layout.o_mp + A * S + as_idx, np.ones(A * S))
        prev_arr = np.zeros((A, S))
        for a, app in enumerate(apps):
            prev = previous_assignment.get(app.app_id, {})
            if prev:
                for s, site in enumerate(sites):
                    prev_arr[a, s] = float(prev.get(site.name, 0))
        lb_blocks.append(prev_arr.ravel())
        ub_blocks.append(prev_arr.ravel())
    r7 = r6 + (A * S if layout.reassign else 0)

    # (C7) per-site grid energy budget: rows [r7, r7 + S), one per
    # site — sum_t g[s,t] * step_hours / cores_per_mw[s] <= budget.
    if layout.grid:
        gp = problem.grid_pricing
        mwh_per_core = np.array(
            [gp.step_hours / gp.cores_per_mw[site.name] for site in sites]
        )
        emit(
            np.repeat(r7 + s_idx, T),
            layout.o_g + st_idx,
            np.repeat(mwh_per_core, T),
        )
        lb_blocks.append(np.full(S, -np.inf))
        ub_blocks.append(
            np.array([gp.budget_mwh[site.name] for site in sites])
        )
    n_rows = r7 + (S if layout.grid else 0)

    matrix = sparse.csr_matrix(
        (
            np.concatenate(val_blocks),
            (np.concatenate(row_blocks), np.concatenate(col_blocks)),
        ),
        shape=(n_rows, layout.n_vars),
    )
    return matrix, np.concatenate(lb_blocks), np.concatenate(ub_blocks)


def _assemble_reference(
    problem: SchedulingProblem,
    layout: _Layout,
    allocation_cap: Mapping[str, np.ndarray] | None,
    stable_background: Mapping[str, np.ndarray] | None,
    previous_assignment: Mapping[int, Mapping[str, int]] | None,
    initial_displacement: Mapping[str, float] | None = None,
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Per-coefficient loop assembly (the original implementation).

    Kept as the oracle for the vectorized builder: the golden tests
    assert both produce identical CSR matrices and bounds.
    """
    apps = problem.apps
    sites = problem.sites
    n_steps = layout.n_steps
    bpc_gb = problem.bytes_per_core / 1e9

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    row = 0

    def add_entry(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # (C1) every app fully placed.
    for a, app in enumerate(apps):
        for s in range(len(sites)):
            add_entry(row, layout.y(a, s), 1.0)
        lb.append(float(app.vm_count))
        ub.append(float(app.vm_count))
        row += 1

    # Active app lists per step (shared by C2 and C4).
    active_at: list[list[int]] = [[] for _ in range(n_steps)]
    for a, app in enumerate(apps):
        for t in range(app.arrival_step, app.end_step):
            active_at[t].append(a)

    stable_cpv = [
        app.vm_type.cores * app.stable_fraction for app in apps
    ]
    total_cpv = [float(app.vm_type.cores) for app in apps]

    # (C2) displacement lower bound:
    #   u[s,t] - sum_a stable_cpv*y[a,s] >= -capacity + background.
    for s, site in enumerate(sites):
        background = None
        if stable_background is not None:
            background = np.asarray(stable_background[site.name])
        for t in range(n_steps):
            add_entry(row, layout.u(s, t), 1.0)
            if layout.grid:
                add_entry(row, layout.g(s, t), 1.0)
            for a in active_at[t]:
                if stable_cpv[a] > 0:
                    add_entry(row, layout.y(a, s), -stable_cpv[a])
            bound = -float(site.capacity_cores[t])
            if background is not None:
                bound += float(background[t])
            lb.append(bound)
            ub.append(np.inf)
            row += 1

    # (C3) traffic decomposition: dp - dn - u_t + u_{t-1} = 0, with
    # the t == 0 row equal to -u_prev when a boundary is carried in.
    u0 = _boundary_displacement(problem, initial_displacement)
    for s in range(len(sites)):
        for t in range(n_steps):
            add_entry(row, layout.dp(s, t), 1.0)
            add_entry(row, layout.dn(s, t), -1.0)
            add_entry(row, layout.u(s, t), -1.0)
            if t > 0:
                add_entry(row, layout.u(s, t - 1), 1.0)
            bound = -float(u0[s]) if t == 0 else 0.0
            lb.append(bound)
            ub.append(bound)
            row += 1

    # (C4) allocated cores within the cap.
    for s, site in enumerate(sites):
        if allocation_cap is not None:
            caps = np.asarray(allocation_cap[site.name], dtype=float)
        else:
            caps = np.full(
                n_steps, problem.utilization_cap * site.total_cores
            )
        for t in range(n_steps):
            if not active_at[t]:
                continue
            for a in active_at[t]:
                add_entry(row, layout.y(a, s), total_cpv[a])
            lb.append(-np.inf)
            ub.append(float(caps[t]))
            row += 1

    # (C5) peak bound.
    if layout.peak:
        for s in range(len(sites)):
            for t in range(n_steps):
                add_entry(row, layout.dp(s, t), bpc_gb)
                add_entry(row, layout.dn(s, t), bpc_gb)
                add_entry(row, layout.o_m, -1.0)
                lb.append(-np.inf)
                ub.append(0.0)
                row += 1

    # (C6) reassignment decomposition for replanning:
    #   y[a,s] - m+[a,s] + m-[a,s] = prev[a,s].
    if layout.reassign:
        names = [site.name for site in sites]
        for a, app in enumerate(apps):
            prev = previous_assignment.get(app.app_id, {})
            for s, name in enumerate(names):
                add_entry(row, layout.y(a, s), 1.0)
                add_entry(row, layout.mp(a, s), -1.0)
                add_entry(row, layout.mn(a, s), 1.0)
                previous = float(prev.get(name, 0))
                lb.append(previous)
                ub.append(previous)
                row += 1

    # (C7) per-site grid energy budget.
    if layout.grid:
        gp = problem.grid_pricing
        for s, site in enumerate(sites):
            mwh_per_core = gp.step_hours / gp.cores_per_mw[site.name]
            for t in range(n_steps):
                add_entry(row, layout.g(s, t), mwh_per_core)
            lb.append(-np.inf)
            ub.append(float(gp.budget_mwh[site.name]))
            row += 1

    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row, layout.n_vars)
    )
    return matrix, np.array(lb), np.array(ub)


@dataclass
class _Model:
    """One assembled MIP instance: matrix, bounds, objective, types."""

    layout: _Layout
    matrix: sparse.csr_matrix
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


class MIPScheduler:
    """O1 (total) site selection, with optional O2 (peak) term.

    Args:
        peak_weight: Weight of the peak-overhead objective O2.  Zero
            gives the paper's *MIP*; a positive weight gives *MIP-peak*.
        integer_vms: Solve VM counts as integers (True, default) or
            relax to continuous and round (faster, near-identical
            results at the paper's scales).
        time_limit_s: HiGHS wall-clock limit; a feasible incumbent is
            accepted when the limit strikes.
        mip_rel_gap: Relative optimality gap at which HiGHS may stop.
        epsilon: Anchor weight keeping u finite (see module docstring).
        decompose: Optional decomposition for large instances: a
            :class:`~repro.sched.decompose.DecomposeSpec` or its
            string form ``"window:N"`` (e.g. ``"window:24"``, see
            :meth:`DecomposeSpec.parse`).  ``None`` (default) solves
            monolithically.

    After each :meth:`schedule` call, :attr:`last_timings` holds the
    assembly/solve wall-clock split (:class:`MIPTimings`).
    """

    def __init__(
        self,
        peak_weight: float = 0.0,
        integer_vms: bool = True,
        time_limit_s: float = 120.0,
        mip_rel_gap: float = 1e-3,
        epsilon: float = 1e-6,
        decompose: "DecomposeSpec | str | None" = None,
    ):
        if peak_weight < 0:
            raise SolverError(f"peak weight must be >= 0: {peak_weight}")
        if time_limit_s <= 0:
            raise SolverError(f"time limit must be positive: {time_limit_s}")
        self.peak_weight = peak_weight
        self.integer_vms = integer_vms
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap
        self.epsilon = epsilon
        if isinstance(decompose, str):
            from .decompose import DecomposeSpec

            decompose = DecomposeSpec.parse(decompose)
        self.decompose = decompose
        self.last_timings: MIPTimings | None = None

    # ------------------------------------------------------------------

    def schedule(
        self,
        problem: SchedulingProblem,
        allocation_cap: Mapping[str, np.ndarray] | None = None,
        stable_background: Mapping[str, np.ndarray] | None = None,
        previous_assignment: Mapping[int, Mapping[str, int]]
        | None = None,
        switch_weight: float = 1.0,
        initial_displacement: Mapping[str, float] | None = None,
    ) -> Placement:
        """Solve the site-selection MIP.

        Args:
            problem: Sites (with forecast capacity), apps, bytes/core.
            allocation_cap: Optional per-site *per-step* allocated-core
                caps (defaults to ``utilization_cap * total_cores``);
                used by the rolling scheduler to reserve already-placed
                load.
            stable_background: Optional per-site stable-core load
                already committed by earlier solves; shifts the
                displacement bound.
            previous_assignment: Optional prior placement (app id ->
                site -> VM count) for *replanning* — the paper's "as
                the environment changes ... we need to rerun the
                optimization".  Moving a VM away from its previous site
                costs its memory once, weighted by ``switch_weight``,
                so re-solves only shuffle placements when the predicted
                migration savings exceed the cost of moving.
            switch_weight: Relative weight of reassignment traffic in
                the objective (1.0 = a planned move costs the same as a
                forced migration of the same VM).
            initial_displacement: Optional per-site displaced-core
                count carried in from before step 0 (the decomposition
                seam state); step 0 is then charged only for the
                *change* relative to it.

        Returns:
            A complete placement with the planned per-site displacement
            series attached (used for preemptive execution).
        """
        if switch_weight < 0:
            raise SolverError(
                f"switch weight must be >= 0: {switch_weight}"
            )
        if self.decompose is not None:
            from .decompose import solve_decomposed

            return solve_decomposed(
                self,
                problem,
                allocation_cap=allocation_cap,
                stable_background=stable_background,
                previous_assignment=previous_assignment,
                switch_weight=switch_weight,
                initial_displacement=initial_displacement,
            )
        with obs.timed_span(
            "mip.schedule",
            n_apps=len(problem.apps),
            n_sites=len(problem.sites),
            n_steps=problem.grid.n,
        ):
            return self._schedule_monolithic(
                problem,
                allocation_cap,
                stable_background,
                previous_assignment,
                switch_weight,
                initial_displacement,
            )

    def _schedule_monolithic(
        self,
        problem: SchedulingProblem,
        allocation_cap: Mapping[str, np.ndarray] | None = None,
        stable_background: Mapping[str, np.ndarray] | None = None,
        previous_assignment: Mapping[int, Mapping[str, int]]
        | None = None,
        switch_weight: float = 1.0,
        initial_displacement: Mapping[str, float] | None = None,
    ) -> Placement:
        """One assemble + solve + extract round (no decomposition)."""
        with obs.timed_span("mip.assemble") as assemble_span:
            model = self._build_model(
                problem,
                allocation_cap,
                stable_background,
                previous_assignment,
                switch_weight,
                initial_displacement,
            )
            assemble_span.set(
                n_rows=model.shape[0],
                n_cols=model.shape[1],
                nnz=model.matrix.nnz,
            )

        with obs.timed_span("mip.solve") as solve_span:
            try:
                x, status, dual_bound = self._solve_model(model)
            except SolverError:
                self.last_timings = MIPTimings(
                    assembly_s=assemble_span.wall_s,
                    solve_s=solve_span.wall_s,
                    n_rows=model.shape[0],
                    n_cols=model.shape[1],
                    nnz=model.matrix.nnz,
                )
                raise
            solve_span.set(status=status, dual_bound=dual_bound)
        self.last_timings = MIPTimings(
            assembly_s=assemble_span.wall_s,
            solve_s=solve_span.wall_s,
            n_rows=model.shape[0],
            n_cols=model.shape[1],
            nnz=model.matrix.nnz,
            objective=float(model.c @ x),
            dual_bound=dual_bound,
        )
        return self._extract(problem, model.layout, x)

    def _build_model(
        self,
        problem: SchedulingProblem,
        allocation_cap: Mapping[str, np.ndarray] | None = None,
        stable_background: Mapping[str, np.ndarray] | None = None,
        previous_assignment: Mapping[int, Mapping[str, int]]
        | None = None,
        switch_weight: float = 1.0,
        initial_displacement: Mapping[str, float] | None = None,
    ) -> _Model:
        """Assemble constraints, objective, bounds, and integrality."""
        apps = problem.apps
        sites = problem.sites
        n_steps = problem.grid.n
        layout = _Layout(
            len(apps),
            len(sites),
            n_steps,
            self.peak_weight > 0,
            reassign=previous_assignment is not None,
            grid=problem.grid_pricing is not None,
        )
        bpc_gb = problem.bytes_per_core / 1e9

        matrix, lb, ub = _assemble(
            problem, layout, allocation_cap, stable_background,
            previous_assignment, initial_displacement,
        )

        # Objective.
        c = np.zeros(layout.n_vars)
        c[layout.o_dp : layout.o_dn] = bpc_gb
        c[layout.o_dn : layout.o_dn + len(sites) * n_steps] = bpc_gb
        c[layout.o_u : layout.o_dp] = self.epsilon * bpc_gb
        if layout.peak:
            c[layout.o_m] = self.peak_weight
        if layout.reassign:
            # Moving a VM into a site it wasn't at costs its memory
            # once (m+ counts arrivals; counting one side avoids
            # double-charging the same move).
            move_gb = np.array(
                [app.vm_type.memory_bytes / 1e9 for app in apps]
            )
            n_pairs = layout.n_apps * layout.n_sites
            c[layout.o_mp : layout.o_mp + n_pairs] = (
                switch_weight * np.repeat(move_gb, len(sites))
            )
        if layout.grid:
            # Each bought core-step costs its energy at the spot price
            # plus carbon_weight dollars per kg emitted.
            gp = problem.grid_pricing
            weight_mwh = gp.objective_per_mwh()
            mwh_per_core = np.array(
                [
                    gp.step_hours / gp.cores_per_mw[site.name]
                    for site in sites
                ]
            )
            c[layout.o_g : layout.n_vars] = (
                mwh_per_core[:, None] * weight_mwh[None, :]
            ).ravel()

        # Bounds and integrality.
        lower = np.zeros(layout.n_vars)
        upper = np.full(layout.n_vars, np.inf)
        upper[: layout.o_u] = np.repeat(
            np.array([float(app.vm_count) for app in apps]),
            len(sites),
        )
        if layout.grid:
            # g stays continuous; cap it at the import power limit.
            upper[layout.o_g : layout.n_vars] = np.repeat(
                np.array(
                    [
                        problem.grid_pricing.site_power_cap_cores(
                            site.name
                        )
                        for site in sites
                    ]
                ),
                n_steps,
            )
        integrality = np.zeros(layout.n_vars)
        if self.integer_vms:
            integrality[: layout.o_u] = 1
        return _Model(
            layout, matrix, lb, ub, c, lower, upper, integrality
        )

    def _solve_model(
        self, model: _Model
    ) -> tuple[np.ndarray, int, float | None]:
        """Solve one assembled model; return ``(x, status, dual_bound)``.

        ``dual_bound`` is HiGHS's MIP dual bound (``None`` for an LP).

        Raises:
            SolverError: when no feasible solution was produced; carries
                the solver status and the problem shape.
        """
        result = milp(
            model.c,
            constraints=LinearConstraint(model.matrix, model.lb, model.ub),
            integrality=model.integrality,
            bounds=Bounds(model.lower, model.upper),
            options={
                "time_limit": self.time_limit_s,
                "mip_rel_gap": self.mip_rel_gap,
            },
        )
        status = int(result.status)
        if result.x is None:
            raise SolverError(
                f"MIP failed: {result.message}",
                status=status,
                shape=model.shape,
            )
        dual_bound = result.get("mip_dual_bound")
        return (
            np.asarray(result.x, dtype=float),
            status,
            None if dual_bound is None else float(dual_bound),
        )

    def _extract(
        self, problem: SchedulingProblem, layout: _Layout, x: np.ndarray
    ) -> Placement:
        """Turn a solution vector into a validated Placement."""
        assignment: dict[int, dict[str, int]] = {}
        names = problem.site_names
        S = layout.n_sites
        T = layout.n_steps
        for a, app in enumerate(problem.apps):
            raw = x[a * S : (a + 1) * S]
            counts = _round_preserving_sum(raw, app.vm_count)
            assignment[app.app_id] = {
                name: int(count)
                for name, count in zip(names, counts)
                if count > 0
            }
        planned: dict[str, np.ndarray] = {}
        for s, name in enumerate(names):
            series = x[layout.o_u + s * T : layout.o_u + (s + 1) * T]
            planned[name] = np.clip(series, 0.0, None)
        imports: dict[str, np.ndarray] = {}
        if layout.grid:
            gp = problem.grid_pricing
            for s, name in enumerate(names):
                cores = np.clip(
                    x[layout.o_g + s * T : layout.o_g + (s + 1) * T],
                    0.0,
                    None,
                )
                imports[name] = (
                    cores * gp.step_hours / gp.cores_per_mw[name]
                )
        placement = Placement(
            assignment,
            planned,
            preemptive=self.peak_weight > 0,
            planned_grid_import=imports,
        )
        placement.validate_complete(problem)
        return placement


def _round_preserving_sum(raw: np.ndarray, target: int) -> np.ndarray:
    """Round non-negative floats to integers summing exactly to target.

    Floors everything, then hands out the remaining units to the
    largest fractional parts (largest-remainder rounding).  Needed both
    for relaxed solves and to clean up solver tolerance noise.
    """
    raw = np.clip(np.asarray(raw, dtype=float), 0.0, None)
    floors = np.floor(raw + 1e-9).astype(int)
    remainder = int(target - floors.sum())
    if remainder < 0:
        # Solver noise pushed a floor too high; trim from smallest
        # fractional parts.
        order = np.argsort(raw - floors)
        for index in order:
            if remainder == 0:
                break
            take = min(floors[index], -remainder)
            floors[index] -= take
            remainder += take
    elif remainder > 0:
        order = np.argsort(-(raw - floors))
        for index in order[:remainder]:
            floors[index] += 1
        remainder = 0
    return floors


class RollingMIPScheduler:
    """The paper's *MIP-24h*: re-solve O1 daily with fresh forecasts.

    Each day, the apps arriving that day are placed by a MIP whose
    horizon is the next ``window_steps`` and whose capacity comes from
    a forecast issued that morning; earlier placements are frozen and
    enter as background load.

    Args:
        window_steps: Lookahead horizon per solve (one day in paper).
        capacity_provider: Optional callable
            ``(site_name, issue_step, horizon) -> cores array`` giving
            refreshed forecasts; defaults to slicing the problem's own
            capacity series.
        **mip_kwargs: Passed to the per-day :class:`MIPScheduler`.
    """

    def __init__(
        self,
        window_steps: int,
        capacity_provider: Callable[[str, int, int], np.ndarray]
        | None = None,
        **mip_kwargs,
    ):
        if window_steps <= 0:
            raise SolverError(
                f"window must be positive: {window_steps}"
            )
        self.window_steps = window_steps
        self.capacity_provider = capacity_provider
        self.mip_kwargs = mip_kwargs
        #: Per-chunk :class:`MIPTimings` from the last :meth:`schedule`
        #: call, in chunk order (chunks with no arrivals are skipped).
        self.last_chunk_timings: tuple[MIPTimings, ...] = ()

    def schedule(self, problem: SchedulingProblem) -> Placement:
        """Run the rolling solves and merge the placements.

        Note the seam semantics (pinned by the seam tests): committed
        placements carry across chunks as stable/total *background*,
        but the displacement state ``u`` does **not** — every chunk
        starts from ``u = 0`` and re-charges any displacement inherited
        from its predecessor at its first step.  The decomposition
        layer (:mod:`repro.sched.decompose`) carries the boundary ``u``
        instead, so its per-window charges add up to the merged
        placement's objective; this class keeps the paper's plain
        re-solve-daily semantics.
        """
        from .decompose import WindowState, build_window_problem, plan_windows

        state = WindowState(problem)
        solver = MIPScheduler(**self.mip_kwargs)
        chunk_timings: list[MIPTimings] = []
        for plan in plan_windows(problem.grid.n, self.window_steps):
            built = build_window_problem(
                problem, plan, state,
                capacity_provider=self.capacity_provider,
            )
            if built is None:
                continue
            sub_placement = solver.schedule(
                built.problem,
                allocation_cap=built.caps,
                stable_background=built.backgrounds,
            )
            if solver.last_timings is not None:
                chunk_timings.append(solver.last_timings)
            state.commit(built, sub_placement)
        self.last_chunk_timings = tuple(chunk_timings)
        placement = Placement(
            dict(state.assignment),
            planned_grid_import=(
                {
                    name: series.copy()
                    for name, series in state.grid_import.items()
                }
                if problem.grid_pricing is not None
                else {}
            ),
        )
        placement.validate_complete(problem)
        return placement
