"""Exception hierarchy for the repro (Virtual Battery) library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Subclasses are kept
deliberately flat: one class per failure domain, not per failure site.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TimeGridError(ReproError):
    """A time-grid operation was invalid (mismatched grids, bad bounds)."""


class TraceError(ReproError):
    """A power trace was malformed or used inconsistently."""


class ForecastError(ReproError):
    """A forecast was requested or constructed with invalid parameters."""


class CapacityError(ReproError):
    """A resource request exceeded available capacity."""


class AllocationError(ReproError):
    """VM placement onto a server failed or was inconsistent."""


class SchedulingError(ReproError):
    """The co-scheduler could not produce a valid assignment."""


class SolverError(SchedulingError):
    """The MIP/LP solver failed or returned an infeasible status.

    Carries enough structured context to diagnose a failure from logs
    alone, which matters once solves are decomposed into windows:

    Attributes:
        status: The solver's status code (``scipy.optimize.milp``
            status int), when known.
        window: Index of the decomposition window that failed, when the
            failure happened inside a windowed solve.
        shape: ``(n_rows, n_cols)`` of the constraint matrix that was
            being solved, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int | str | None = None,
        window: int | None = None,
        shape: tuple[int, int] | None = None,
    ):
        parts = [message]
        if status is not None:
            parts.append(f"status={status}")
        if window is not None:
            parts.append(f"window={window}")
        if shape is not None:
            parts.append(f"shape={shape[0]}x{shape[1]}")
        composed = message
        if len(parts) > 1:
            composed = f"{parts[0]} [{', '.join(parts[1:])}]"
        super().__init__(composed)
        self.message = message
        self.status = status
        self.window = window
        self.shape = shape

    def __reduce__(self):
        # Keyword-only context would be lost by the default exception
        # pickling (used when a scenario's solve fails inside a process
        # worker of run_scenarios), so rebuild through a helper.
        return (
            _rebuild_solver_error,
            (self.message, self.status, self.window, self.shape),
        )


def _rebuild_solver_error(message, status, window, shape):
    return SolverError(
        message, status=status, window=window, shape=shape
    )


class ConfigurationError(ReproError):
    """A simulation or model was configured with invalid parameters."""


class SessionError(ReproError):
    """A live simulation session was used invalidly (bad tick, bad
    checkpoint blob, unknown session id, malformed injection)."""


class UnknownSessionError(SessionError):
    """A session id names no live session (the API's 404)."""
