"""Session registry: many concurrent live sessions behind one map.

The HTTP layer is a thin shell over this — every endpoint resolves a
session id here and delegates to the :class:`~repro.serve.session.
SimSession`.  A lock guards the map itself (create / delete / list);
per-session operations rely on each session being driven by one caller
at a time, which the pure-ASGI app guarantees by running handlers to
completion per request.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from ..errors import SessionError, UnknownSessionError
from ..experiments.runner import fleet_sites_for_scenario
from ..experiments.scenario import SCHEMA_VERSION, Scenario
from ..sim.fleet import FleetSite
from .session import SimSession

__all__ = ["SessionRegistry"]


def _fill_scenario_defaults(data: dict) -> dict:
    """Default the optional sections of an API scenario spec.

    ``Scenario.from_dict`` is strict because it round-trips
    ``to_dict`` output; hand-written ``POST /sessions`` specs get the
    dataclass defaults for anything they omit (name / sites / grid
    stay required).
    """
    filled = dict(data)
    filled.setdefault("schema", SCHEMA_VERSION)
    filled.setdefault("workload", {})
    filled.setdefault("forecaster", {})
    filled.setdefault("compute", {})
    filled.setdefault("seed", 0)
    return filled


class SessionRegistry:
    """Creates, stores, and resolves live :class:`SimSession` objects.

    Ids are dense (``s0001``, ``s0002``, ...) so audit logs and tests
    read deterministically; callers may also supply their own id.
    """

    def __init__(self):
        self._sessions: dict[str, SimSession] = {}
        self._lock = threading.Lock()
        self._counter = 0

    # -- id plumbing ---------------------------------------------------

    def _new_id(self) -> str:
        self._counter += 1
        return f"s{self._counter:04d}"

    def _claim(self, session_id: str | None) -> str:
        # A route takes the id as one path segment, so an id that is
        # not a non-empty string without '/' could never be reached
        # (not even to delete it).
        if session_id is not None and (
            not isinstance(session_id, str)
            or not session_id
            or "/" in session_id
        ):
            raise SessionError(
                f"session id must be a non-empty string without '/':"
                f" {session_id!r}"
            )
        with self._lock:
            if session_id is None:
                session_id = self._new_id()
                while session_id in self._sessions:
                    session_id = self._new_id()
            elif session_id in self._sessions:
                raise SessionError(
                    f"session id already in use: {session_id!r}"
                )
            # Reserve the slot under the lock; the caller fills it.
            self._sessions[session_id] = None  # type: ignore[assignment]
            return session_id

    def _install(self, session_id: str, session: SimSession) -> SimSession:
        session.session_id = session_id
        with self._lock:
            self._sessions[session_id] = session
        return session

    def _discard(self, session_id: str) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    # -- lifecycle -----------------------------------------------------

    def create(
        self,
        sites: FleetSite | Sequence[FleetSite],
        *,
        engine: str = "event",
        record_events: bool = True,
        session_id: str | None = None,
        seed: int = 0,
    ) -> SimSession:
        """Register a new session over prepared fleet sites."""
        session_id = self._claim(session_id)
        try:
            session = SimSession(
                sites,
                engine=engine,
                record_events=record_events,
                session_id=session_id,
                seed=seed,
            )
        except BaseException:
            self._discard(session_id)
            raise
        return self._install(session_id, session)

    def create_from_scenario(
        self,
        scenario: Scenario | dict,
        *,
        engine: str = "event",
        record_events: bool = True,
        session_id: str | None = None,
        seed: int = 0,
    ) -> SimSession:
        """Register a session over a scenario's materialized fleet.

        Accepts a :class:`~repro.experiments.Scenario` or its
        ``to_dict`` form (what ``POST /sessions`` receives as JSON);
        sites come from :func:`~repro.experiments.runner.
        fleet_sites_for_scenario` — the exact fleet the batch Runner
        would simulate.
        """
        if isinstance(scenario, dict):
            scenario = Scenario.from_dict(
                _fill_scenario_defaults(scenario)
            )
        return self.create(
            fleet_sites_for_scenario(scenario),
            engine=engine,
            record_events=record_events,
            session_id=session_id,
            seed=seed,
        )

    def restore(
        self, blob: bytes, session_id: str | None = None
    ) -> SimSession:
        """Register a session rebuilt from a checkpoint blob."""
        session_id = self._claim(session_id)
        try:
            session = SimSession.restore(blob, session_id=session_id)
        except BaseException:
            self._discard(session_id)
            raise
        return self._install(session_id, session)

    def fork(
        self, session_id: str, new_id: str | None = None
    ) -> SimSession:
        """Register an independent copy of a live session."""
        parent = self.get(session_id)
        new_id = self._claim(new_id)
        try:
            clone = parent.fork(session_id=new_id)
        except BaseException:
            self._discard(new_id)
            raise
        return self._install(new_id, clone)

    # -- resolution ----------------------------------------------------

    def get(self, session_id: str) -> SimSession:
        """Resolve an id; unknown ids raise :class:`UnknownSessionError`."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"unknown session: {session_id!r}")
        return session

    def delete(self, session_id: str) -> None:
        """Forget a session (its memory goes with it)."""
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise UnknownSessionError(f"unknown session: {session_id!r}")

    def ids(self) -> list[str]:
        with self._lock:
            return [k for k, v in self._sessions.items() if v is not None]

    def __len__(self) -> int:
        return len(self.ids())

    def __iter__(self) -> Iterable[SimSession]:
        with self._lock:
            live = [v for v in self._sessions.values() if v is not None]
        return iter(live)
