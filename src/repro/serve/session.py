"""Checkpointable, resumable simulation sessions.

A :class:`SimSession` is the engine underneath the ``repro.serve``
digital-twin API: one or many sites prepared through
:meth:`~repro.cluster.Datacenter.prepare_run` with a step kernel and
advanced *in bounded segments* instead of one shot — ``advance(n_steps)``
moves every site forward by a wall of grid steps through the same
:meth:`~repro.cluster.Datacenter.advance` a batch run makes once,
``status()`` projects the partially-filled columns, and
``checkpoint()`` / :meth:`SimSession.restore` / ``fork()`` serialize
the whole mid-flight state (kernel cursors and arrays, supply-dispatcher
states, partially-filled :class:`~repro.cluster.StepColumns`, the
injection RNG) so an interrupted run resumes golden-identical to an
uninterrupted one.

Why segmenting preserves bit-identity: every event below a segment's
end is processed before the boundary, so the heap entries it strands
are provably stale; open-loop crossing scans depend only on state that
cannot change across a skipped window, so a scan split at the boundary
finds the same first hit; and the closed loop reads its window state
from the kernel at every entry, so a segment start is no wake of its
own: the boundary step is dispatched, or filled while the stack is
pinned, exactly as in an uncut run, and wakes only if it needs to.

Failure/supply injections (:meth:`SimSession.inject`) queue until the
next ``advance`` and are recorded in the append-only :attr:`audit` log,
following the RackMind dc-simulator pattern.
"""

from __future__ import annotations

import copy
import math
import pickle
from datetime import timedelta
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .. import obs
from ..cluster import Datacenter, SimulationResult
from ..errors import SessionError
from ..sim.fleet import FleetSite
from ..supply.components import BatteryDispatch, PricedGridPower

__all__ = ["SimSession", "SessionError"]

#: Version tag leading every checkpoint blob; bumped on layout changes.
CHECKPOINT_FORMAT = "repro-session/4"

#: Injection kinds :meth:`SimSession.inject` accepts.
INJECT_KINDS = ("battery_soc", "grid_budget", "blackout", "spot_price")

#: Injection keys whose values must be finite numbers.
INJECT_NUMBERS = (
    "soc_mwh", "soc_fraction", "remaining_mwh", "delta_mwh", "scale",
    "delta_per_mwh",
)


class _SiteEngine:
    """One site's prepared run, advanced segment by segment.

    Wraps a :class:`Datacenter` plus its kernel-prepared
    :class:`~repro.cluster.EngineState`; :meth:`Datacenter.advance`
    does the stepping and owns the cursor, so the injections below are
    all this class adds.
    """

    def __init__(self, name, datacenter, requests):
        self.name = name
        self.dc = datacenter
        self.state = datacenter.prepare_run(requests, kernel=True)

    @property
    def cursor(self) -> int:
        """Next step not yet executed (every step below it is final)."""
        return self.state.kernel.last + 1

    @property
    def day_steps(self) -> int:
        """Steps of this site's grid that cover one day (the default
        injection duration); rounds up when the step does not divide a
        day, so it cannot raise."""
        return math.ceil(timedelta(days=1) / self.state.grid.step)

    # -- injections ----------------------------------------------------

    def set_battery_soc(self, soc_mwh=None, soc_fraction=None) -> int:
        """Pin every battery's SoC; returns batteries touched."""
        if not self.state.closed:
            return 0
        dispatcher = self.state.dispatcher
        touched = 0
        for component, st in zip(
            dispatcher.components, dispatcher.states
        ):
            if not isinstance(component, BatteryDispatch):
                continue
            value = (
                soc_fraction * component.capacity_mwh
                if soc_mwh is None
                else soc_mwh
            )
            st.soc_mwh = min(max(float(value), 0.0), component.capacity_mwh)
            touched += 1
        return touched

    def set_grid_budget(self, remaining_mwh=None, delta_mwh=None) -> int:
        """Reset or top up grid budgets; returns grids touched."""
        if not self.state.closed:
            return 0
        dispatcher = self.state.dispatcher
        touched = 0
        for component, st in zip(
            dispatcher.components, dispatcher.states
        ):
            if not isinstance(component, PricedGridPower):
                continue
            value = (
                st.remaining_mwh + delta_mwh
                if remaining_mwh is None
                else remaining_mwh
            )
            st.remaining_mwh = max(float(value), 0.0)
            touched += 1
        return touched

    def spot_price_shock(
        self,
        start: int,
        stop: int,
        scale: float | None = None,
        delta_per_mwh: float | None = None,
    ) -> int:
        """Scale and/or shift spot prices over ``[start, stop)``.

        Closed loop only: every :class:`PricedGridPower` component's
        price series mutates in place (the session's own copy), and
        dispatch reads it live, so threshold/dvb policies see the shock
        from the next dispatch on.  Returns priced components touched.
        """
        state = self.state
        if not state.closed:
            return 0
        stop = min(stop, state.n)
        start = min(max(start, self.cursor), stop)
        if start >= stop:
            return 0
        dispatcher = state.dispatcher
        touched = 0
        for component in dispatcher.components:
            if not isinstance(component, PricedGridPower):
                continue
            prices = component.price_per_mwh
            if prices is None:
                continue
            if scale is not None:
                prices[start:stop] *= float(scale)
            if delta_per_mwh is not None:
                prices[start:stop] += float(delta_per_mwh)
            touched += 1
        return touched

    def blackout(self, start: int, stop: int) -> int:
        """Zero the site's power over ``[start, stop)``; returns width.

        Closed loop: the trace values themselves go dark (the session's
        own copy, read live by dispatch; the cached pinned-window
        series are dropped), so batteries drain into the outage.  Open
        loop: the precomputed delivered/budget series go dark directly.
        """
        state = self.state
        stop = min(stop, state.n)
        start = min(max(start, self.cursor), stop)
        if start >= stop:
            return 0
        if state.closed:
            self.dc.power_trace.values[start:stop] = 0.0
            state.span_precompute = None
        else:
            state.budgets[start:stop] = 0
            state.cols.norm_power[start:stop] = 0.0
            state.cols.core_budget[start:stop] = 0
            if state.evaluation is not None:
                state.evaluation.delivered[start:stop] = 0.0
        return stop - start


class SimSession:
    """A live, checkpointable simulation over one or many sites.

    Args:
        sites: One :class:`~repro.sim.fleet.FleetSite` or a sequence of
            them.  Sites advance in lockstep; shorter grids simply
            finish earlier.
        engine: ``"event"`` (default) or ``"soa"`` — two names for the
            step-kernel path (the label rides along in status and
            telemetry).  Golden-identical to every batch engine.
        record_events: Keep per-VM event logs (default on — sessions
            are interactive, the audit trail is the point).
        session_id: Label used in audit entries and ``obs`` spans.
        seed: Seed of the session's injection RNG (random blackout
            targets); its state rides along in checkpoints.
    """

    def __init__(
        self,
        sites: FleetSite | Sequence[FleetSite],
        *,
        engine: str = "event",
        record_events: bool = True,
        session_id: str = "session",
        seed: int = 0,
    ):
        if isinstance(sites, FleetSite):
            sites = [sites]
        sites = list(sites)
        if not sites:
            raise SessionError("a session needs at least one site")
        if engine not in ("event", "soa"):
            raise SessionError(
                f"unknown session engine: {engine!r}"
                " (expected 'event' or 'soa')"
            )
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise SessionError(f"duplicate site names: {names}")
        self.session_id = session_id
        self.engine = engine
        self._sites = []
        for site in sites:
            # Injections write into the trace values and price series in
            # place; the session runs its own copies so the caller's
            # sites (and other sessions built over them) stay untouched.
            trace, supply = copy.deepcopy((site.trace, site.supply))
            datacenter = Datacenter(
                site.config,
                trace,
                supply=supply,
                supply_mode=site.supply_mode,
                record_events=record_events,
            )
            self._sites.append(
                _SiteEngine(site.name, datacenter, site.requests)
            )
        self.n = max(se.state.n for se in self._sites)
        self.step = 0
        self.rng = np.random.default_rng(seed)
        #: Append-only action log: every lifecycle/advance/injection
        #: event, in order, with the step it happened at.
        self.audit: list[dict] = []
        self._pending: list[dict] = []
        self._results: dict[str, SimulationResult] | None = None
        self._audit(
            "create",
            sites=names,
            engine=engine,
            n_steps=self.n,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once every site has executed its full grid."""
        return self.step >= self.n

    @property
    def site_names(self) -> list[str]:
        return [se.name for se in self._sites]

    def status(self) -> dict:
        """JSON-ready live snapshot + ``summary_dict`` projection.

        The per-site ``summary`` block follows the shared result
        schema (:data:`repro.sim.results.SUMMARY_SCHEMA`) computed over
        the columns as filled so far — a projection that converges to
        the batch result as the session reaches the end of its grid.
        """
        sites = {}
        for se in self._sites:
            running, allocated, qlen = se.state.kernel.carried_state()
            cols = se.state.cols
            entry = {
                "step": se.cursor,
                "n_steps": se.state.n,
                "running_cores": int(running),
                "allocated_cores": int(allocated),
                "queue_length": int(qlen),
                "completed": int(cols.n_completed.sum()),
                "evicted": int(cols.n_evicted.sum()),
                "expired": int(cols.n_expired.sum()),
                "summary": self._projection(se).summary_dict(),
            }
            if se.state.closed:
                dispatcher = se.state.dispatcher
                entry["battery_soc_mwh"] = dispatcher.battery_soc_mwh()
                cost = carbon = 0.0
                priced = False
                for component, st in zip(
                    dispatcher.components, dispatcher.states
                ):
                    if isinstance(component, PricedGridPower):
                        priced = True
                        cost += st.cost_usd
                        carbon += st.carbon_kg
                if priced:
                    entry["grid_cost_usd"] = cost
                    entry["grid_carbon_kg"] = carbon
            sites[se.name] = entry
        return {
            "session_id": self.session_id,
            "engine": self.engine,
            "step": self.step,
            "n_steps": self.n,
            "progress": self.step / self.n if self.n else 1.0,
            "done": self.done,
            "pending_injections": len(self._pending),
            "sites": sites,
        }

    def _projection(self, se: _SiteEngine) -> SimulationResult:
        """A result view over the current (possibly partial) columns."""
        return SimulationResult(
            se.state.grid, se.dc.config, se.state.cols, se.dc.events,
            site_name=se.name, supply=se.state.evaluation,
        )

    def audit_tail(self, last_n: int | None = None) -> list[dict]:
        """The append-only action log (optionally its last ``last_n``).

        ``last_n=0`` is an empty list, and a ``last_n`` longer than the
        log is all of it.

        Raises:
            SessionError: ``last_n`` is negative.
        """
        if last_n is None:
            return list(self.audit)
        last_n = int(last_n)
        if last_n < 0:
            raise SessionError(f"last_n must be >= 0, got {last_n}")
        return self.audit[-last_n:] if last_n else []

    def _audit(self, event: str, **fields) -> dict:
        entry = {"seq": len(self.audit), "step": self.step, "event": event}
        entry.update(fields)
        self.audit.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------

    def advance(self, n_steps: int) -> dict:
        """Advance every site by up to ``n_steps`` grid steps.

        Pending injections apply first, at the current step.  Returns
        :meth:`status` after the tick.
        """
        n_steps = int(n_steps)
        if n_steps < 0:
            raise SessionError(f"cannot advance by {n_steps} steps")
        target = min(self.step + n_steps, self.n)
        with obs.span(
            "session.advance",
            session=self.session_id,
            from_step=self.step,
            to_step=target,
        ):
            self._apply_pending()
            for se in self._sites:
                se.dc.advance(se.state, target)
            advanced = target - self.step
            self.step = target
        self._audit("advance", requested=n_steps, advanced=advanced)
        if obs.enabled():
            obs.count(
                "session.steps", advanced, session=self.session_id
            )
        return self.status()

    def run_to_end(self) -> dict:
        """Advance to the end of the longest grid."""
        return self.advance(self.n - self.step)

    def results(self) -> dict[str, SimulationResult]:
        """Final per-site results; only valid once :attr:`done`."""
        if not self.done:
            raise SessionError(
                f"session at step {self.step}/{self.n} is not finished"
            )
        if self._results is None:
            self._results = {
                se.name: se.dc.finish_run(
                    se.state, f"session-{self.engine}"
                )
                for se in self._sites
            }
        return self._results

    # ------------------------------------------------------------------
    # Injections
    # ------------------------------------------------------------------

    def inject(self, action: dict) -> dict:
        """Queue a perturbation; it applies at the next ``advance``.

        Supported kinds (extra keys per kind):

        * ``battery_soc`` — ``soc_mwh`` *or* ``soc_fraction``: pin
          every battery of the targeted sites (closed loop only).
        * ``grid_budget`` — ``remaining_mwh`` *or* ``delta_mwh``:
          reset or top up firm-grid budgets (closed loop only).
        * ``blackout`` — ``duration_steps`` (default one day of the
          site's own grid steps): zero the targeted site's power from
          the current step.  Without ``site``, a random site is drawn
          from the session RNG.
        * ``spot_price`` — ``scale`` and/or ``delta_per_mwh``, plus
          ``duration_steps`` (default one day of each site's own grid
          steps): multiply/shift every priced grid component's spot
          prices from the current step (closed loop only), e.g. a 3x
          price spike the dvb policy should ride through.

        ``site`` targets one site by name; omit it to target all sites
        (``blackout``: one random site).  Returns the queued audit
        entry.

        Raises:
            SessionError: The kind, site or keys are unknown or missing,
                a value above is not a finite number, or
                ``duration_steps`` is not a non-negative integer.  Nothing
                is queued.
        """
        if not isinstance(action, dict):
            raise SessionError("injection must be a JSON object")
        kind = action.get("kind")
        if kind not in INJECT_KINDS:
            raise SessionError(
                f"unknown injection kind {kind!r};"
                f" expected one of {INJECT_KINDS}"
            )
        site = action.get("site")
        if site is not None and site not in self.site_names:
            raise SessionError(f"unknown site {site!r}")
        if kind == "battery_soc" and not (
            "soc_mwh" in action or "soc_fraction" in action
        ):
            raise SessionError("battery_soc needs soc_mwh or soc_fraction")
        if kind == "grid_budget" and not (
            "remaining_mwh" in action or "delta_mwh" in action
        ):
            raise SessionError(
                "grid_budget needs remaining_mwh or delta_mwh"
            )
        if kind == "spot_price" and not (
            "scale" in action or "delta_per_mwh" in action
        ):
            raise SessionError(
                "spot_price needs scale or delta_per_mwh"
            )
        # Values are checked here, not when the next tick applies them:
        # a bad one would fail that tick after the queue was emptied.
        # Absent keys pass.
        for key in INJECT_NUMBERS:
            value = action.get(key, 0.0)
            if (
                isinstance(value, bool)
                or not isinstance(value, Real)
                or not math.isfinite(value)
            ):
                raise SessionError(
                    f"{key} must be a finite number, got {value!r}"
                )
        duration = action.get("duration_steps", 0)
        if (
            isinstance(duration, bool)
            or not isinstance(duration, Integral)
            or duration < 0
        ):
            raise SessionError(
                "duration_steps must be a non-negative integer,"
                f" got {duration!r}"
            )
        self._pending.append(dict(action))
        if obs.enabled():
            obs.count(
                "session.injections", 1,
                session=self.session_id, kind=kind,
            )
        return self._audit("inject", action=dict(action))

    def _apply_pending(self) -> None:
        pending, self._pending = self._pending, []
        for action in pending:
            kind = action["kind"]
            site = action.get("site")
            if kind == "blackout" and site is None:
                site = self._sites[
                    int(self.rng.integers(len(self._sites)))
                ].name
            targets = [
                se for se in self._sites
                if site is None or se.name == site
            ]
            touched = 0
            if kind == "battery_soc":
                for se in targets:
                    touched += se.set_battery_soc(
                        soc_mwh=action.get("soc_mwh"),
                        soc_fraction=action.get("soc_fraction"),
                    )
            elif kind == "grid_budget":
                for se in targets:
                    touched += se.set_grid_budget(
                        remaining_mwh=action.get("remaining_mwh"),
                        delta_mwh=action.get("delta_mwh"),
                    )
            elif kind == "spot_price":
                for se in targets:
                    duration = int(action.get("duration_steps", se.day_steps))
                    touched += se.spot_price_shock(
                        self.step, self.step + duration,
                        scale=action.get("scale"),
                        delta_per_mwh=action.get("delta_per_mwh"),
                    )
            else:
                for se in targets:
                    duration = int(action.get("duration_steps", se.day_steps))
                    touched += se.blackout(
                        self.step, self.step + duration
                    )
            self._audit(
                "apply",
                action=dict(action),
                sites=[se.name for se in targets],
                touched=touched,
            )

    # ------------------------------------------------------------------
    # Checkpoint / restore / fork
    # ------------------------------------------------------------------

    def checkpoint(self) -> bytes:
        """Serialize the entire mid-flight session to bytes.

        One pickle of the live object graph — engine states and step
        kernels (with the trace aliased between datacenter and
        dispatcher intact), supply-dispatcher states, partially-filled
        columns, event logs, RNG, audit log — behind a versioned
        envelope.  A session restored from the blob (same process or
        another one) continues bit-identically.
        """
        self._audit("checkpoint")
        return pickle.dumps(
            {"format": CHECKPOINT_FORMAT, "session": self},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def restore(
        cls, blob: bytes, session_id: str | None = None
    ) -> "SimSession":
        """Rebuild a session from a :meth:`checkpoint` blob."""
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise SessionError(f"unreadable checkpoint: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != CHECKPOINT_FORMAT
            or not isinstance(payload.get("session"), cls)
        ):
            raise SessionError(
                "not a session checkpoint"
                f" (expected format {CHECKPOINT_FORMAT!r})"
            )
        session = payload["session"]
        if session_id is not None:
            session.session_id = session_id
        session._audit("restore")
        return session

    def fork(self, session_id: str | None = None) -> "SimSession":
        """An independent copy of the session at the current step.

        The clone shares nothing with the original — diverge it with
        injections, race it ahead, throw it away.  The parent's audit
        log is left as it was; the clone's is the parent's history
        plus one ``fork`` entry.
        """
        clone = pickle.loads(
            pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        )
        clone.session_id = session_id or f"{self.session_id}-fork"
        clone._audit("fork", parent=self.session_id)
        return clone
