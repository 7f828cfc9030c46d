"""Golden tests for resumable sessions (repro.serve.session).

The load-bearing guarantee: a run advanced in bounded segments —
interrupted, checkpointed, restored (same process or another one),
forked — produces columns, event logs, and supply telemetry
bit-identical to one uninterrupted run of the dense oracle.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.test_fleet import (
    START,
    assert_identical,
    battery_grid_stack,
    battery_stack,
    make_site,
    mixed_fleet,
    reference_run,
)

from repro import obs
from repro.cluster.kernel import StepKernel
from repro.errors import SessionError
from repro.serve import SessionRegistry, SimSession
from repro.supply import SupplyStack
from repro.supply.components import BatteryDispatch, PricedGridPower
from repro.traces import PowerTrace
from repro.units import TimeGrid

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def session_run(site, engine, chunk):
    session = SimSession(site, engine=engine)
    while not session.done:
        session.advance(chunk)
    return session.results()[site.name]


@contextmanager
def needed_wakes():
    """Log the kernel wakes, asserting each was needed.

    A wake is needed when an arrival, finish or queue expiry is due, or
    the step's core budget falls below the running cores or reaches the
    resume / launch threshold.
    """
    woken: list[int] = []
    step_wake = StepKernel.step_wake

    def checked(kernel, step, budget):
        running, upper = kernel.wake_bounds()
        assert (
            kernel.next_event() <= step
            or budget < running
            or (upper is not None and budget >= upper)
        ), f"unneeded wake at step {step}"
        woken.append(step)
        step_wake(kernel, step, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StepKernel, "step_wake", checked)
        yield woken


def batch_wakes(site, engine="event") -> list[int]:
    """The batch run's logged wakes, checked to be every wake it made.

    The log must be non-empty and as long as the run's ``sim.wakes``
    count, so a wake path that bypasses ``step_wake`` fails here
    instead of comparing two empty logs.
    """
    sink = obs.MemorySink()
    with needed_wakes() as woken, obs.add_sink(sink):
        reference_run(site, engine)
    [count] = [
        record["value"]
        for record in sink.metrics()
        if record["name"] == "sim.wakes"
    ]
    assert woken and len(woken) == count
    return woken


class TestSegmentedAdvance:
    """advance(n) in any segmentation == one uninterrupted run."""

    @pytest.mark.parametrize("engine", ["event", "soa"])
    @pytest.mark.parametrize(
        "mode,stack",
        [
            ("open", None),
            ("open", "battery"),
            ("closed", "battery"),
            ("closed", "battery_grid"),
            ("closed", "priced_threshold"),
        ],
    )
    def test_chunked_advance_golden(self, engine, mode, stack):
        supply = {
            None: None,
            "battery": battery_stack(),
            "battery_grid": battery_grid_stack(),
            "priced_threshold": priced_threshold_stack(1500),
        }[stack]
        site = make_site(3, 1500, 400, supply=supply, supply_mode=mode)
        want = reference_run(site)
        batch = batch_wakes(site, engine)
        for chunk in (1, 7, 137, 5000):
            with needed_wakes() as woken:
                got = session_run(site, engine, chunk)
            assert_identical(
                f"{engine}/{mode}/{stack}/chunk={chunk}",
                got, want, events=True,
            )
            # A segment start is no wake of its own.
            assert woken == batch, f"chunk={chunk}"

    def test_zero_and_overshoot_advance(self):
        site = make_site(2, 600, 150)
        session = SimSession(site)
        session.advance(0)
        assert session.step == 0
        session.advance(10**9)
        assert session.done
        with pytest.raises(SessionError):
            session.advance(-1)

    def test_status_projection_converges(self):
        site = make_site(4, 800, 200, supply=battery_grid_stack(),
                         supply_mode="closed")
        want = reference_run(site)
        session = SimSession(site)
        session.advance(300)
        status = session.status()
        entry = status["sites"][site.name]
        assert entry["step"] == 300
        assert "battery_soc_mwh" in entry
        assert set(entry["summary"]) == set(want.summary_dict())
        session.run_to_end()
        final = session.status()
        assert final["done"] and final["progress"] == 1.0
        assert (
            final["sites"][site.name]["summary"] == want.summary_dict()
        )


#: Grid length of the random-segmentation sites.
SEGMENT_N = 400


def priced_threshold_stack(n: int) -> SupplyStack:
    """A battery plus a threshold-priced grid whose daily price swing
    (20–80 $/MWh) crosses the 60 $/MWh cap, so buying toggles."""
    t = np.arange(n)
    return SupplyStack(
        components=(
            BatteryDispatch(
                capacity_mwh=2.5, max_power_mw=1.5, efficiency=0.9
            ),
            PricedGridPower(
                budget_mwh=300.0,
                max_power_mw=1.0,
                price_per_mwh=50.0 + 30.0 * np.sin(2 * np.pi * t / 96),
                carbon_per_mwh=np.full(n, 200.0),
                policy="threshold",
                price_threshold=60.0,
            ),
        )
    )


@lru_cache(maxsize=None)
def segmentation_case(closed: bool):
    """A small site and its dense-oracle run, built once per setup."""
    if closed:
        site = make_site(
            41, SEGMENT_N, 160,
            supply=priced_threshold_stack(SEGMENT_N),
            supply_mode="closed",
        )
    else:
        site = make_site(40, SEGMENT_N, 160)
    return site, reference_run(site)


class TestRandomSegmentation:
    """``advance`` split at arbitrary cut points == the dense oracle.

    Every segment clamps its windows at the cut and forward-fills its
    skipped steps from the step before it; in either supply mode it
    takes the batch run's wakes, each one needed.  Random cut points
    hit both mid-chain and mid-window.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        closed=st.booleans(),
        cuts=st.lists(
            st.integers(min_value=1, max_value=SEGMENT_N - 1), max_size=8
        ),
    )
    def test_random_cut_points_match_dense(self, closed, cuts):
        site, want = segmentation_case(closed)
        with needed_wakes() as woken:
            session = SimSession(site)
            for cut in sorted(set(cuts)):
                session.advance(cut - session.step)
            session.run_to_end()
        got = session.results()[site.name]
        assert_identical(f"cuts={sorted(set(cuts))}", got, want, events=True)
        assert woken == batch_wakes(site)
        if closed:
            for series in ("cost_usd", "carbon_kg"):
                np.testing.assert_array_equal(
                    getattr(got.supply, series),
                    getattr(want.supply, series),
                    err_msg=series,
                )

    def test_cases_exercise_the_lifecycle(self):
        """The property is only meaningful if both setups hit evictions
        and queueing, and the priced grid both buys and refuses."""
        for closed in (False, True):
            _, want = segmentation_case(closed)
            assert want.columns.n_evicted.sum() > 0
            assert want.columns.n_queued.sum() > 0
        site, closed_run = segmentation_case(True)
        imports = closed_run.supply.grid_import_mwh
        expensive = site.supply.components[1].price_per_mwh > 60.0
        assert imports[~expensive].sum() > 0.0
        assert imports[expensive].sum() == 0.0


class TestCheckpointRestore:
    """Serialized mid-flight state resumes bit-identically."""

    @pytest.mark.parametrize("engine", ["event", "soa"])
    def test_checkpoint_restore_fork_golden(self, engine):
        site = make_site(
            5, 1500, 400, supply=battery_grid_stack(),
            supply_mode="closed",
        )
        want = reference_run(site)
        session = SimSession(site, engine=engine)
        session.advance(533)
        blob = session.checkpoint()
        # Kernel runs build no object model, so none is pickled.
        assert b"repro.cluster.server" not in blob

        restored = SimSession.restore(blob)
        restored.run_to_end()
        assert_identical(
            "restored", restored.results()[site.name], want, events=True
        )

        fork = session.fork()
        fork.run_to_end()
        assert_identical(
            "fork", fork.results()[site.name], want, events=True
        )
        # The original is untouched by both and still finishes golden.
        session.run_to_end()
        assert_identical(
            "original", session.results()[site.name], want, events=True
        )

    def test_mid_wake_chain_checkpoints(self):
        """Checkpoints dropped at arbitrary (even single-step) cut
        points — including inside dense wake chains — all resume
        golden."""
        site = make_site(
            6, 700, 300, supply=battery_stack(), supply_mode="closed"
        )
        want = reference_run(site)
        session = SimSession(site)
        for cut in (1, 2, 3, 97, 251, 252, 600):
            session.advance(cut - session.step)
            resumed = SimSession.restore(session.checkpoint())
            resumed.run_to_end()
            assert_identical(
                f"cut@{cut}", resumed.results()[site.name], want,
                events=True,
            )

    def test_restore_into_different_process(self, tmp_path):
        site = make_site(7, 900, 250, supply=battery_grid_stack(),
                         supply_mode="closed")
        want = reference_run(site)
        session = SimSession(site)
        session.advance(400)
        blob_path = tmp_path / "session.ckpt"
        blob_path.write_bytes(session.checkpoint())
        out_path = tmp_path / "columns.npz"
        script = (
            "import sys, numpy as np\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "from repro.serve import SimSession\n"
            f"session = SimSession.restore(open({str(blob_path)!r}, 'rb').read())\n"
            "session.run_to_end()\n"
            "result = next(iter(session.results().values()))\n"
            "np.savez(\n"
            f"    {str(out_path)!r},\n"
            "    running=result.columns.running_cores,\n"
            "    queue=result.columns.queue_length,\n"
            "    out_bytes=result.columns.out_bytes,\n"
            "    soc=np.asarray(result.supply.soc_mwh),\n"
            ")\n"
        )
        subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=300
        )
        got = np.load(out_path)
        np.testing.assert_array_equal(
            got["running"], want.columns.running_cores
        )
        np.testing.assert_array_equal(
            got["queue"], want.columns.queue_length
        )
        np.testing.assert_array_equal(
            got["out_bytes"], want.columns.out_bytes
        )
        np.testing.assert_array_equal(
            got["soc"], np.asarray(want.supply.soc_mwh)
        )

    def test_bad_blobs_rejected(self):
        with pytest.raises(SessionError):
            SimSession.restore(b"not a pickle")
        with pytest.raises(SessionError):
            SimSession.restore(pickle.dumps({"format": "other/9"}))
        with pytest.raises(SessionError):
            SimSession.restore(pickle.dumps({"format": "repro-session/2"}))
        # /3 pickled the event log as row tuples.
        with pytest.raises(SessionError):
            SimSession.restore(pickle.dumps({"format": "repro-session/3"}))
        with pytest.raises(SessionError):
            SimSession.restore(pickle.dumps([1, 2, 3]))

    def test_fork_audits_only_the_clone(self):
        session = SimSession(make_site(3, 300, 80), session_id="parent")
        session.advance(40)
        history = session.audit_tail()
        clone = session.fork("child")
        assert session.audit_tail() == history
        assert clone.audit_tail() == history + [{
            "seq": len(history), "step": 40, "event": "fork",
            "parent": "parent",
        }]


class TestMultiSite:
    """Lockstep sessions over heterogeneous fleets."""

    def test_mixed_fleet_session_golden(self):
        sites = mixed_fleet()
        session = SimSession(sites, engine="event")
        session.advance(800)
        resumed = SimSession.restore(session.checkpoint())
        resumed.run_to_end()
        results = resumed.results()
        for site in sites:
            assert_identical(
                f"fleet:{site.name}",
                results[site.name],
                reference_run(site),
                events=True,
            )

    def test_year_fleet_checkpoint_restore_golden(self):
        """The acceptance bar: an 8-site year-long fleet, interrupted
        mid-run, checkpointed, restored, and advanced to the end —
        golden-identical to uninterrupted per-site runs."""
        sites = [
            make_site(
                20 + i, 35040, 400,
                supply=battery_grid_stack() if i % 2 == 0 else None,
                supply_mode="closed" if i % 2 == 0 else "open",
                name=f"yr-{i}",
            )
            for i in range(8)
        ]
        session = SimSession(sites, engine="event")
        session.advance(9000)
        resumed = SimSession.restore(session.checkpoint())
        resumed.advance(11000)
        resumed.run_to_end()
        results = resumed.results()
        for site in sites:
            assert_identical(
                f"year:{site.name}",
                results[site.name],
                reference_run(site),
                events=True,
            )

    def test_shorter_sites_finish_early(self):
        sites = [
            make_site(11, 400, 100, name="short"),
            make_site(12, 900, 200, name="long"),
        ]
        session = SimSession(sites)
        session.advance(600)
        status = session.status()
        assert status["sites"]["short"]["step"] == 400
        assert status["sites"]["long"]["step"] == 600
        assert not session.done
        session.run_to_end()
        for site in sites:
            assert_identical(
                site.name,
                session.results()[site.name],
                reference_run(site),
                events=True,
            )

    def test_duplicate_names_rejected(self):
        site = make_site(1, 100, 10, name="twin")
        with pytest.raises(SessionError):
            SimSession([site, site])
        with pytest.raises(SessionError):
            SimSession([])
        with pytest.raises(SessionError):
            SimSession(site, engine="warp")


class TestInjections:
    """Perturbations queue, apply at the next tick, and are audited."""

    def test_battery_soc_and_grid_budget(self):
        site = make_site(
            8, 800, 200, supply=battery_grid_stack(),
            supply_mode="closed",
        )
        session = SimSession(site)
        session.advance(100)
        session.inject({"kind": "battery_soc", "soc_fraction": 1.0})
        session.inject({"kind": "grid_budget", "remaining_mwh": 0.0})
        assert session.status()["pending_injections"] == 2
        session.advance(1)
        dispatcher = session._sites[0].state.dispatcher
        # Capacity 2.5 MWh (battery_grid_stack); one 15-min step can
        # discharge at most max_power * h / efficiency ≈ 0.42 MWh from
        # the injected full charge, and can never charge above it.
        assert 2.0 <= dispatcher.battery_soc_mwh() <= 2.5
        grid_state = dispatcher.states[1]
        assert grid_state.remaining_mwh == 0.0
        events = [e["event"] for e in session.audit_tail()]
        assert events.count("apply") == 2

    def test_blackout_starves_site(self):
        site = make_site(9, 600, 200)
        session = SimSession(site)
        session.advance(200)
        session.inject(
            {"kind": "blackout", "site": site.name, "duration_steps": 50}
        )
        session.advance(50)
        cols = session._sites[0].state.cols
        assert np.all(cols.norm_power[200:250] == 0.0)
        assert np.all(cols.running_cores[200:250] == 0)
        session.run_to_end()
        assert session.done

    def test_blackout_closed_loop_recomputes(self):
        site = make_site(
            10, 600, 200, supply=battery_grid_stack(),
            supply_mode="closed",
        )
        session = SimSession(site)
        session.advance(150)
        session.inject(
            {"kind": "blackout", "site": site.name, "duration_steps": 40}
        )
        session.advance(40)
        values = session._sites[0].dc.power_trace.values
        assert np.all(values[150:190] == 0.0)
        session.run_to_end()
        assert session.done

    def test_injections_leave_shared_sites_untouched(self):
        """Two sessions over one site list: shocking the first changes
        neither the caller's arrays nor the second session's run."""
        n = 600
        sites = [
            make_site(
                15 + i, n, 200, supply=priced_grid_stack(n),
                supply_mode="closed", name=f"shared-{i}",
            )
            for i in range(2)
        ]
        want = {site.name: reference_run(site) for site in sites}
        inputs = [
            (site.trace.values.copy(),
             site.supply.components[1].price_per_mwh.copy())
            for site in sites
        ]
        shocked = SimSession(sites, session_id="shocked")
        other = SimSession(sites, session_id="other")
        shocked.advance(100)
        other.advance(100)
        shocked.inject({"kind": "blackout", "site": "shared-0",
                        "duration_steps": 60})
        shocked.inject({"kind": "spot_price", "scale": 3.0,
                        "duration_steps": 100})
        shocked.advance(150)
        assert [e["touched"] for e in shocked.audit_tail()
                if e["event"] == "apply"] == [60, 2]
        other.run_to_end()
        for site in sites:
            assert_identical(
                f"shared:{site.name}",
                other.results()[site.name],
                want[site.name],
                events=True,
            )
        for site, (values, prices) in zip(sites, inputs):
            np.testing.assert_array_equal(site.trace.values, values)
            np.testing.assert_array_equal(
                site.supply.components[1].price_per_mwh, prices
            )

    def test_default_duration_is_one_day_of_the_site_grid(self):
        """On an hourly grid a default blackout darkens 24 steps and a
        default spot-price shock scales 24 prices."""
        n = 240
        grid = TimeGrid(START, timedelta(hours=1), n)
        sites = [
            replace(
                site, trace=PowerTrace(grid, site.trace.values, site.name, "wind")
            )
            for site in (
                make_site(16, n, 100, name="dark"),
                make_site(
                    17, n, 100, supply=priced_grid_stack(n),
                    supply_mode="closed", name="priced",
                ),
            )
        ]
        session = SimSession(sites)
        session.advance(100)
        session.inject({"kind": "blackout", "site": "dark"})
        session.inject({"kind": "spot_price", "scale": 3.0})
        session.advance(1)
        assert [e["touched"] for e in session.audit_tail()
                if e["event"] == "apply"] == [24, 1]
        dark, priced = session._sites
        assert np.all(dark.state.cols.norm_power[100:124] == 0.0)
        prices = priced.state.dispatcher.components[1].price_per_mwh
        assert np.all(prices[100:124] == 150.0)
        assert prices[99] == prices[124] == 50.0

    def test_invalid_injections_rejected(self):
        session = SimSession(make_site(1, 100, 10))
        with pytest.raises(SessionError):
            session.inject({"kind": "earthquake"})
        with pytest.raises(SessionError):
            session.inject({"kind": "blackout", "site": "atlantis"})
        with pytest.raises(SessionError):
            session.inject({"kind": "battery_soc"})
        with pytest.raises(SessionError):
            session.inject({"kind": "grid_budget"})
        with pytest.raises(SessionError):
            session.inject({"kind": "spot_price"})
        with pytest.raises(SessionError):
            session.inject("blackout")
        with pytest.raises(SessionError):
            session.results()


def priced_grid_stack(n: int, policy: str = "threshold") -> SupplyStack:
    """A battery plus a threshold-priced grid: cheap steps buy, a
    3x price spike crosses the 80 $/MWh cap and purchases stop."""
    return SupplyStack(
        components=(
            BatteryDispatch(
                capacity_mwh=2.5, max_power_mw=1.5, efficiency=0.9
            ),
            PricedGridPower(
                budget_mwh=300.0,
                max_power_mw=1.0,
                price_per_mwh=np.full(n, 50.0),
                carbon_per_mwh=np.full(n, 200.0),
                policy=policy,
                price_threshold=80.0,
            ),
        )
    )


class TestGridSupplyInjections:
    """Injections against grid-backed closed-loop supply stacks."""

    def test_blackout_rides_on_the_grid(self):
        """A blacked-out site with a firm grid keeps partial power —
        unlike the starved no-supply blackout — and the outage MWh
        show up as grid imports."""
        site = make_site(
            12, 600, 200, supply=battery_grid_stack(),
            supply_mode="closed",
        )
        session = SimSession(site)
        session.advance(150)
        se = session._sites[0]
        imported_before = se.state.dispatcher.evaluation.grid_import_mwh[
            :150
        ].sum()
        session.inject(
            {"kind": "blackout", "site": site.name, "duration_steps": 60}
        )
        session.advance(60)
        ev = se.state.dispatcher.evaluation
        assert np.all(se.dc.power_trace.values[150:210] == 0.0)
        # The grid firms the outage in-loop...
        assert ev.grid_import_mwh[150:210].sum() > 0.0
        # ...and powers cores a supply-less blackout would starve.
        assert se.state.cols.core_budget[150:210].max() > 0
        session.run_to_end()
        total = ev.grid_import_mwh.sum()
        assert total > imported_before
        assert total <= 300.0 + 1e-9

    def test_spot_price_shock_halts_threshold_buys(self):
        n = 600
        site = make_site(
            13, n, 200, supply=priced_grid_stack(n),
            supply_mode="closed",
        )
        session = SimSession(site)
        session.advance(150)
        control = session.fork("control")
        session.inject({"kind": "spot_price", "scale": 3.0,
                        "duration_steps": 100})
        session.advance(100)
        control.advance(100)
        shocked_ev = session._sites[0].state.dispatcher.evaluation
        control_ev = control._sites[0].state.dispatcher.evaluation
        window = slice(150, 250)
        # 150 $/MWh > the 80 $/MWh cap: no purchases in the window.
        assert shocked_ev.grid_import_mwh[window].sum() == 0.0
        assert shocked_ev.cost_usd[window].sum() == 0.0
        assert control_ev.grid_import_mwh[window].sum() > 0.0
        # Identical histories before the shock.
        np.testing.assert_array_equal(
            shocked_ev.grid_import_mwh[:150],
            control_ev.grid_import_mwh[:150],
        )
        status = session.status()["sites"][site.name]
        assert "grid_cost_usd" in status
        assert status["grid_cost_usd"] == pytest.approx(
            shocked_ev.cost_usd.sum()
        )
        events = [e["event"] for e in session.audit_tail()]
        assert "apply" in events

    def test_spot_price_shock_checkpoint_round_trip(self):
        """A shocked session checkpoints/restores bit-identically."""
        n = 600
        site = make_site(
            14, n, 200, supply=priced_grid_stack(n),
            supply_mode="closed",
        )
        session = SimSession(site)
        session.advance(100)
        session.inject({"kind": "spot_price", "delta_per_mwh": 200.0,
                        "duration_steps": 50})
        session.advance(10)
        clone = SimSession.restore(session.checkpoint())
        session.run_to_end()
        clone.run_to_end()
        ours = session._sites[0].state.dispatcher.evaluation
        theirs = clone._sites[0].state.dispatcher.evaluation
        for name in ("delivered", "grid_import_mwh", "cost_usd",
                     "carbon_kg"):
            np.testing.assert_array_equal(
                getattr(ours, name), getattr(theirs, name),
                err_msg=name,
            )


class TestRegistry:
    """The session map behind the HTTP layer."""

    def test_lifecycle(self):
        registry = SessionRegistry()
        site = make_site(1, 300, 80)
        session = registry.create(site)
        assert registry.get(session.session_id) is session
        assert registry.ids() == [session.session_id]

        fork = registry.fork(session.session_id)
        assert fork.session_id != session.session_id
        assert len(registry) == 2

        restored = registry.restore(session.checkpoint(), "named")
        assert restored.session_id == "named"
        with pytest.raises(SessionError):
            registry.restore(session.checkpoint(), "named")

        registry.delete(fork.session_id)
        with pytest.raises(SessionError):
            registry.get(fork.session_id)
        with pytest.raises(SessionError):
            registry.delete(fork.session_id)
        assert sorted(registry.ids()) == sorted(
            [session.session_id, "named"]
        )

    def test_failed_create_releases_id(self):
        registry = SessionRegistry()
        with pytest.raises(SessionError):
            registry.create([], session_id="dud")
        site = make_site(2, 100, 10)
        assert registry.create(site, session_id="dud").session_id == "dud"
