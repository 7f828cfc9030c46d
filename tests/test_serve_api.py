"""Endpoint tests for the digital-twin HTTP API (repro.serve.app).

The app is pure ASGI, so the suite drives the coroutine directly with
the in-repo :class:`repro.serve.testing.ASGIClient` — no HTTP stack,
no optional dependencies.  When the ``serve`` extra is installed
(httpx), the same app is additionally exercised through
``httpx.ASGITransport`` to prove real-transport compatibility.
"""

from __future__ import annotations

import pickle
from datetime import datetime

import pytest

from tests.test_fleet import reference_run

from repro import obs
from repro.experiments import Scenario
from repro.experiments.runner import fleet_sites_for_scenario
from repro.experiments.scenario import WorkloadSpec
from repro.serve import create_app
from repro.serve.testing import ASGIClient
from repro.supply.spec import SupplySpec
from repro.units import grid_days


def tiny_scenario(name="twin", days=1.0, seed=3, closed=True) -> Scenario:
    return Scenario(
        name=name,
        sites=("BE-wind", "ES-solar"),
        grid=grid_days(datetime(2020, 5, 3), days),
        workload=WorkloadSpec(kind="vm_requests", utilization=0.7),
        supply=(
            SupplySpec(
                battery_mwh=2.0,
                battery_power_mw=1.0,
                grid_budget_mwh=50.0,
                mode="closed",
            )
            if closed
            else SupplySpec()
        ),
        seed=seed,
    )


def dense_summaries(scenario: Scenario) -> dict:
    """The scenario's fleet, site by site on the dense oracle."""
    return {
        site.name: reference_run(site).summary_dict()
        for site in fleet_sites_for_scenario(scenario)
    }


@pytest.fixture()
def client():
    return ASGIClient(create_app())


def create_session(client, scenario=None, **payload):
    scenario = scenario or tiny_scenario()
    body = {"scenario": scenario.to_dict(), **payload}
    response = client.post("/sessions", json=body)
    assert response.status == 201, response.body
    return response.json()


class TestEndpoints:
    def test_healthz(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json() == {"ok": True, "sessions": 0}

    def test_create_from_partial_scenario_spec(self, client):
        # Hand-written API specs (the README walkthrough) omit the
        # optional scenario sections; the registry fills the defaults.
        body = {
            "engine": "event",
            "scenario": {
                "name": "twin",
                "sites": ["BE-wind"],
                "grid": {
                    "start": "2020-05-03T00:00:00",
                    "step_seconds": 900.0,
                    "n": 96,
                },
                "workload": {"kind": "vm_requests", "utilization": 0.7},
                "supply": {"battery_mwh": 2.0, "mode": "closed"},
            },
        }
        response = client.post("/sessions", json=body)
        assert response.status == 201, response.body
        sid = response.json()["session_id"]
        status = client.post(f"/sessions/{sid}/tick?n=96").json()
        assert status["done"]
        # Name and sites stay required.
        del body["scenario"]["sites"]
        assert client.post("/sessions", json=body).status == 400

    def test_create_tick_status_results(self, client):
        status = create_session(client, engine="event")
        sid = status["session_id"]
        assert status["step"] == 0
        assert sorted(status["sites"]) == ["BE-wind", "ES-solar"]

        ticked = client.post(f"/sessions/{sid}/tick?n=40").json()
        assert ticked["step"] == 40
        assert not ticked["done"]
        assert (
            client.get(f"/sessions/{sid}/status").json()["step"] == 40
        )

        premature = client.get(f"/sessions/{sid}/results")
        assert premature.status == 400

        done = client.post(f"/sessions/{sid}/tick?n=100000").json()
        assert done["done"]
        results = client.get(f"/sessions/{sid}/results")
        assert results.status == 200
        summaries = results.json()["results"]
        assert sorted(summaries) == ["BE-wind", "ES-solar"]

        # The session's final summaries match the dense oracle's run of
        # the same scenario exactly.
        want = dense_summaries(tiny_scenario())
        for name, summary in summaries.items():
            assert summary == want[name]

    def test_inject_and_audit(self, client):
        sid = create_session(client)["session_id"]
        client.post(f"/sessions/{sid}/tick?n=10")
        queued = client.post(
            f"/sessions/{sid}/inject",
            json={"kind": "blackout", "site": "BE-wind",
                  "duration_steps": 5},
        )
        assert queued.status == 202
        assert queued.json()["queued"]["event"] == "inject"
        client.post(f"/sessions/{sid}/tick?n=5")
        audit = client.get(f"/sessions/{sid}/audit").json()["audit"]
        events = [entry["event"] for entry in audit]
        assert events[0] == "create"
        assert "inject" in events and "apply" in events
        tail = client.get(f"/sessions/{sid}/audit?last_n=2").json()
        assert tail["audit"] == audit[-2:]
        assert client.get(
            f"/sessions/{sid}/audit?last_n=0"
        ).json()["audit"] == []
        longer = client.get(f"/sessions/{sid}/audit?last_n={len(audit) + 5}")
        assert longer.json()["audit"] == audit
        negative = client.get(f"/sessions/{sid}/audit?last_n=-1")
        assert negative.status == 400

        bad = client.post(
            f"/sessions/{sid}/inject", json={"kind": "earthquake"}
        )
        assert bad.status == 400
        assert "earthquake" in bad.json()["error"]

    def test_malformed_injection_is_rejected_and_queues_nothing(
        self, client
    ):
        """A bad value is a 400 at inject time, so it cannot fail the
        next tick and take the valid injections queued with it."""
        sid = create_session(client)["session_id"]
        client.post(f"/sessions/{sid}/tick?n=10")
        valid = [
            {"kind": "blackout", "site": "BE-wind", "duration_steps": 5},
            {"kind": "grid_budget", "remaining_mwh": 3.0},
            {"kind": "spot_price", "scale": 2.0, "duration_steps": 0},
        ]
        malformed = [
            {"kind": "blackout", "duration_steps": "x"},
            {"kind": "blackout", "duration_steps": -1},
            {"kind": "blackout", "duration_steps": 2.5},
            {"kind": "battery_soc", "soc_fraction": "half"},
            {"kind": "battery_soc", "soc_mwh": None},
            {"kind": "battery_soc", "soc_mwh": True},
            {"kind": "grid_budget", "delta_mwh": float("inf")},
            {"kind": "spot_price", "scale": float("nan")},
            {"kind": "spot_price", "delta_per_mwh": [1.0]},
        ]
        for action in (valid[0], *malformed[:4], valid[1], *malformed[4:],
                       valid[2]):
            response = client.post(f"/sessions/{sid}/inject", json=action)
            if action in valid:
                assert response.status == 202, action
            else:
                assert response.status == 400, action
        status = client.get(f"/sessions/{sid}").json()
        assert status["pending_injections"] == len(valid)
        assert client.post(f"/sessions/{sid}/tick?n=5").status == 200
        audit = client.get(f"/sessions/{sid}/audit").json()["audit"]
        assert [e["action"] for e in audit if e["event"] == "inject"] == valid
        assert [e["action"] for e in audit if e["event"] == "apply"] == valid

    def test_checkpoint_restore_fork_roundtrip(self, client):
        sid = create_session(client)["session_id"]
        client.post(f"/sessions/{sid}/tick?n=30")

        forked = client.post(f"/sessions/{sid}/fork")
        assert forked.status == 201
        fork_id = forked.json()["session_id"]
        assert fork_id != sid

        blob = client.get(f"/sessions/{sid}/checkpoint")
        assert blob.status == 200
        assert blob.headers["content-type"] == "application/octet-stream"

        restored = client.post(
            "/sessions/restore?session_id=replay", data=blob.body
        )
        assert restored.status == 201
        assert restored.json()["session_id"] == "replay"
        assert restored.json()["step"] == 30

        # All three finish to identical summaries.
        summaries = []
        for session_id in (sid, fork_id, "replay"):
            client.post(f"/sessions/{session_id}/tick?n=100000")
            summaries.append(
                client.get(f"/sessions/{session_id}/results").json()[
                    "results"
                ]
            )
        assert summaries[0] == summaries[1] == summaries[2]

    def test_lifecycle_routes_traced(self, client):
        with obs.use(obs.MemorySink()) as mem:
            sid = create_session(client)["session_id"]
            blob = client.get(f"/sessions/{sid}/checkpoint").body
            client.post("/sessions/restore?session_id=copy", data=blob)
            client.delete(f"/sessions/{sid}")
        requests = [
            (span["attrs"]["action"], span["attrs"]["session"])
            for span in mem.spans()
            if span["name"] == "serve.request"
        ]
        assert requests == [
            ("create", sid),
            ("checkpoint", sid),
            ("restore", "copy"),
            ("delete", sid),
        ]

    def test_list_delete_and_errors(self, client):
        sid = create_session(client)["session_id"]
        # A checkpoint envelope of the previous format, whose event log
        # pickled as row tuples.
        stale = pickle.dumps({
            "format": "repro-session/3",
            "session": client.app.registry.get(sid),
        })
        listing = client.get("/sessions").json()["sessions"]
        assert [entry["session_id"] for entry in listing] == [sid]

        assert client.delete(f"/sessions/{sid}").status == 200
        assert client.get("/sessions").json()["sessions"] == []

        assert client.get(f"/sessions/{sid}/status").status == 404
        assert client.delete(f"/sessions/{sid}").status == 404
        assert client.get("/nowhere").status == 404
        # A bad engine is a bad request, not a missing session, even
        # though its message starts "unknown session engine".
        for engine in ("dense", "bogus"):
            bad_engine = client.post("/sessions", json={
                "scenario": tiny_scenario().to_dict(), "engine": engine,
            })
            assert bad_engine.status == 400, engine
            assert "engine" in bad_engine.json()["error"]
        assert client.post("/sessions", json={}).status == 400
        assert (
            client.post("/sessions", json={"scenario": "x"}).status == 400
        )
        assert client.post("/sessions", data=b"{broken").status == 400
        assert client.request("PUT", "/sessions").status == 405
        assert client.post("/sessions/restore", data=b"junk").status == 400
        assert client.post("/sessions/restore", data=stale).status == 400

    def test_unreachable_session_ids_are_rejected(self, client):
        """Routes take the id as one path segment, so an id that is not
        a non-empty string without '/' would be created but never
        reached again, not even to delete it."""
        sid = create_session(client)["session_id"]
        blob = client.get(f"/sessions/{sid}/checkpoint").body
        for bad in (5, "a/b", ""):
            created = client.post("/sessions", json={
                "scenario": tiny_scenario().to_dict(), "session_id": bad,
            })
            assert created.status == 400, bad
            assert "session id" in created.json()["error"]
            forked = client.post(
                f"/sessions/{sid}/fork", json={"session_id": bad}
            )
            assert forked.status == 400, bad
        restored = client.post(
            "/sessions/restore?session_id=a%2Fb", data=blob
        )
        assert restored.status == 400
        listing = client.get("/sessions").json()["sessions"]
        assert [entry["session_id"] for entry in listing] == [sid]

    def test_engine_soa_session(self, client):
        status = create_session(client, engine="soa")
        sid = status["session_id"]
        done = client.post(f"/sessions/{sid}/tick?n=100000").json()
        assert done["done"]
        assert client.get(f"/sessions/{sid}/results").status == 200


class TestConcurrentSessions:
    def test_eight_sessions_round_robin(self, client):
        """≥8 live sessions advance independently and each finishes
        bit-identical to its own dense-oracle reference."""
        scenarios = [
            tiny_scenario(name=f"twin-{i}", seed=i, closed=i % 2 == 0)
            for i in range(8)
        ]
        ids = []
        for i, scenario in enumerate(scenarios):
            status = create_session(
                client, scenario=scenario,
                engine="event" if i % 2 == 0 else "soa",
            )
            ids.append(status["session_id"])
        assert len(set(ids)) == 8
        assert client.get("/healthz").json()["sessions"] == 8

        # Interleave ticks of different sizes across all sessions.
        steps = {sid: 0 for sid in ids}
        for round_no in range(4):
            for i, sid in enumerate(ids):
                n = 13 + 7 * ((i + round_no) % 3)
                payload = client.post(f"/sessions/{sid}/tick?n={n}").json()
                steps[sid] += n
                assert payload["step"] == min(
                    steps[sid], payload["n_steps"]
                )
        for sid in ids:
            client.post(f"/sessions/{sid}/tick?n=100000")

        for sid, scenario in zip(ids, scenarios):
            summaries = client.get(f"/sessions/{sid}/results").json()[
                "results"
            ]
            want = dense_summaries(scenario)
            for name, summary in summaries.items():
                assert summary == want[name], (sid, name)


class TestHttpxTransport:
    def test_via_httpx_asgi_transport(self):
        """Real-transport compatibility, run when the serve extra is
        installed (the dedicated CI leg); skipped otherwise."""
        httpx = pytest.importorskip("httpx")
        import asyncio

        async def drive():
            transport = httpx.ASGITransport(app=create_app())
            async with httpx.AsyncClient(
                transport=transport, base_url="http://twin"
            ) as http:
                health = await http.get("/healthz")
                assert health.json()["ok"] is True
                created = await http.post(
                    "/sessions",
                    json={"scenario": tiny_scenario().to_dict()},
                )
                assert created.status_code == 201
                sid = created.json()["session_id"]
                ticked = await http.post(f"/sessions/{sid}/tick?n=25")
                assert ticked.json()["step"] == 25
                blob = await http.get(f"/sessions/{sid}/checkpoint")
                restored = await http.post(
                    "/sessions/restore", content=blob.content
                )
                assert restored.status_code == 201
                assert restored.json()["step"] == 25

        asyncio.run(drive())
