"""Dependency-free ASGI application over a :class:`SessionRegistry`.

The digital-twin API is deliberately small and speaks plain JSON (plus
raw bytes for checkpoints), so it runs under any ASGI server — the
``serve`` extra installs uvicorn — while the endpoint tests drive the
app coroutine directly through :mod:`repro.serve.testing` with no HTTP
stack at all.

Routes (all JSON unless noted):

========  =================================  ==============================
Method    Path                               Action
========  =================================  ==============================
GET       /healthz                           liveness probe
GET       /sessions                          list session ids + steps
POST      /sessions                          create from a scenario spec
POST      /sessions/restore                  create from a checkpoint blob
GET       /sessions/{id}/status              live status + summary
POST      /sessions/{id}/tick?n=60           advance ``n`` steps
POST      /sessions/{id}/inject              queue a perturbation
GET       /sessions/{id}/audit?last_n=20     append-only action log
GET       /sessions/{id}/results             final summaries (done only)
POST      /sessions/{id}/fork                independent copy
GET       /sessions/{id}/checkpoint          raw blob (octet-stream)
DELETE    /sessions/{id}                     forget the session
========  =================================  ==============================

``POST /sessions`` body::

    {"scenario": {...Scenario.to_dict()...},   # optional sections may
                                               # be omitted (defaults)
     "engine": "event" | "soa",                # two names for the one
                                               # step-kernel path
     "session_id": "optional-id",
     "seed": 0,
     "record_events": true}

Every session runs the step kernel; any ``engine`` other than the two
names for it is a 400 (the dense object-model oracle is a test
reference, not served).  Every route under ``/sessions`` except the
listing runs inside a ``serve.request`` span tagged with the session
id and its action (``create``, ``restore``, ``tick``, ``delete``,
...).  Errors map to ``{"error": ...}`` with 400
(:class:`SessionError` / bad input), 404
(:class:`UnknownSessionError` or an unknown route), or 405.
"""

from __future__ import annotations

import json
from urllib.parse import parse_qs

from .. import obs
from ..errors import ReproError, SessionError, UnknownSessionError
from .registry import SessionRegistry

__all__ = ["create_app"]

_MAX_BODY = 256 * 1024 * 1024


async def _read_body(receive) -> bytes:
    chunks: list[bytes] = []
    total = 0
    while True:
        message = await receive()
        if message["type"] != "http.request":
            continue
        chunk = message.get("body", b"")
        total += len(chunk)
        if total > _MAX_BODY:
            raise SessionError("request body too large")
        if chunk:
            chunks.append(chunk)
        if not message.get("more_body"):
            return b"".join(chunks)


async def _send_response(
    send, status: int, body: bytes, content_type: str
) -> None:
    await send({
        "type": "http.response.start",
        "status": status,
        "headers": [
            (b"content-type", content_type.encode()),
            (b"content-length", str(len(body)).encode()),
        ],
    })
    await send({"type": "http.response.body", "body": body})


async def _send_json(send, status: int, payload: dict) -> None:
    body = json.dumps(payload).encode()
    await _send_response(send, status, body, "application/json")


def _json_body(raw: bytes) -> dict:
    if not raw:
        return {}
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise SessionError(f"request body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SessionError("request body must be a JSON object")
    return payload


def _query(scope) -> dict[str, str]:
    raw = scope.get("query_string", b"").decode()
    return {k: v[-1] for k, v in parse_qs(raw).items()}


def create_app(registry: SessionRegistry | None = None):
    """Build the ASGI callable; the registry rides on ``app.registry``.

    Args:
        registry: Session store to expose; a fresh one when omitted
            (each app instance then owns its sessions).
    """
    if registry is None:
        registry = SessionRegistry()

    async def app(scope, receive, send):
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await send({"type": "lifespan.shutdown.complete"})
                    return
            return
        if scope["type"] != "http":
            raise RuntimeError(f"unsupported scope: {scope['type']}")
        method = scope["method"].upper()
        path = scope["path"].rstrip("/") or "/"
        try:
            await _route(method, path, scope, receive, send)
        except UnknownSessionError as exc:
            await _send_json(send, 404, {"error": str(exc)})
        except ReproError as exc:
            await _send_json(send, 400, {"error": str(exc)})
        except (KeyError, TypeError, ValueError) as exc:
            await _send_json(send, 400, {"error": f"bad request: {exc}"})

    async def _route(method, path, scope, receive, send):
        if path == "/healthz" and method == "GET":
            await _send_json(
                send, 200, {"ok": True, "sessions": len(registry)}
            )
            return
        if path == "/sessions":
            if method == "GET":
                await _send_json(send, 200, {
                    "sessions": [
                        {
                            "session_id": s.session_id,
                            "engine": s.engine,
                            "step": s.step,
                            "n_steps": s.n,
                            "done": s.done,
                            "sites": s.site_names,
                        }
                        for s in registry
                    ]
                })
                return
            if method == "POST":
                await _create_session(receive, send)
                return
            await _send_json(send, 405, {"error": "method not allowed"})
            return
        if path == "/sessions/restore" and method == "POST":
            with obs.span("serve.request", action="restore") as span:
                blob = await _read_body(receive)
                session = registry.restore(
                    blob, session_id=_query(scope).get("session_id")
                )
                span.set(session=session.session_id)
                await _send_json(send, 201, session.status())
            return
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "sessions":
            session_id = parts[1]
            action = parts[2] if len(parts) == 3 else None
            await _session_route(
                method, session_id, action, scope, receive, send
            )
            return
        await _send_json(send, 404, {"error": f"no route: {path}"})

    async def _create_session(receive, send):
        with obs.span("serve.request", action="create") as span:
            payload = _json_body(await _read_body(receive))
            scenario = payload.get("scenario")
            if not isinstance(scenario, dict):
                raise SessionError(
                    "POST /sessions needs a 'scenario' object"
                    " (Scenario.to_dict form)"
                )
            session = registry.create_from_scenario(
                scenario,
                engine=payload.get("engine", "event"),
                record_events=bool(payload.get("record_events", True)),
                session_id=payload.get("session_id"),
                seed=int(payload.get("seed", 0)),
            )
            span.set(session=session.session_id)
            await _send_json(send, 201, session.status())

    async def _session_route(
        method, session_id, action, scope, receive, send
    ):
        if action is None and method == "DELETE":
            with obs.span(
                "serve.request", session=session_id, action="delete"
            ):
                registry.delete(session_id)
                await _send_json(send, 200, {"deleted": session_id})
            return
        session = registry.get(session_id)
        with obs.span(
            "serve.request", session=session_id, action=action or "get"
        ):
            if action is None and method == "GET":
                await _send_json(send, 200, session.status())
            elif action == "status" and method == "GET":
                await _send_json(send, 200, session.status())
            elif action == "tick" and method == "POST":
                n = int(_query(scope).get("n", "1"))
                await _send_json(send, 200, session.advance(n))
            elif action == "inject" and method == "POST":
                entry = session.inject(_json_body(await _read_body(receive)))
                await _send_json(send, 202, {"queued": entry})
            elif action == "audit" and method == "GET":
                last_n = _query(scope).get("last_n")
                await _send_json(send, 200, {
                    "session_id": session_id,
                    "audit": session.audit_tail(
                        int(last_n) if last_n is not None else None
                    ),
                })
            elif action == "results" and method == "GET":
                await _send_json(send, 200, {
                    "session_id": session_id,
                    "results": {
                        name: result.summary_dict()
                        for name, result in session.results().items()
                    },
                })
            elif action == "fork" and method == "POST":
                payload = _json_body(await _read_body(receive))
                clone = registry.fork(
                    session_id, new_id=payload.get("session_id")
                )
                await _send_json(send, 201, clone.status())
            elif action == "checkpoint" and method == "GET":
                await _send_response(
                    send, 200, session.checkpoint(),
                    "application/octet-stream",
                )
            else:
                await _send_json(
                    send, 405 if action in (
                        None, "status", "tick", "inject", "audit",
                        "results", "fork", "checkpoint",
                    ) else 404,
                    {"error": f"no route: {action or 'session'} {method}"},
                )

    app.registry = registry
    return app
