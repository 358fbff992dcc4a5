"""The service wire protocol: newline-delimited JSON over a local socket.

One request per line, one response per line, always in order per
connection (a client may pipeline: responses carry the request ``id``).
The schema is additive — unknown request fields are ignored, so clients
and daemons can skew by a version (same contract as the trace format).

Request::

    {"id": 1, "op": "optimize", "source": "def main() { ... }",
     "config": {"inline": true, ...},       # CompileConfig.to_dict()
     "build": "inline",                     # run op: which build to execute
     "tenant": "ci",                        # session-pool lane (optional)
     "timeout": 5.0}                        # per-request seconds (optional)

Response::

    {"id": 1, "ok": true, "result": {...},
     "cached": true,          # answered from the artifact store
     "coalesced": false,      # joined an identical in-flight request
     "elapsed_ms": 0.41}
    {"id": 2, "ok": false, "error": "timeout after 5.0s"}

Ops: ``ping`` (liveness), ``compile`` (parse+lower, answered in-process),
``analyze`` / ``optimize`` / ``run`` (CPU-bound; dispatched to the worker
pool through the artifact store), ``metrics`` (read-only canonical
snapshot of the live metrics registry, the daemon's only counter store,
see :mod:`repro.obs.metrics`), ``shutdown`` (graceful drain).  ``crash``
kills the worker mid-request and exists only for robustness tests (the
daemon rejects it unless started with ``allow_test_ops``).

Requests may carry a ``traceparent`` field (W3C shape,
``00-{trace_id}-{parent_span_id}-01``): the daemon binds its spans for
that request under the client-minted ids so the merged trace stitches
into one tree per request.  Malformed values are ignored, never fatal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Ops the daemon understands.  ``crash`` is test-only.
OPS = (
    "ping", "compile", "analyze", "optimize", "run", "metrics", "shutdown", "crash",
)

#: Ops that carry source text and are answered through the worker pool
#: and the artifact store.
WORK_OPS = ("analyze", "optimize", "run", "crash")

#: A line longer than this is a protocol error, not a buffering attempt.
MAX_LINE_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed request or response line."""


@dataclass(slots=True)
class Request:
    """One decoded client request."""

    op: str
    id: int | str | None = None
    source: str | None = None
    path: str | None = None
    config: dict | None = None  # CompileConfig.to_dict() shape
    build: str = "inline"
    tenant: str = "default"
    timeout: float | None = None
    #: Run-op resource budgets (steps / heap cells); ``None`` = unlimited.
    #: Budgets change the answer (result vs. clean ResourceLimitError
    #: reply), so the daemon folds them into the artifact address.
    max_steps: int | None = None
    max_heap_cells: int | None = None
    #: W3C-shaped trace context (``00-{trace_id}-{span_id}-01``) minted
    #: by the client; additive, so old daemons simply ignore it.
    traceparent: str | None = None

    def encode(self) -> bytes:
        payload: dict = {"op": self.op}
        if self.id is not None:
            payload["id"] = self.id
        for name in (
            "source", "path", "config", "timeout",
            "max_steps", "max_heap_cells", "traceparent",
        ):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.build != "inline":
            payload["build"] = self.build
        if self.tenant != "default":
            payload["tenant"] = self.tenant
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        ) + b"\n"


@dataclass(slots=True)
class Response:
    """One decoded daemon response."""

    id: int | str | None = None
    ok: bool = True
    result: object = None
    error: str | None = None
    cached: bool = False
    coalesced: bool = False
    elapsed_ms: float | None = None
    #: Pre-encoded canonical ``result`` JSON (no whitespace, sorted keys).
    #: When set, :meth:`encode` splices these bytes verbatim instead of
    #: re-serializing ``result`` — the warm path serves the byte string
    #: the artifact store remembered from the cold compile.
    result_bytes: bytes | None = None

    def encode(self) -> bytes:
        if self.ok:
            payload: dict = {"id": self.id, "ok": True}
            if self.result_bytes is None:
                payload["result"] = self.result
            if self.cached:
                payload["cached"] = True
            if self.coalesced:
                payload["coalesced"] = True
        else:
            payload = {"id": self.id, "ok": False, "error": self.error or "error"}
        if self.elapsed_ms is not None:
            payload["elapsed_ms"] = round(self.elapsed_ms, 3)
        # sort_keys: one canonical byte encoding, so the differential
        # tests can compare warm and cold replies bit-for-bit.
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        if self.ok and self.result_bytes is not None:
            # "result" sorts after every other ok-path key ("cached",
            # "coalesced", "elapsed_ms", "id", "ok"), so splicing it last
            # reproduces json.dumps(sort_keys=True) byte-for-byte.
            encoded = encoded[:-1] + b',"result":' + self.result_bytes + b"}"
        return encoded + b"\n"


def _decode_line(line: bytes | str, what: str) -> dict:
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"{what} line exceeds {MAX_LINE_BYTES} bytes")
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError(f"empty {what} line")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"{what} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def decode_request(line: bytes | str) -> Request:
    """Parse one request line (raises :class:`ProtocolError`)."""
    payload = _decode_line(line, "request")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {', '.join(OPS)})")
    if op in WORK_OPS or op == "compile":
        if not isinstance(payload.get("source"), str):
            raise ProtocolError(f"op {op!r} requires a string `source`")
    config = payload.get("config")
    if config is not None and not isinstance(config, dict):
        raise ProtocolError("`config` must be an object (CompileConfig.to_dict())")
    timeout = payload.get("timeout")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout <= 0:
            raise ProtocolError("`timeout` must be a positive number of seconds")
        timeout = float(timeout)
    budgets = {}
    for name in ("max_steps", "max_heap_cells"):
        value = payload.get(name)
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ProtocolError(f"`{name}` must be a positive integer")
        budgets[name] = value
    return Request(
        op=op,
        id=payload.get("id"),
        source=payload.get("source"),
        path=payload.get("path") if isinstance(payload.get("path"), str) else None,
        config=config,
        build=payload.get("build") if isinstance(payload.get("build"), str) else "inline",
        tenant=payload.get("tenant") if isinstance(payload.get("tenant"), str) else "default",
        timeout=timeout,
        max_steps=budgets["max_steps"],
        max_heap_cells=budgets["max_heap_cells"],
        traceparent=(
            payload.get("traceparent")
            if isinstance(payload.get("traceparent"), str)
            else None
        ),
    )


def decode_response(line: bytes | str) -> Response:
    """Parse one response line (raises :class:`ProtocolError`)."""
    payload = _decode_line(line, "response")
    if "ok" not in payload:
        raise ProtocolError("response is missing `ok`")
    return Response(
        id=payload.get("id"),
        ok=bool(payload.get("ok")),
        result=payload.get("result"),
        error=payload.get("error"),
        cached=bool(payload.get("cached", False)),
        coalesced=bool(payload.get("coalesced", False)),
        elapsed_ms=payload.get("elapsed_ms"),
    )
