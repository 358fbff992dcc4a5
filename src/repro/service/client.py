"""A blocking client for the compile service.

:class:`ServiceClient` owns one persistent connection to the daemon's
unix socket and exposes one method per protocol op.  It is deliberately
synchronous — the CLI, the load generator's worker threads, and tests
all want straight-line request/reply code; concurrency comes from many
clients (or many threads, one client each), which is exactly the shape
the daemon is built to serve.

``request()`` returns the decoded :class:`~repro.service.protocol.Response`
(inspect ``.ok``/``.error``/``.cached`` yourself); the convenience
methods (:meth:`optimize`, :meth:`run`, ...) raise
:class:`ServiceError` on error replies instead.

Every request mints a fresh W3C-shaped trace context
(:mod:`repro.obs.tracecontext`) and sends it as the ``traceparent``
field; the daemon binds its spans for the request under those ids.  A
client constructed with a real ``tracer`` additionally opens a
``service.client`` span per request carrying the same hex ids in its
meta, so exporting the client trace *together with* the daemon's
``service.jsonl`` stitches client → daemon → worker into one tree
(``repro export chrome client.jsonl service.jsonl``).
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import asdict, is_dataclass

from ..obs import NULL_TRACER
from ..obs.tracecontext import format_traceparent, mint_span_id, mint_trace_id
from .protocol import MAX_LINE_BYTES, ProtocolError, Request, Response, decode_response


class ServiceError(RuntimeError):
    """The daemon answered with an error reply."""


class ServiceClient:
    """One connection to a running ``repro serve`` daemon.

    ``connect_retries`` > 0 makes :meth:`connect` retry a missing or
    not-yet-listening socket with exponential backoff plus jitter —
    the fix for the ``--self-host`` startup race where a client's first
    connect can beat the daemon's bind.
    """

    def __init__(
        self,
        socket_path: str,
        *,
        timeout: float = 300.0,
        tenant: str = "default",
        connect: bool = True,
        connect_retries: int = 0,
        retry_backoff: float = 0.05,
        tracer=NULL_TRACER,
    ) -> None:
        self.socket_path = socket_path
        self.timeout = timeout
        self.tenant = tenant
        self.connect_retries = max(0, connect_retries)
        self.retry_backoff = retry_backoff
        self.tracer = tracer
        #: Correlation ids of the most recent request (tests, triage).
        self.last_trace_id: str | None = None
        self.last_traceparent: str | None = None
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 1
        if connect:
            self.connect()

    # ------------------------------------------------------------------
    # Connection plumbing.

    def connect(self) -> "ServiceClient":
        if self._sock is not None:
            return self
        attempt = 0
        while True:
            try:
                self._connect_once()
                return self
            except (FileNotFoundError, ConnectionRefusedError):
                # The daemon has not bound (yet) — retriable; anything
                # else (permissions, a non-socket path) is not.
                if attempt >= self.connect_retries:
                    raise
                delay = self.retry_backoff * (2**attempt)
                time.sleep(delay * (0.5 + random.random()))
                attempt += 1

    def _connect_once(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._file = sock.makefile("rwb")

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The raw request/reply cycle.

    def request(
        self,
        op: str,
        *,
        source: str | None = None,
        path: str | None = None,
        config: object = None,
        build: str = "inline",
        timeout: float | None = None,
        max_steps: int | None = None,
        max_heap_cells: int | None = None,
    ) -> Response:
        """Send one request and block for its reply."""
        self.connect()
        if is_dataclass(config) and not isinstance(config, type):
            config = asdict(config)
        trace_id = mint_trace_id()
        span_id = mint_span_id()
        traceparent = format_traceparent(trace_id, span_id)
        self.last_trace_id = trace_id
        self.last_traceparent = traceparent
        request = Request(
            op=op,
            id=self._next_id,
            source=source,
            path=path,
            config=config,
            build=build,
            tenant=self.tenant,
            timeout=timeout,
            max_steps=max_steps,
            max_heap_cells=max_heap_cells,
            traceparent=traceparent,
        )
        self._next_id += 1
        with self.tracer.span(
            "service.client", op=op, trace_id=trace_id, span_id=span_id
        ):
            self._file.write(request.encode())
            self._file.flush()
            line = self._file.readline(MAX_LINE_BYTES + 1)
        if not line:
            self.close()
            raise ServiceError(
                f"daemon at {self.socket_path} closed the connection mid-request"
            )
        try:
            response = decode_response(line)
        except ProtocolError as error:
            raise ServiceError(f"bad response from daemon: {error}") from None
        if response.id is not None and response.id != request.id:
            raise ServiceError(
                f"response id {response.id!r} does not match request {request.id!r}"
            )
        return response

    def _checked(self, response: Response) -> Response:
        if not response.ok:
            raise ServiceError(response.error or "service error")
        return response

    # ------------------------------------------------------------------
    # Convenience ops (raise ServiceError on error replies).

    def ping(self) -> bool:
        return self._checked(self.request("ping")).result == "pong"

    def metrics(self) -> dict:
        """The daemon's live metrics-registry snapshot (read-only)."""
        return self._checked(self.request("metrics")).result

    def compile(self, source: str, path: str | None = None) -> Response:
        return self._checked(self.request("compile", source=source, path=path))

    def analyze(self, source: str, config: object = None, **kw) -> Response:
        return self._checked(self.request("analyze", source=source, config=config, **kw))

    def optimize(self, source: str, config: object = None, **kw) -> Response:
        return self._checked(self.request("optimize", source=source, config=config, **kw))

    def run(
        self, source: str, build: str = "inline", config: object = None, **kw
    ) -> Response:
        return self._checked(
            self.request("run", source=source, build=build, config=config, **kw)
        )

    def shutdown(self) -> Response:
        return self._checked(self.request("shutdown"))
