"""The asyncio compile daemon (``repro serve``).

One long-lived process turns the compile pipeline into a service:

- **Front end** — an asyncio unix-socket server speaking the
  newline-delimited JSON protocol (:mod:`repro.service.protocol`).
  Connections are cheap and persistent; requests on one connection are
  answered in order, and many connections are served concurrently.
- **Artifact cache** — every ``analyze``/``optimize``/``run`` answer is
  addressed by ``(op, source hash, config hash)`` in a content-addressed
  :class:`~repro.service.store.ArtifactStore`; exact repeats are
  answered from the store without touching a worker.  Identical
  **in-flight** requests are coalesced: N concurrent compiles of the
  same program dispatch one worker task and share its reply.
- **Worker pool** — CPU-bound work runs in a
  :class:`~concurrent.futures.ProcessPoolExecutor` via
  :func:`repro.service.worker.service_work`.  A crashed worker breaks
  the pool; the daemon rebuilds it and **requeues the request once** —
  a second failure becomes an error reply, never daemon death, and
  innocent requests caught in the same pool break are requeued too.
- **Robustness** — per-request timeouts (client-supplied or the
  daemon default) bound every reply; timed-out work keeps running and
  still lands in the store, so a retry usually hits cache.  Graceful
  shutdown (the ``shutdown`` op, or SIGINT/SIGTERM under the CLI) stops
  accepting work, drains in-flight requests, and only then exits.
- **Tracing** — with ``trace_dir`` set, each daemon run creates its own
  ``run-<stamp>-<pid>/`` directory and streams ``service.jsonl`` there:
  request/cache events plus every worker's span shard merged in as its
  own lane, so ``repro export chrome`` renders a multi-lane service
  trace with no manual merging.
- **Metrics** — every service fact (requests, errors, store outcomes,
  coalescing, crashes, faults, worker timings) is counted once, in the
  daemon's :class:`~repro.obs.metrics.MetricsRegistry`; the ``metrics``
  op returns its snapshot, and ``repro serve``'s closing line and the
  ``service.shutdown`` record read the same registry.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket as socket_module
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..analysis import AnalysisConfig
from ..obs import NULL_TRACER, tracer_to_file
from ..obs.metrics import MetricsRegistry
from ..obs.tracecontext import mint_span_id, parse_traceparent
from ..session import SessionPool
from .faults import FaultPlan, InjectedFault
from .protocol import ProtocolError, Request, Response, decode_request
from .store import ArtifactKey, ArtifactStore
from .worker import config_from_dict, service_work

#: Default local socket (override with ``--socket``).
DEFAULT_SOCKET_PATH = "/tmp/repro-service.sock"

#: Default per-request timeout (seconds); clients may lower it per call.
DEFAULT_REQUEST_TIMEOUT = 120.0

#: How long a graceful shutdown waits for in-flight requests.
DEFAULT_DRAIN_TIMEOUT = 30.0

#: Default latency/error SLO targets (``repro metrics`` renders burn
#: against these; override with ``--slo-p99`` / ``--slo-error-rate``).
DEFAULT_SLO_P99 = 0.25
DEFAULT_SLO_ERROR_RATE = 0.01


class WorkerCrashed(RuntimeError):
    """A request's worker died twice (original + one requeue)."""


class _RequestTrace:
    """One request's trace binding inside the daemon.

    ``lane`` is a per-request :meth:`Tracer.child` (the daemon's event
    loop interleaves requests, and a tracer's span stack is
    single-owner); ``trace_id`` is the client-minted hex id (``None``
    when the request carried no usable traceparent) and ``accept_hex``
    the hex id of the daemon's accept span — the parent the dispatch
    span names.
    """

    __slots__ = ("lane", "trace_id", "parent_hex", "accept_hex")

    def __init__(
        self,
        lane,
        trace_id: str | None,
        parent_hex: str | None,
        accept_hex: str | None,
    ) -> None:
        self.lane = lane
        self.trace_id = trace_id
        self.parent_hex = parent_hex
        self.accept_hex = accept_hex


#: The inert request binding used whenever the daemon is untraced.
_NULL_REQUEST_TRACE = _RequestTrace(NULL_TRACER, None, None, None)


def make_run_dir(base: str) -> str:
    """A fresh ``run-<stamp>-<pid>[.N]/`` directory under ``base``.

    Every daemon run owns one directory for its trace shards, so
    concurrent or successive daemons never clobber each other's traces.
    """
    os.makedirs(base, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = os.path.join(base, f"run-{stamp}-{os.getpid()}")
    suffix = 0
    path = candidate
    while True:
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            suffix += 1
            path = f"{candidate}.{suffix}"


class ReproService:
    """The compile-as-a-service daemon (see the module docstring)."""

    def __init__(
        self,
        socket_path: str = DEFAULT_SOCKET_PATH,
        *,
        workers: int = 2,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        store_entries: int = 256,
        store_bytes: int | None = None,
        trace_dir: str | None = None,
        analysis: AnalysisConfig | None = None,
        allow_test_ops: bool = False,
        fault_plan: FaultPlan | None = None,
        slo_p99: float = DEFAULT_SLO_P99,
        slo_error_rate: float = DEFAULT_SLO_ERROR_RATE,
    ) -> None:
        self.socket_path = socket_path
        self.workers = max(1, workers)
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.allow_test_ops = allow_test_ops
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.run_dir: str | None = None
        if trace_dir is not None:
            self.run_dir = make_run_dir(trace_dir)
            self.tracer = tracer_to_file(os.path.join(self.run_dir, "service.jsonl"))
        else:
            self.tracer = NULL_TRACER
        #: Always-on live metrics (cheap dict updates; the ``metrics`` op
        #: and ``repro metrics`` read a snapshot of this registry).
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_requests = m.counter(
            "service_requests_total", "Requests received, by op", labels=("op",)
        )
        self._m_errors = m.counter(
            "service_errors_total", "Error replies, by op", labels=("op",)
        )
        self._m_timeouts = m.counter(
            "service_timeouts_total", "Requests that hit their timeout"
        )
        self._m_request_seconds = m.histogram(
            "service_request_seconds",
            "Request wall time as seen by the daemon",
            labels=("op", "code"),
        )
        self._m_queue_depth = m.gauge(
            "service_queue_depth", "Requests currently being handled"
        )
        self._m_inflight = m.gauge(
            "service_inflight_dispatches", "Distinct worker dispatches in flight"
        )
        self._m_coalesced = m.counter(
            "service_coalesced_total", "Requests that joined an in-flight dispatch"
        )
        self._m_coalesce_width = m.histogram(
            "service_coalesce_width",
            "Requests sharing one worker dispatch",
            buckets=(1, 2, 4, 8, 16, 32),
        )
        self._m_crashes = m.counter(
            "service_worker_crashes_total", "Worker-pool breaks observed"
        )
        self._m_rebuilds = m.counter(
            "service_pool_rebuilds_total", "Worker pools rebuilt after a break"
        )
        self._m_faults = m.counter(
            "service_faults_total", "Injected chaos faults", labels=("kind",)
        )
        self._m_uptime = m.gauge("service_uptime_seconds", "Daemon uptime")
        self._m_drain = m.gauge(
            "service_drain_seconds", "Wall time of the last graceful drain"
        )
        m.gauge("service_slo_p99_seconds", "Configured p99 latency target").set(slo_p99)
        m.gauge("service_slo_error_rate", "Configured error-rate target").set(
            slo_error_rate
        )
        self.slo_p99 = slo_p99
        self.slo_error_rate = slo_error_rate
        self.store = ArtifactStore(
            max_entries=store_entries, max_bytes=store_bytes, metrics=self.metrics
        )
        #: In-process sessions: the ``compile`` op and per-tenant lanes.
        self.sessions = SessionPool(config=analysis, tracer=self.tracer)
        self._analysis = analysis
        self._pool: ProcessPoolExecutor | None = None
        self._inflight: dict[ArtifactKey, asyncio.Task] = {}
        #: Per-inflight-key coalesce bookkeeping: waiter count (observed
        #: into the width histogram when the dispatch resolves) and the
        #: dispatch span's hex id (the target coalesced requests link to).
        self._inflight_waiters: dict[ArtifactKey, int] = {}
        self._inflight_hex: dict[ArtifactKey, str | None] = {}
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._busy = 0
        self._idle: asyncio.Event | None = None
        self._stopping: asyncio.Event | None = None
        self._started_at = time.monotonic()
        self._loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # Lifecycle.

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopping = asyncio.Event()
        self._started_at = time.monotonic()
        self._claim_socket()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path
        )
        self.tracer.event("service.start", socket=self.socket_path, workers=self.workers)
        if self.fault_plan.active:
            self.tracer.event("service.fault_plan", **self.fault_plan.to_dict())

    def _claim_socket(self) -> None:
        """Take over the socket path — but never a *live* daemon's.

        A path left behind by a SIGKILLed daemon still exists on disk but
        nothing is listening; a connect probe tells the two cases apart.
        Stale sockets are unlinked and rebound, live ones are an error
        (silently stealing a serving daemon's socket would strand it).
        """
        if not os.path.exists(self.socket_path):
            return
        probe = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(self.socket_path)
        except (ConnectionRefusedError, FileNotFoundError, OSError):
            self.tracer.event("service.stale_socket", socket=self.socket_path)
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
        else:
            raise RuntimeError(
                f"another daemon is already listening on {self.socket_path}"
            )
        finally:
            probe.close()

    async def serve(self) -> None:
        """Run until a graceful shutdown is requested, then drain."""
        if self._server is None:
            await self.start()
        try:
            await self._stopping.wait()
        finally:
            await self._drain_and_close()

    def request_shutdown(self) -> None:
        """Flip the stop flag (safe from any thread via its loop)."""
        if self._loop is None or self._stopping is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stopping.set)
        except RuntimeError:
            pass  # loop already closed: nothing left to stop

    async def _drain_and_close(self) -> None:
        drain_started = time.perf_counter()
        # 1. No new connections.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # 2. Drain: wait for every in-flight request to answer.
        if self._busy:
            try:
                await asyncio.wait_for(self._idle.wait(), self.drain_timeout)
            except asyncio.TimeoutError:
                pass
        # 3. Unblock idle connections (readline sees EOF) and wait for
        #    the handler tasks to unwind cleanly.
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*self._conn_tasks, return_exceptions=True), 5.0
                )
            except asyncio.TimeoutError:
                pass
        # 4. Release the pool, merge tenant trace lanes, close the trace.
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.sessions.close()
        drain_s = time.perf_counter() - drain_started
        self._m_drain.set(round(drain_s, 6))
        self._refresh_gauges()
        # The terminal record: a trace directory ending in
        # ``service.shutdown`` drained cleanly; one that just stops is a
        # crash or a SIGKILL.  The final registry snapshot makes
        # postmortem triage start from numbers (``digest()`` condenses it).
        self.tracer.event(
            "service.shutdown",
            uptime_s=round(time.monotonic() - self._started_at, 3),
            drain_s=round(drain_s, 6),
            metrics=self.metrics.to_dict(),
        )
        self.tracer.close()
        if os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Connections.

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                self._busy += 1
                self._idle.clear()
                try:
                    response = await self._handle_line(line)
                    writer.write(response.encode())
                    await writer.drain()
                except (ConnectionError, BrokenPipeError):
                    break
                finally:
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle.set()
        except asyncio.CancelledError:
            pass  # loop teardown while idle in readline
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()

    async def _handle_line(self, line: bytes) -> Response:
        started = time.perf_counter()
        try:
            request = decode_request(line)
        except ProtocolError as error:
            # A line that does not decode is still a request: counting it
            # keeps the error rate a fraction of the requests.
            self._m_requests.labels(op="invalid").inc()
            self._m_errors.labels(op="invalid").inc()
            return Response(ok=False, error=str(error))
        self._m_requests.labels(op=request.op).inc()
        self._m_queue_depth.set(self._busy)
        rctx = self._bind_request_trace(request)
        try:
            with rctx.lane.span(
                "service.accept", **self._accept_meta(request, rctx)
            ):
                response = await self._handle_request(request, rctx)
        except asyncio.TimeoutError:
            self._m_timeouts.inc()
            timeout = request.timeout or self.request_timeout
            response = Response(
                id=request.id, ok=False, error=f"timeout after {timeout:g}s"
            )
        except WorkerCrashed as error:
            response = Response(id=request.id, ok=False, error=str(error))
        except InjectedFault as error:
            # Chaos mode: the worker raised before any product existed,
            # so the daemon attributes the fault (see service_work).
            self._m_faults.labels(kind="error").inc()
            response = Response(
                id=request.id, ok=False, error=f"{type(error).__name__}: {error}"
            )
        except Exception as error:  # compile errors, bad configs, ...
            response = Response(
                id=request.id, ok=False, error=f"{type(error).__name__}: {error}"
            )
        finally:
            if rctx.lane is not NULL_TRACER:
                self.tracer.merge(rctx.lane)
        if not response.ok:
            self._m_errors.labels(op=request.op).inc()
        response.elapsed_ms = (time.perf_counter() - started) * 1e3
        self._m_request_seconds.labels(
            op=request.op, code="ok" if response.ok else "error"
        ).observe(response.elapsed_ms / 1e3)
        self.tracer.event(
            "service.request",
            op=request.op,
            ok=response.ok,
            cached=response.cached,
            coalesced=response.coalesced,
            ms=round(response.elapsed_ms, 3),
        )
        return response

    def _bind_request_trace(self, request: Request) -> _RequestTrace:
        """The per-request tracer lane + propagated hex ids (or the
        shared inert binding when the daemon is untraced)."""
        if not self.tracer.enabled:
            return _NULL_REQUEST_TRACE
        ctx = parse_traceparent(request.traceparent)
        return _RequestTrace(
            lane=self.tracer.child(),
            trace_id=ctx.trace_id if ctx is not None else None,
            parent_hex=ctx.span_id if ctx is not None else None,
            accept_hex=mint_span_id(),
        )

    @staticmethod
    def _accept_meta(request: Request, rctx: _RequestTrace) -> dict:
        meta: dict = {"op": request.op}
        if rctx.accept_hex is not None:
            meta["span_id"] = rctx.accept_hex
        if rctx.trace_id is not None:
            meta["trace_id"] = rctx.trace_id
        if rctx.parent_hex is not None:
            meta["parent_span"] = rctx.parent_hex
        return meta

    # ------------------------------------------------------------------
    # Request handling.

    async def _handle_request(
        self, request: Request, rctx: _RequestTrace = _NULL_REQUEST_TRACE
    ) -> Response:
        op = request.op
        if op == "ping":
            return Response(id=request.id, result="pong")
        if op == "metrics":
            self._refresh_gauges()
            return Response(id=request.id, result=self.metrics.to_dict())
        if op == "shutdown":
            # Reply first; the drain starts once this response is on the
            # wire (the connection loop holds the busy count until then).
            asyncio.get_running_loop().call_soon(self._stopping.set)
            return Response(id=request.id, result="draining")
        if op == "compile":
            # Parse + lower is cheap enough to answer on the event loop,
            # through the per-tenant session pool.
            session = self.sessions.session(
                request.source, tenant=request.tenant, path=request.path
            )
            program = session.compile()
            return Response(
                id=request.id,
                result={
                    "op": "compile",
                    "classes": len(program.classes),
                    "functions": len(program.functions),
                    "callables": sum(1 for _ in program.callables()),
                },
            )
        if op == "crash" and not self.allow_test_ops:
            return Response(
                id=request.id, ok=False, error="op 'crash' requires --allow-test-ops"
            )
        return await self._dispatch_work(request, rctx)

    async def _dispatch_work(
        self, request: Request, rctx: _RequestTrace = _NULL_REQUEST_TRACE
    ) -> Response:
        config = config_from_dict(request.config).resolved(self._analysis)
        extra = ""
        if request.op == "run":
            extra = request.build
            # Budgets change the reply (result vs. clean resource-limit
            # error), so they are part of the artifact's address.
            if request.max_steps is not None or request.max_heap_cells is not None:
                extra += f":steps={request.max_steps}:cells={request.max_heap_cells}"
        key = ArtifactKey.for_request(request.op, request.source, config, extra=extra)
        timeout = request.timeout or self.request_timeout
        # Warm path: content-addressed artifact store.  The store keeps
        # the reply in its canonical wire encoding, so a warm hit serves
        # the stored bytes without unpickling the artifact or
        # re-serializing the reply per request.
        with rctx.lane.span("service.cache", op=request.op):
            reply_bytes = self.store.get_reply_bytes(key)
            if reply_bytes is None:
                artifact = self.store.get(key)
            else:
                artifact = None
        if reply_bytes is not None:
            return Response(id=request.id, result_bytes=reply_bytes, cached=True)
        if artifact is not None:
            return Response(id=request.id, result=artifact["reply"], cached=True)
        # In-flight coalescing: identical concurrent requests share one
        # worker dispatch (the request-batching layer in front of the pool).
        producer = self._inflight.get(key)
        coalesced = producer is not None
        if producer is None:
            task = {
                "op": request.op,
                "source": request.source,
                "path": request.path,
                "config": config.to_dict(),
                "build": request.build,
                "tenant": request.tenant,
            }
            if request.max_steps is not None:
                task["max_steps"] = request.max_steps
            if request.max_heap_cells is not None:
                task["max_heap_cells"] = request.max_heap_cells
            if self.fault_plan.active:
                task["faults"] = self.fault_plan.to_dict()
            dispatch_hex = mint_span_id() if self.tracer.enabled else None
            if dispatch_hex is not None:
                # The worker opens its service.work span under the
                # dispatch span; hex ids survive the merge, local ids
                # don't (see repro.obs.tracecontext).
                task["trace"] = {
                    "trace_id": rctx.trace_id,
                    "parent_span": dispatch_hex,
                }
            producer = asyncio.ensure_future(
                self._produce(key, task, rctx, dispatch_hex)
            )
            # Consume the exception even if every waiter times out first.
            producer.add_done_callback(
                lambda t: t.exception() if not t.cancelled() else None
            )
            self._inflight[key] = producer
            self._inflight_hex[key] = dispatch_hex
            self._inflight_waiters[key] = 0
            self._m_inflight.set(len(self._inflight))
        self._inflight_waiters[key] = self._inflight_waiters.get(key, 0) + 1
        if coalesced:
            self._m_coalesced.inc()
            link_hex = self._inflight_hex.get(key)
            if rctx.lane.enabled and link_hex is not None:
                # A zero-duration marker span on the waiter's lane whose
                # ``link_span`` meta names the shared dispatch — the
                # chrome exporter draws it as a flow arrow.
                with rctx.lane.span(
                    "service.coalesce",
                    op=request.op,
                    span_id=mint_span_id(),
                    link_span=link_hex,
                ):
                    pass
        # shield(): a waiter's timeout must not cancel the shared work —
        # it keeps running and lands in the store for the next asker.
        reply = await asyncio.wait_for(asyncio.shield(producer), timeout)
        return Response(id=request.id, result=reply, coalesced=coalesced)

    async def _produce(
        self,
        key: ArtifactKey,
        task: dict,
        rctx: _RequestTrace = _NULL_REQUEST_TRACE,
        dispatch_hex: str | None = None,
    ) -> dict:
        """Run one work item in the pool; store the artifact on success."""
        # The producer outlives its initiating request (waiters may time
        # out while the work proceeds), so the dispatch span lives on its
        # own tracer lane, parented to the accept span by hex id.
        lane = self.tracer.child() if self.tracer.enabled else NULL_TRACER
        meta: dict = {"op": task["op"]}
        if dispatch_hex is not None:
            meta["span_id"] = dispatch_hex
            if rctx.trace_id is not None:
                meta["trace_id"] = rctx.trace_id
            if rctx.accept_hex is not None:
                meta["parent_span"] = rctx.accept_hex
        try:
            with lane.span("service.dispatch", **meta):
                product = await self._execute(task)
            if product.artifact is not None:
                if product.injected == "corrupt":
                    # Chaos mode damaged the stored blob.  Store it with
                    # *no* reply-bytes fast path: the next warm lookup
                    # must go through get() and exercise the store's
                    # corrupt-pickle-as-miss recovery (recompile), never
                    # serve bytes derived from the damaged pickle.
                    self.store.put_bytes(key, product.artifact)
                else:
                    reply_bytes = json.dumps(
                        product.reply, sort_keys=True, separators=(",", ":")
                    ).encode("utf-8")
                    self.store.put_bytes(key, product.artifact, reply_bytes=reply_bytes)
            if self.tracer.enabled:
                self.tracer.merge(product.trace)
            if product.metrics:
                self.metrics.merge_snapshot(product.metrics)
            return product.reply
        finally:
            self._inflight.pop(key, None)
            self._inflight_hex.pop(key, None)
            width = self._inflight_waiters.pop(key, 0)
            if width:
                self._m_coalesce_width.observe(width)
            self._m_inflight.set(len(self._inflight))
            if lane is not NULL_TRACER:
                self.tracer.merge(lane)

    async def _execute(self, task: dict):
        """Dispatch to the pool; rebuild + requeue once on a crash."""
        loop = asyncio.get_running_loop()
        for attempt in (1, 2):
            pool = self._ensure_pool()
            try:
                return await loop.run_in_executor(pool, service_work, task)
            except BrokenProcessPool:
                self._m_crashes.inc()
                if self.fault_plan.crash_rate > 0:
                    # A broken pool under a crash-injecting plan is (with
                    # overwhelming likelihood) the injection firing; the
                    # dead worker could not report it itself.
                    self._m_faults.labels(kind="crash").inc()
                self._discard_pool(pool)
                if attempt == 2:
                    raise WorkerCrashed(
                        f"worker died twice running op {task['op']!r}; giving up"
                    ) from None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken pool (a fresh one is built on next dispatch)."""
        if self._pool is pool:
            self._pool = None
            self._m_rebuilds.inc()
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Introspection.

    def _refresh_gauges(self) -> None:
        """Point-in-time gauges, updated at scrape (not per request)."""
        self._m_uptime.set(round(time.monotonic() - self._started_at, 3))
        self._m_inflight.set(len(self._inflight))
        self._m_queue_depth.set(self._busy)


def serve(
    socket_path: str = DEFAULT_SOCKET_PATH,
    *,
    install_signal_handlers: bool = True,
    ready: threading.Event | None = None,
    **kwargs,
) -> ReproService:
    """Blocking entry point: run a daemon until shutdown; returns it.

    ``ready`` (a :class:`threading.Event`) is set once the socket is
    bound — the hook :class:`ServiceThread` and the CLI's foreground
    banner both use.
    """
    service = ReproService(socket_path, **kwargs)

    async def _main() -> None:
        await service.start()
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, service._stopping.set)
                except (NotImplementedError, RuntimeError, ValueError):
                    break  # non-main thread / unsupported platform
        if ready is not None:
            ready.set()
        await service.serve()

    asyncio.run(_main())
    return service


class ServiceThread:
    """A daemon running on a background thread (tests, ``--self-host``).

    Usage::

        with ServiceThread(socket_path) as handle:
            client = ServiceClient(handle.socket_path)
            ...

    ``stop()`` performs the same graceful drain as the ``shutdown`` op.
    """

    def __init__(self, socket_path: str, **kwargs) -> None:
        self.socket_path = socket_path
        self.service = ReproService(socket_path, **kwargs)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        async def _main() -> None:
            await self.service.start()
            self._ready.set()
            await self.service.serve()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(_main()), name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"service did not bind {self.socket_path} in {timeout}s")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        self.service.request_shutdown()
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
