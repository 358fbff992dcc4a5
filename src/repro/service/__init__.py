"""Compile-as-a-service: the long-lived daemon around the pipeline.

The pieces, bottom-up:

- :mod:`~repro.service.store` — the content-addressed reply cache:
  ``(op, source hash, CompileConfig hash) -> canonical reply bytes``,
  LRU-bounded, counting hits, misses and evictions in the daemon's
  metrics registry.
- :mod:`~repro.service.protocol` — newline-delimited JSON over a unix
  socket (requests, responses, ops).
- :mod:`~repro.service.worker` — the process-pool entry point; each
  worker keeps a warm :class:`repro.SessionPool` so repeat sources
  reuse parsed IR and analysis fixpoints.
- :mod:`~repro.service.daemon` — the asyncio server: concurrent
  connections, in-flight request coalescing, per-request timeouts,
  worker-crash requeue, graceful drain, per-run trace directories.
- :mod:`~repro.service.client` — a blocking one-connection client.
- :mod:`~repro.service.loadgen` — the latency/throughput load
  generator.

CLI: ``repro serve`` / ``repro loadgen``.  Protocol, failure semantics,
and SLO methodology: docs/SERVICE.md.
"""

from .client import ServiceClient, ServiceError
from .faults import FAULT_PLAN_ENV, FaultPlan, InjectedFault
from .daemon import (
    DEFAULT_REQUEST_TIMEOUT,
    DEFAULT_SLO_ERROR_RATE,
    DEFAULT_SLO_P99,
    DEFAULT_SOCKET_PATH,
    ReproService,
    ServiceThread,
    WorkerCrashed,
    make_run_dir,
    serve,
)
from .loadgen import (
    LatencySummary,
    LoadgenReport,
    default_corpus,
    percentile,
    percentile_crosscheck,
    run_loadgen,
    write_report_json,
)
from .protocol import (
    OPS,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
)
from .store import ArtifactKey, ArtifactStore
from .worker import config_from_dict, service_work

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "DEFAULT_REQUEST_TIMEOUT",
    "DEFAULT_SLO_ERROR_RATE",
    "DEFAULT_SLO_P99",
    "DEFAULT_SOCKET_PATH",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "InjectedFault",
    "LatencySummary",
    "LoadgenReport",
    "OPS",
    "ProtocolError",
    "ReproService",
    "Request",
    "Response",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "WorkerCrashed",
    "config_from_dict",
    "decode_request",
    "decode_response",
    "default_corpus",
    "make_run_dir",
    "percentile",
    "percentile_crosscheck",
    "run_loadgen",
    "serve",
    "service_work",
    "write_report_json",
]
