"""The load generator (``repro loadgen``): latency SLOs made measurable.

Replays the benchmark corpus against a live daemon at a configurable
concurrency, then reports what a service owner actually watches:
**throughput**, **p50/p95/p99 latency**, the **cold vs warm split**
(cold = a real compile reached a worker; warm = answered from the
content-addressed artifact store), and the daemon's own cache counters.
It writes no file unless asked (``--json``); the recorded service
latency is the ``perf/bench.py`` service workloads', which the ledger
(``repro perf record``) keeps.

The measurement model is deliberately simple and honest: ``concurrency``
worker threads each hold one persistent connection and pull request
indices off a shared queue (round-robin over the corpus), so the daemon
sees a steady closed-loop load of N outstanding requests.  Latency is
wall clock around one request/reply cycle, measured client-side —
protocol, queueing, cache, and compute included.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field

from ..obs.metrics import (
    _histogram_series,
    bucket_index,
    digest as metrics_digest,
    quantile_from_buckets,
)
from ..session import CompileConfig
from .client import ServiceClient, ServiceError


def default_corpus() -> dict[str, str]:
    """The Figure-17 benchmark corpus (name -> source)."""
    from ..bench.harness import PERFORMANCE_PROGRAMS

    return dict(PERFORMANCE_PROGRAMS)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample list.

    The nearest-rank definition is ``ceil(q * n)`` (1-based).  Note that
    ``round(q * n + 0.5)`` is *not* an implementation of it: Python
    rounds half to even, so e.g. ``n=2, q=0.5`` gave ``round(1.5) = 2``
    — reporting the *larger* sample as the median.
    """
    if not samples:
        raise ValueError("percentile of empty sample list")
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


@dataclass(slots=True)
class LatencySummary:
    """Percentiles of one latency population, in seconds."""

    count: int
    p50: float
    p95: float
    p99: float
    mean: float
    max: float

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencySummary | None":
        if not samples:
            return None
        return cls(
            count=len(samples),
            p50=percentile(samples, 0.50),
            p95=percentile(samples, 0.95),
            p99=percentile(samples, 0.99),
            mean=sum(samples) / len(samples),
            max=max(samples),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "p50_ms": round(self.p50 * 1e3, 3),
            "p95_ms": round(self.p95 * 1e3, 3),
            "p99_ms": round(self.p99 * 1e3, 3),
            "mean_ms": round(self.mean * 1e3, 3),
            "max_ms": round(self.max * 1e3, 3),
        }

    def row(self, label: str) -> str:
        return (
            f"{label:12s} p50 {self.p50 * 1e3:9.2f}ms   p95 {self.p95 * 1e3:9.2f}ms   "
            f"p99 {self.p99 * 1e3:9.2f}ms   max {self.max * 1e3:9.2f}ms   (n={self.count})"
        )


@dataclass(slots=True)
class _Sample:
    """One request's client-side measurement."""

    benchmark: str
    seconds: float
    ok: bool
    cached: bool
    coalesced: bool
    error: str | None = None
    #: Verify mode: an ok reply whose result differed from the oracle.
    incorrect: bool = False


@dataclass(slots=True)
class LoadgenReport:
    """Everything one loadgen run measured."""

    socket_path: str
    op: str
    build: str
    requests: int
    concurrency: int
    corpus: list[str]
    duration_s: float
    errors: int
    error_samples: list[str]
    latency: LatencySummary | None
    cold: LatencySummary | None
    warm: LatencySummary | None
    cached_replies: int
    coalesced_replies: int
    server: dict = field(default_factory=dict)
    #: Verify mode: ok replies compared against an in-process oracle.
    verified: bool = False
    incorrect: int = 0
    incorrect_samples: list[str] = field(default_factory=list)
    #: Daemon-side percentiles derived from its `service_request_seconds`
    #: histogram (``{"p50_s": ..., "p95_s": ..., "p99_s": ..., "count": ...}``).
    daemon_latency: dict | None = None
    #: The client-vs-daemon percentile agreement verdict (see
    #: :func:`percentile_crosscheck`); ``None`` if the scrape failed.
    percentile_check: dict | None = None
    #: The daemon's full metrics-registry snapshot, scraped right after
    #: the run (before a self-hosted daemon is torn down) — chaos triage
    #: renders its digest when verify fails.  ``to_dict`` carries only
    #: the digest; the raw snapshot stays in-process.
    metrics_snapshot: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.duration_s if self.duration_s > 0 else 0.0

    def warm_speedup(self) -> float | None:
        """Cold p50 / warm p50 — the artifact cache's headline number."""
        if self.cold is None or self.warm is None or self.warm.p50 <= 0:
            return None
        return self.cold.p50 / self.warm.p50

    def to_dict(self) -> dict:
        speedup = self.warm_speedup()
        return {
            "socket": self.socket_path,
            "op": self.op,
            "build": self.build,
            "requests": self.requests,
            "concurrency": self.concurrency,
            "corpus": self.corpus,
            "duration_s": round(self.duration_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "errors": self.errors,
            "error_samples": self.error_samples[:5],
            "latency": self.latency.to_dict() if self.latency else None,
            "cold": self.cold.to_dict() if self.cold else None,
            "warm": self.warm.to_dict() if self.warm else None,
            "cached_replies": self.cached_replies,
            "coalesced_replies": self.coalesced_replies,
            "warm_speedup_p50": round(speedup, 2) if speedup is not None else None,
            "server": self.server,
            "verified": self.verified,
            "incorrect": self.incorrect,
            "incorrect_samples": self.incorrect_samples[:5],
            "daemon_latency": self.daemon_latency,
            "percentile_check": self.percentile_check,
            "daemon_digest": (
                metrics_digest(self.metrics_snapshot).to_dict()
                if self.metrics_snapshot
                else None
            ),
        }

    def render(self) -> str:
        lines = [
            f"loadgen: {self.requests} requests x concurrency {self.concurrency} "
            f"-> {self.socket_path} (op={self.op}, build={self.build})",
            f"corpus: {', '.join(self.corpus)}",
            f"errors: {self.errors}    duration: {self.duration_s:.2f}s    "
            f"throughput: {self.throughput_rps:.1f} req/s",
        ]
        if self.latency:
            lines.append(self.latency.row("latency"))
        if self.cold:
            lines.append(self.cold.row("cold"))
        if self.warm:
            lines.append(self.warm.row("warm"))
        lines.append(
            f"cache: {self.cached_replies} warm replies "
            f"({self.cached_replies / max(1, self.requests):.1%}), "
            f"{self.coalesced_replies} coalesced"
        )
        speedup = self.warm_speedup()
        if speedup is not None:
            lines.append(f"warm p50 speedup over cold p50: {speedup:.1f}x")
        if self.daemon_latency:
            d = self.daemon_latency
            lines.append(
                f"daemon       p50 {d['p50_s'] * 1e3:9.2f}ms   "
                f"p95 {d['p95_s'] * 1e3:9.2f}ms   "
                f"p99 {d['p99_s'] * 1e3:9.2f}ms   "
                f"(histogram, n={d['count']})"
            )
        if self.percentile_check is not None:
            verdict = "agree" if self.percentile_check.get("ok") else "DISAGREE"
            detail = "  ".join(
                f"{q} Δ{abs(item['client_bucket'] - item['daemon_bucket'])}"
                for q, item in sorted(self.percentile_check.get("quantiles", {}).items())
            )
            lines.append(
                f"percentiles: client vs daemon histograms {verdict} "
                f"(within one bucket)  [{detail}]"
            )
        if self.verified:
            lines.append(
                f"verify: {self.incorrect} incorrect ok-replies "
                f"(every ok reply checked against the in-process oracle)"
            )
            for sample in self.incorrect_samples[:5]:
                lines.append(f"  INCORRECT: {sample}")
        store = self.server.get("store") if isinstance(self.server, dict) else None
        if store:
            lines.append(
                f"server store: {store.get('entries')} entries, "
                f"{store.get('hits')} hits / {store.get('misses')} misses "
                f"(hit rate {store.get('hit_rate', 0.0):.1%}), "
                f"{store.get('evictions')} evictions"
            )
        if self.errors:
            for sample in self.error_samples[:5]:
                lines.append(f"  error: {sample}")
        return "\n".join(lines)


def percentile_crosscheck(
    client: "LatencySummary", snapshot: dict, op: str | None = None
) -> tuple[dict | None, dict | None]:
    """Compare client-measured percentiles with the daemon's histogram.

    The client computes nearest-rank percentiles over exact samples; the
    daemon can only answer with the **upper boundary** of the bucket the
    target rank landed in.  The strongest check both sides can honor is
    therefore bucket-level agreement: map each client percentile into the
    daemon's bucket layout (:func:`bucket_index`) and demand it lands
    within one bucket of the daemon's answer.  A drift of two or more
    buckets means the two measurement paths disagree about the latency
    distribution itself — a lost-sample or mislabeled-series bug, not
    noise.

    Returns ``(daemon_latency, percentile_check)``; both ``None`` when
    the snapshot has no ok-request histogram to compare against.
    """
    # Restrict to the loadgen's own op when given: the daemon's histogram
    # also counts stats/metrics scrapes, which would skew the comparison
    # population against the client's samples.
    match = {"code": "ok"} if op is None else {"code": "ok", "op": op}
    merged = _histogram_series(snapshot, "service_request_seconds", match)
    if merged is None and op is not None:
        merged = _histogram_series(snapshot, "service_request_seconds", {"code": "ok"})
    if merged is None:
        return None, None
    boundaries, counts, _total_sum, total_count = merged
    daemon = {
        "p50_s": quantile_from_buckets(boundaries, counts, 0.50),
        "p95_s": quantile_from_buckets(boundaries, counts, 0.95),
        "p99_s": quantile_from_buckets(boundaries, counts, 0.99),
        "count": total_count,
    }
    quantiles: dict[str, dict] = {}
    all_ok = True
    for label, client_value in (
        ("p50", client.p50),
        ("p95", client.p95),
        ("p99", client.p99),
    ):
        daemon_value = daemon[f"{label}_s"]
        client_bucket = bucket_index(boundaries, client_value)
        daemon_bucket = bucket_index(boundaries, daemon_value)
        ok = abs(client_bucket - daemon_bucket) <= 1
        all_ok = all_ok and ok
        quantiles[label] = {
            "client_s": round(client_value, 6),
            "daemon_s": daemon_value,
            "client_bucket": client_bucket,
            "daemon_bucket": daemon_bucket,
            "ok": ok,
        }
    return daemon, {"ok": all_ok, "quantiles": quantiles}


def run_loadgen(
    socket_path: str,
    requests: int = 500,
    concurrency: int = 8,
    op: str = "optimize",
    build: str = "inline",
    corpus: dict[str, str] | None = None,
    config: CompileConfig | None = None,
    timeout: float | None = None,
    tenant: str = "loadgen",
    verify: bool = False,
) -> LoadgenReport:
    """Replay ``corpus`` against the daemon; returns the measured report.

    Requests are assigned round-robin over the corpus, so with R
    requests and a C-program corpus each program is compiled cold once
    and then served warm ~R/C - 1 times — which is what makes the
    cold/warm latency split meaningful.

    ``verify=True`` (chaos mode's correctness net) first computes every
    corpus reply **in-process** via the same worker entry point the
    daemon dispatches to — with no fault plan, since faults are threaded
    through the daemon's task dicts and never ambient state — then
    checks every ok reply from the daemon bit-for-bit against that
    oracle.  Error replies (injected faults, timeouts) are visible
    failures and therefore acceptable under chaos; an *ok* reply with
    wrong content is the one unforgivable outcome, counted in
    ``report.incorrect``.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    corpus = corpus if corpus is not None else default_corpus()
    if not corpus:
        raise ValueError("loadgen corpus is empty")
    names = list(corpus)
    config_dict = (config or CompileConfig()).to_dict()
    expected: dict[str, object] = {}
    if verify:
        from .worker import service_work

        for name in names:
            product = service_work(
                {
                    "op": op,
                    "source": corpus[name],
                    "path": f"{name}.icc",
                    "config": config_dict,
                    "build": build,
                    "tenant": tenant,
                }
            )
            # The daemon's replies cross a JSON wire; canonicalize the
            # oracle's dict the same way so the comparison is fair.
            expected[name] = json.loads(json.dumps(product.reply, sort_keys=True))
    work: list[int] = list(range(requests))
    cursor = {"next": 0}
    lock = threading.Lock()
    samples: list[_Sample] = []
    start_gate = threading.Event()

    def _worker() -> None:
        try:
            client = ServiceClient(socket_path, tenant=tenant, connect_retries=5)
        except OSError as error:
            with lock:
                samples.append(
                    _Sample("<connect>", 0.0, False, False, False, str(error))
                )
            return
        start_gate.wait()
        try:
            while True:
                with lock:
                    if cursor["next"] >= len(work):
                        return
                    index = cursor["next"]
                    cursor["next"] += 1
                name = names[index % len(names)]
                started = time.perf_counter()
                try:
                    response = client.request(
                        op,
                        source=corpus[name],
                        path=f"{name}.icc",
                        config=config_dict,
                        build=build,
                        timeout=timeout,
                    )
                    sample = _Sample(
                        benchmark=name,
                        seconds=time.perf_counter() - started,
                        ok=response.ok,
                        cached=response.cached,
                        coalesced=response.coalesced,
                        error=None if response.ok else response.error,
                    )
                    if verify and response.ok and response.result != expected[name]:
                        sample.incorrect = True
                except (ServiceError, OSError) as error:
                    sample = _Sample(
                        name, time.perf_counter() - started, False, False, False, str(error)
                    )
                with lock:
                    samples.append(sample)
        finally:
            client.close()

    threads = [
        threading.Thread(target=_worker, name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    start_gate.set()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started

    server_stats: dict = {}
    metrics_snapshot: dict = {}
    try:
        with ServiceClient(socket_path, tenant=tenant) as client:
            server_stats = client.stats()
            metrics_snapshot = client.metrics()
    except (ServiceError, OSError):
        pass

    ok = [s for s in samples if s.ok]
    failed = [s for s in samples if not s.ok]
    cold = [s.seconds for s in ok if not s.cached and not s.coalesced]
    warm = [s.seconds for s in ok if s.cached]
    incorrect = [s for s in ok if s.incorrect]
    latency = LatencySummary.from_samples([s.seconds for s in ok])
    daemon_latency: dict | None = None
    percentile_check: dict | None = None
    if latency is not None and metrics_snapshot:
        daemon_latency, percentile_check = percentile_crosscheck(
            latency, metrics_snapshot, op=op
        )
    return LoadgenReport(
        socket_path=socket_path,
        op=op,
        build=build,
        requests=requests,
        concurrency=concurrency,
        corpus=names,
        duration_s=duration,
        errors=len(failed),
        error_samples=[f"{s.benchmark}: {s.error}" for s in failed],
        latency=latency,
        cold=LatencySummary.from_samples(cold),
        warm=LatencySummary.from_samples(warm),
        cached_replies=sum(1 for s in ok if s.cached),
        coalesced_replies=sum(1 for s in ok if s.coalesced),
        server=server_stats,
        verified=verify,
        incorrect=len(incorrect),
        incorrect_samples=[s.benchmark for s in incorrect],
        daemon_latency=daemon_latency,
        percentile_check=percentile_check,
        metrics_snapshot=metrics_snapshot,
    )


def write_report_json(path: str, report: LoadgenReport) -> str:
    """Dump the full report as JSON (the CI artifact)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
