"""The service workloads: closed-loop ``optimize`` traffic against a
``python -m repro.cli serve --workers 1`` daemon.

- ``service-warm``: every timed request asks for one of 16 primed
  sources, so it is answered from the artifact store (decode, cache,
  reply-bytes splice, encode) and no worker runs.
- ``service-mixed``: a seeded quarter of the requests are generated
  programs never seen before, which take the cold path (dispatch,
  worker compile, store put, LRU eviction) beside the hot hits.

Both are closed loops with 2 client threads, one connection each: the
service's callers (the CLI, build tools) each wait for their reply.
Every ok reply is compared with the reply the in-process
``repro.service.service_work`` oracle computes for the same source.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import corpus
from stats import percentile

THREADS = 2
COLD_SHARE = 0.25
#: Every ``COLD_CHECK_STRIDE``-th cold reply, at most ``COLD_CHECKS`` of
#: them, is checked against the oracle after the window: computing the
#: oracle costs as much as the cold compile itself.
COLD_CHECK_STRIDE = 8
COLD_CHECKS = 48
#: ``--scale smoke`` keeps only this many hot sources (the cheap ones).
SMOKE_HOT = 6
#: Requests of a traced window: each leaves about seven trace events in
#: memory, so a 20-s warm window would otherwise hold over a million.
TRACED_REQUESTS = 20_000
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (from ``/proc``)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, pending = [], [pid]
    while pending:
        for child in children.get(pending.pop(), []):
            found.append(child)
            pending.append(child)
    return found


def alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie waiting to be reaped has ended."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def high_water_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class Daemon:
    """A ``repro serve --workers 1`` subprocess on a private socket.

    The socket lives in a fresh directory under ``run_dir``, addressed by
    a path relative to ``root`` (the daemon's and this process's working
    directory) so it stays within the unix-socket path limit.  Leaving
    the ``with`` block, normally or by an exception, stops the daemon and
    its workers and removes the directory: a daemon left running would
    let the next run measure an already-warm store.
    """

    def __init__(self, root: str, run_dir: str, trace_dir: str | None = None) -> None:
        self.root = root
        self.run_dir = run_dir
        self.trace_dir = trace_dir
        self.dir: str | None = None
        self.proc: subprocess.Popen | None = None

    @property
    def socket(self) -> str:
        return os.path.join(self.dir, "d.sock")

    def __enter__(self) -> "Daemon":
        os.makedirs(self.run_dir, exist_ok=True)
        self.dir = os.path.relpath(tempfile.mkdtemp(prefix="svc-", dir=self.run_dir), self.root)
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", self.socket, "--workers", "1",
        ]
        if self.trace_dir is not None:
            command += ["--trace-dir", self.trace_dir]
        try:
            self.proc = subprocess.Popen(
                command, cwd=self.root, stdout=subprocess.DEVNULL, env=child_env(self.root)
            )
            self._wait_ready()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wait_ready(self) -> None:
        from repro.service import ServiceClient, ServiceError

        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with code {self.proc.returncode}")
            try:
                with ServiceClient(self.socket, timeout=5.0) as client:
                    if client.ping():
                        return
            except (OSError, ServiceError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"daemon not ready within {READY_TIMEOUT:g}s")
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus its workers."""
        pid = self.proc.pid
        return sum(high_water_mb(p) for p in [pid] + descendants(pid))

    def close(self) -> None:
        if self.proc is not None:
            workers = descendants(self.proc.pid)
            if self.proc.poll() is None:
                self._request_shutdown()
                try:
                    self.proc.wait(STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            _reap(workers)
            self.proc = None
        if self.dir is not None:
            shutil.rmtree(os.path.join(self.root, self.dir), ignore_errors=True)
            self.dir = None

    def _request_shutdown(self) -> None:
        from repro.service import ServiceClient, ServiceError

        try:
            with ServiceClient(self.socket, timeout=5.0) as client:
                client.shutdown()
        except (OSError, ServiceError):
            self.proc.terminate()


def _reap(pids: list[int], timeout: float = 10.0) -> None:
    """Wait for processes this one did not start (a daemon's workers)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if alive(pid):
            os.kill(pid, signal.SIGKILL)


def child_env(root: str) -> dict:
    """This process's environment with ``root/src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Load.


def oracle_reply(source: str) -> dict:
    """The reply the daemon must send for ``optimize`` of ``source``."""
    from repro.service import service_work
    from repro.session import CompileConfig

    task = {
        "op": "optimize",
        "source": source,
        "path": None,
        "config": CompileConfig().resolved().to_dict(),
        "build": "inline",
        "tenant": "default",
    }
    # Through JSON, as the client sees it (tuples become lists).
    return json.loads(json.dumps(service_work(task).reply))


class Schedule:
    """The seeded request sequence shared by the client threads."""

    def __init__(self, seed: int, hot: list[str], cold_share: float, cold) -> None:
        self._rng = random.Random(f"schedule:{seed}:{cold_share}")
        self._hot = hot
        self._cold_share = cold_share
        self._cold = cold
        self._cold_issued = 0
        self._lock = threading.Lock()

    def next(self) -> tuple[str, int, str]:
        """``(kind, index, source)``: kind is ``hot`` or ``cold``."""
        with self._lock:
            if self._rng.random() < self._cold_share:
                index = self._cold_issued
                self._cold_issued += 1
                return "cold", index, self._cold(index)
            index = self._rng.randrange(len(self._hot))
            return "hot", index, self._hot[index]


@dataclass(slots=True)
class Sample:
    kind: str
    latency_s: float
    daemon_ms: float
    cached: bool


@dataclass(slots=True)
class LoadResult:
    samples: list[Sample]
    seconds: float
    failed: int
    #: cold index -> reply, for the sampled oracle check.
    cold_replies: dict = field(default_factory=dict)
    tracers: list = field(default_factory=list)


def closed_loop(socket: str, schedule: Schedule, oracle: list[dict], seconds: float,
                tracer_factory=None) -> LoadResult:
    """``THREADS`` clients, one connection each, until ``seconds`` pass
    (or, when traced, until ``TRACED_REQUESTS`` were sent)."""
    from repro.obs import NULL_TRACER
    from repro.service import ServiceClient, ServiceError

    limit = TRACED_REQUESTS // THREADS if tracer_factory else None
    per_thread: list[list[Sample]] = [[] for _ in range(THREADS)]
    failures = [0] * THREADS
    cold_replies: dict = {}
    tracers = [tracer_factory() if tracer_factory else NULL_TRACER for _ in range(THREADS)]
    clients = [ServiceClient(socket, timeout=60.0, tracer=t) for t in tracers]
    barrier = threading.Barrier(THREADS + 1)
    window: dict[str, float] = {}

    def worker(slot: int) -> None:
        client, samples = clients[slot], per_thread[slot]
        barrier.wait()
        deadline = window["deadline"]
        while time.perf_counter() < deadline and (limit is None or len(samples) < limit):
            kind, index, source = schedule.next()
            started = time.perf_counter()
            try:
                response = client.request("optimize", source=source)
            except (OSError, ServiceError):
                response = None
            latency = time.perf_counter() - started
            ok = response is not None and response.ok
            if ok and kind == "hot" and response.result != oracle[index]:
                ok = False
            elif ok and kind == "cold" and index % COLD_CHECK_STRIDE == 0:
                cold_replies[index] = response.result
            if not ok:
                failures[slot] += 1
            samples.append(
                Sample(
                    kind,
                    latency,
                    (response.elapsed_ms or 0.0) if response is not None else 0.0,
                    bool(response is not None and response.cached),
                )
            )

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
    try:
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        window["deadline"] = started + seconds
        barrier.wait()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        for client in clients:
            client.close()
    return LoadResult(
        samples=[s for samples in per_thread for s in samples],
        seconds=elapsed,
        failed=sum(failures),
        cold_replies=cold_replies,
        tracers=tracers if tracer_factory else [],
    )


def metrics_snapshot(socket: str) -> dict:
    from repro.service import ServiceClient

    with ServiceClient(socket, timeout=30.0) as client:
        return client.metrics()


def family_total(snapshot: dict, name: str, key: str = "value") -> float:
    """Sum of one metrics family over its label series."""
    return sum(series.get(key, 0) for series in snapshot.get(name, {}).get("series", []))


class ServiceWorkload:
    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.hot = corpus.hot_sources(seed)
        if smoke:
            self.hot = sorted(self.hot, key=len)[:SMOKE_HOT]
        self.cold_share = COLD_SHARE if name == "service-mixed" else 0.0
        self._cold_stream = corpus.cold_stream(seed)
        pregenerated = corpus.COLD_PREGENERATED if self.cold_share else 0
        self._cold = list(itertools.islice(self._cold_stream, pregenerated))
        self.oracle: list[dict] = []

    def cold(self, index: int) -> str:
        while index >= len(self._cold):
            self._cold.append(next(self._cold_stream))
        return self._cold[index]

    def setup(self, daemon: Daemon) -> int:
        """Prime the store (in a thread) while computing the oracle; returns
        the number of priming replies that disagreed with the oracle."""
        from repro.service import ServiceClient

        primed: list = [None] * len(self.hot)

        def prime() -> None:
            with ServiceClient(daemon.socket, timeout=120.0) as client:
                for index, source in enumerate(self.hot):
                    primed[index] = client.optimize(source).result

        thread = threading.Thread(target=prime)
        thread.start()
        try:
            if not self.oracle:
                self.oracle = [oracle_reply(source) for source in self.hot]
        finally:
            thread.join()
        return sum(1 for got, want in zip(primed, self.oracle) if got != want)

    def run(self, daemon: Daemon, seconds: float, tracer_factory=None) -> tuple[LoadResult, dict]:
        """One timed window; returns the load and the daemon metrics delta."""
        before = metrics_snapshot(daemon.socket)
        schedule = Schedule(self.seed, self.hot, self.cold_share, self.cold)
        load = closed_loop(daemon.socket, schedule, self.oracle, seconds, tracer_factory)
        after = metrics_snapshot(daemon.socket)
        return load, _metrics_delta(before, after)

    def check_cold(self, load: LoadResult) -> int:
        """Oracle-check a sample of cold replies; returns the mismatches."""
        sample = sorted(load.cold_replies)[:COLD_CHECKS]
        return sum(
            1 for index in sample
            if load.cold_replies[index] != oracle_reply(self.cold(index))
        )

    @staticmethod
    def results(load: LoadResult) -> tuple[dict, dict]:
        latencies = [s.latency_s for s in load.samples]
        daemon = [s.daemon_ms for s in load.samples]
        wire = [s.latency_s * 1e3 - s.daemon_ms for s in load.samples]
        e2e = {
            "throughput_ops_s": len(latencies) / load.seconds,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p99_ms": percentile(latencies, 99) * 1e3,
        }
        extra = {
            "requests": (len(latencies), "count"),
            "cold_requests": (sum(1 for s in load.samples if s.kind == "cold"), "count"),
            "uncached_hot": (
                sum(1 for s in load.samples if s.kind == "hot" and not s.cached), "count"
            ),
            "daemon_ms_p50": (percentile(daemon, 50), "ms"),
            "daemon_ms_p99": (percentile(daemon, 99), "ms"),
            "wire_ms_p50": (percentile(wire, 50), "ms"),
            "wire_ms_p99": (percentile(wire, 99), "ms"),
        }
        cold = [s.latency_s for s in load.samples if s.kind == "cold"]
        if cold:
            extra["cold_p50_ms"] = (percentile(cold, 50) * 1e3, "ms")
        return e2e, extra


#: Daemon metrics families read around a window: (family, field).
METRICS_FIELDS = (
    ("service_store_hits_total", "value"),
    ("service_store_misses_total", "value"),
    ("service_store_evictions_total", "value"),
    ("service_coalesced_total", "value"),
    ("service_worker_op_seconds", "count"),
    ("service_worker_op_seconds", "sum"),
)


def _metrics_delta(before: dict, after: dict) -> dict:
    return {
        f"{name}.{key}": family_total(after, name, key) - family_total(before, name, key)
        for name, key in METRICS_FIELDS
    }
