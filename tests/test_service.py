"""The compile daemon end-to-end: protocol, caching, robustness, traces.

Every test here runs a real daemon (:class:`ServiceThread`) on a unix
socket under ``tmp_path`` and talks to it with real clients — the same
stack ``repro serve`` / ``repro loadgen`` use.
"""

import json
import os
import socket
import threading

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry, digest
from repro.service import (
    ProtocolError,
    Request,
    Response,
    ServiceClient,
    ServiceError,
    ServiceThread,
    decode_request,
    decode_response,
)
from repro.session import CompileConfig

SOURCE = """
class P { var v; def init(v) { this.v = v; } }
class C { var f; def init(p) { this.f = p; } }
def main() { var c = new C(new P(5)); print(c.f.v); }
"""

OTHER_SOURCE = """
class Box { var item; def init(i) { this.item = i; } }
def main() { var b = new Box(11); print(b.item); }
"""


def _series(snapshot, family, **labels):
    """Sum of a snapshot family's series whose labels include ``labels``
    (a counter's value, or a histogram's observation count)."""
    return sum(
        item.get("value", item.get("count", 0))
        for item in snapshot.get(family, {}).get("series", ())
        if labels.items() <= item["labels"].items()
    )


@pytest.fixture()
def sock(tmp_path):
    return str(tmp_path / "service.sock")


@pytest.fixture()
def service(sock):
    with ServiceThread(sock, workers=2) as handle:
        yield handle


class TestProtocol:
    def test_request_roundtrip(self):
        request = Request(op="optimize", id=3, source=SOURCE, timeout=5.0)
        decoded = decode_request(request.encode())
        assert (decoded.op, decoded.id, decoded.timeout) == ("optimize", 3, 5.0)
        assert decoded.source == SOURCE

    def test_response_encoding_is_canonical(self):
        # sort_keys + fixed separators: the bit-identical-reply contract.
        a = Response(id=1, result={"b": 2, "a": 1}).encode()
        b = Response(id=1, result={"a": 1, "b": 2}).encode()
        assert a == b

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_request(b'{"op": "explode"}\n')

    def test_work_ops_require_source(self):
        with pytest.raises(ProtocolError, match="requires a string"):
            decode_request(b'{"op": "optimize"}\n')

    def test_bad_json_and_bad_timeout_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b"not json\n")
        with pytest.raises(ProtocolError, match="timeout"):
            decode_request(b'{"op": "ping", "timeout": -1}\n')

    def test_response_roundtrip(self):
        encoded = Response(id=7, result={"x": 1}, cached=True).encode()
        decoded = decode_response(encoded)
        assert decoded.ok and decoded.cached and decoded.result == {"x": 1}

    @pytest.mark.parametrize(
        "result",
        [
            {"b": 2, "a": 1},
            {"nested": {"z": [1, 2, {"k": None}], "s": "text"}},
            [1, "two", 3.5, False],
        ],
    )
    def test_result_bytes_splice_matches_reserialization(self, result):
        """Spliced pre-encoded bytes are bit-identical to a re-encode."""
        result_bytes = json.dumps(
            result, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        for kwargs in (
            {},
            {"cached": True},
            {"cached": True, "coalesced": True, "elapsed_ms": 0.417},
        ):
            plain = Response(id=9, result=result, **kwargs).encode()
            spliced = Response(
                id=9, result_bytes=result_bytes, **kwargs
            ).encode()
            assert spliced == plain
            assert decode_response(spliced).result == result


class TestBasicOps:
    def test_ping_and_stats(self, service, sock):
        with ServiceClient(sock) as client:
            assert client.ping()
            snapshot = client.metrics()
        assert _series(snapshot, "service_requests_total", op="ping") == 1
        assert digest(snapshot).requests == 2  # the ping and this scrape
        assert {"service_store_hits_total", "service_store_misses_total"} <= set(snapshot)

    def test_malformed_lines_count_as_requests(self, service, sock):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(sock)
        with raw, raw.makefile("rwb") as stream:
            for line in (b"not json\n", b'{"op": "explode"}\n'):
                stream.write(line)
                stream.flush()
                assert not decode_response(stream.readline()).ok
        with ServiceClient(sock) as client:
            assert client.ping()
            d = digest(client.metrics())
        assert (d.requests, d.errors) == (4, 2)
        assert d.error_rate == 0.5

    def test_compile_answers_in_process(self, service, sock):
        with ServiceClient(sock) as client:
            response = client.compile(SOURCE, path="p.icc")
        assert response.result["classes"] == 2
        assert response.result["callables"] >= 3

    def test_optimize_and_run(self, service, sock):
        with ServiceClient(sock) as client:
            opt = client.optimize(SOURCE)
            run = client.run(SOURCE, build="inline")
        assert opt.result["op"] == "optimize"
        assert run.result["output"] == ["5"]
        assert run.result["cycles"] > 0

    def test_run_matches_plain_semantics(self, service, sock):
        with ServiceClient(sock) as client:
            plain = client.run(SOURCE, build="plain")
            inline = client.run(SOURCE, build="inline")
        assert plain.result["output"] == inline.result["output"] == ["5"]

    def test_error_reply_not_connection_death(self, service, sock):
        with ServiceClient(sock) as client:
            response = client.request("optimize", source="def main( {{{ broken")
            assert not response.ok and response.error
            assert client.ping()  # same connection still serves


class TestArtifactCache:
    def test_warm_reply_bit_identical_to_cold(self, service, sock):
        """The differential gate: a cache hit replays the exact payload."""
        config = CompileConfig().to_dict()
        with ServiceClient(sock) as client:
            cold = client.request("optimize", source=SOURCE, config=config)
            warm = client.request("optimize", source=SOURCE, config=config)
        assert cold.ok and not cold.cached
        assert warm.ok and warm.cached
        canonical = lambda r: json.dumps(
            r.result, sort_keys=True, separators=(",", ":")
        ).encode()
        assert canonical(cold) == canonical(warm)

    def test_warm_reply_served_from_cached_bytes(self, service, sock):
        # The warm path skips unpickle + re-encode: the store remembers
        # the canonical reply bytes and the daemon splices them in.
        config = CompileConfig().to_dict()
        with ServiceClient(sock) as client:
            cold = client.request("optimize", source=SOURCE, config=config)
            warm = client.request("optimize", source=SOURCE, config=config)
            snapshot = client.metrics()
        assert warm.cached and warm.result == cold.result
        assert _series(snapshot, "service_store_hits_total", path="reply_bytes") >= 1

    def test_cache_key_includes_config(self, service, sock):
        with ServiceClient(sock) as client:
            client.optimize(SOURCE, config=CompileConfig())
            different = client.optimize(SOURCE, config=CompileConfig(inline=False))
        assert not different.cached  # different config -> different address

    def test_cache_shared_across_connections_and_tenants(self, service, sock):
        with ServiceClient(sock, tenant="alice") as client:
            client.optimize(OTHER_SOURCE)
        with ServiceClient(sock, tenant="bob") as client:
            warm = client.optimize(OTHER_SOURCE)
        assert warm.cached

    def test_concurrent_identical_requests_compile_once(self, service, sock):
        """N identical in-flight requests coalesce into one worker dispatch."""
        replies = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def _ask():
            with ServiceClient(sock) as client:
                barrier.wait()
                response = client.request("optimize", source=OTHER_SOURCE)
            with lock:
                replies.append(response)

        threads = [threading.Thread(target=_ask) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r.ok for r in replies)
        cold = [r for r in replies if not r.cached and not r.coalesced]
        assert len(cold) == 1  # exactly one dispatch did the work
        payloads = {json.dumps(r.result, sort_keys=True) for r in replies}
        assert len(payloads) == 1  # everyone got the same answer


class TestRobustness:
    def test_request_timeout_replies_and_daemon_survives(self, service, sock):
        with ServiceClient(sock) as client:
            response = client.request(
                "optimize", source=OTHER_SOURCE, timeout=0.001
            )
            assert not response.ok
            assert "timeout" in response.error
            assert client.ping()
            # The timed-out work kept running and landed in the store:
            # the retry answers without recompiling from scratch.
            retry = client.request("optimize", source=OTHER_SOURCE)
            assert retry.ok

    def test_worker_crash_recovers(self, sock):
        with ServiceThread(sock, workers=1, allow_test_ops=True) as handle:
            with ServiceClient(sock) as client:
                response = client.request("crash", source=SOURCE)
                assert not response.ok
                assert "died twice" in response.error
                # The daemon rebuilt the pool and keeps serving.
                assert client.ping()
                assert client.optimize(SOURCE).ok
                snapshot = client.metrics()
            # The original + the one requeue.
            assert _series(snapshot, "service_worker_crashes_total") >= 2
            assert _series(snapshot, "service_pool_rebuilds_total") >= 2
        crashes = handle.service.metrics.families["service_worker_crashes_total"]
        assert crashes.value >= 2

    def test_crash_op_is_gated(self, service, sock):
        with ServiceClient(sock) as client:
            response = client.request("crash", source=SOURCE)
        assert not response.ok
        assert "allow-test-ops" in response.error

    def test_graceful_shutdown_drains_and_unlinks(self, sock):
        handle = ServiceThread(sock, workers=1).start()
        try:
            with ServiceClient(sock) as client:
                client.optimize(SOURCE)
                assert client.shutdown().result == "draining"
        finally:
            handle.stop()
        assert not os.path.exists(sock)
        with pytest.raises((ServiceError, OSError)):
            ServiceClient(sock).ping()


class TestServiceTracing:
    def test_run_dir_trace_renders_multi_lane_chrome(self, tmp_path, sock):
        trace_base = tmp_path / "traces"
        with ServiceThread(sock, workers=2, trace_dir=str(trace_base)) as handle:
            run_dir = handle.service.run_dir
            with ServiceClient(sock) as client:
                client.optimize(SOURCE)
                client.optimize(OTHER_SOURCE)
        trace_path = os.path.join(run_dir, "service.jsonl")
        assert os.path.exists(trace_path)

        # `repro export chrome` on the daemon's shard: no manual merging.
        out = str(tmp_path / "service.chrome.json")
        assert main(["export", "chrome", trace_path, "-o", out]) == 0
        payload = json.loads(open(out).read())
        events = payload["traceEvents"]
        work_spans = [
            e for e in events if e.get("ph") == "X" and e["name"] == "service.work"
        ]
        assert len(work_spans) >= 2
        # Each worker shard is its own lane (tid) in the rendered trace.
        assert len({e["tid"] for e in work_spans}) >= 2
        lanes = [e for e in events if e.get("ph") == "M" and e["name"] == "thread_name"]
        assert len(lanes) >= 2
        # The daemon's own request/cache events ride along as instants.
        assert any(e.get("ph") == "i" for e in events)

    def test_successive_runs_get_distinct_dirs(self, tmp_path):
        from repro.service import make_run_dir

        base = str(tmp_path / "traces")
        first = make_run_dir(base)
        second = make_run_dir(base)
        assert first != second
        assert os.path.isdir(first) and os.path.isdir(second)


class TestPercentile:
    def test_single_sample_is_every_percentile(self):
        from repro.service.loadgen import percentile

        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.95) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_median_of_two_is_the_lower_sample(self):
        # Nearest rank = ceil(0.5 * 2) = 1.  The old round(q*n + 0.5)
        # formula rounded 1.5 half-to-even up to rank 2 and reported the
        # *larger* sample as the median.
        from repro.service.loadgen import percentile

        assert percentile([1.0, 9.0], 0.5) == 1.0

    @pytest.mark.parametrize(
        "n,q,expected_rank",
        [
            (1, 0.5, 1), (1, 0.95, 1), (1, 0.99, 1),
            (2, 0.5, 1), (2, 0.95, 2), (2, 0.99, 2),
            (3, 0.5, 2), (3, 0.95, 3), (3, 0.99, 3),
            (4, 0.5, 2), (4, 0.95, 4), (4, 0.99, 4),
        ],
    )
    def test_nearest_rank_boundaries(self, n, q, expected_rank):
        from repro.service.loadgen import percentile

        samples = [float(i + 1) for i in range(n)]
        assert percentile(samples, q) == float(expected_rank)

    def test_order_does_not_matter(self):
        from repro.service.loadgen import percentile

        assert percentile([9.0, 1.0, 5.0], 0.5) == 5.0

    def test_empty_rejected(self):
        from repro.service.loadgen import percentile

        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestLoadgen:
    def test_self_hosted_loadgen_meets_slo_shape(self, tmp_path, sock):
        from repro.service import run_loadgen

        corpus = {"tiny": SOURCE, "other": OTHER_SOURCE}
        with ServiceThread(sock, workers=2):
            report = run_loadgen(
                sock, requests=24, concurrency=4, corpus=corpus
            )
        assert report.errors == 0
        assert report.latency is not None and report.latency.count == 24
        assert report.cached_replies > 0
        assert report.throughput_rps > 0
        speedup = report.warm_speedup()
        assert speedup is not None and speedup > 1.0
        assert report.to_dict()["daemon_digest"]["cache_hit_rate"] > 0
        assert any(
            line.startswith("server store: ") for line in report.render().splitlines()
        )

    def test_loadgen_cli_self_host(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_json = str(tmp_path / "report.json")
        code = main(
            [
                "loadgen",
                "--self-host",
                "--requests", "12",
                "--concurrency", "3",
                "--json", out_json,
            ]
        )
        assert code == 0
        # The report is the only file the run writes.
        assert sorted(path.name for path in tmp_path.iterdir()) == ["report.json"]
        rendered = capsys.readouterr().out
        assert "errors: 0" in rendered
        assert "p50" in rendered and "p99" in rendered
        payload = json.loads(open(out_json).read())
        assert payload["errors"] == 0
        assert payload["latency"]["count"] == 12


class TestChaosAndRobustness:
    """Fault injection, stale sockets, budgets: the daemon must degrade
    to clean error replies, never to wrong answers or a dead process."""

    def test_stale_socket_is_reclaimed(self, sock):
        import socket as socket_module

        # A daemon SIGKILLed mid-serve leaves its bound path on disk
        # with nothing listening behind it.
        stale = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        stale.bind(sock)
        stale.close()
        assert os.path.exists(sock)
        with ServiceThread(sock, workers=1) as handle:
            with ServiceClient(handle.socket_path) as client:
                assert client.ping()

    def test_live_socket_is_not_stolen(self, service, sock):
        import asyncio

        from repro.service.daemon import ReproService

        async def try_start():
            usurper = ReproService(sock, workers=1)
            await usurper.start()

        with pytest.raises(RuntimeError, match="already listening"):
            asyncio.run(try_start())
        # The original daemon is unharmed.
        with ServiceClient(sock) as client:
            assert client.ping()

    def test_client_connect_retry_waits_for_bind(self, sock):
        import time

        handle_box = {}

        def late_start():
            time.sleep(0.3)
            handle_box["handle"] = ServiceThread(sock, workers=1).start()

        starter = threading.Thread(target=late_start)
        starter.start()
        try:
            # Without retries this connect would FileNotFoundError
            # immediately; with backoff it outwaits the bind.
            with ServiceClient(sock, connect_retries=8) as client:
                assert client.ping()
        finally:
            starter.join()
            handle_box["handle"].stop()

    def test_injected_error_becomes_clean_error_reply(self, sock):
        from repro.service import FaultPlan

        plan = FaultPlan(error_rate=1.0)
        with ServiceThread(sock, workers=1, fault_plan=plan) as handle:
            with ServiceClient(handle.socket_path) as client:
                response = client.request("run", source=SOURCE, build="plain")
                assert not response.ok
                assert "InjectedFault" in response.error
                # The daemon itself is fine: ops that skip the worker
                # pool still answer.
                assert client.ping()

    def test_worker_crash_is_survived(self, sock):
        from repro.service import FaultPlan

        plan = FaultPlan(crash_rate=1.0)
        with ServiceThread(sock, workers=1, fault_plan=plan) as handle:
            with ServiceClient(handle.socket_path, timeout=60.0) as client:
                response = client.request("run", source=SOURCE, build="plain")
                assert not response.ok  # the request fails cleanly...
                assert client.ping()  # ...and the daemon keeps serving

    def test_corrupt_artifact_never_reaches_clients(self, sock):
        from repro.service import FaultPlan

        plan = FaultPlan(corrupt_rate=1.0)
        with ServiceThread(sock, workers=1, fault_plan=plan) as handle:
            with ServiceClient(handle.socket_path) as client:
                first = client.run(SOURCE, build="plain")
                second = client.run(SOURCE, build="plain")
                assert first.result["output"] == ["5"]
                # The poisoned store entry is detected on the warm path
                # (corrupt-pickle-as-miss) and recompiled, so the second
                # reply is correct too — just not warm.
                assert second.result["output"] == ["5"]
                snapshot = client.metrics()
                assert _series(snapshot, "service_faults_total", kind="corrupt") >= 1
                assert _series(snapshot, "service_store_corrupt_total") >= 1

    def test_resource_budget_is_a_clean_error_reply(self, service, sock):
        with ServiceClient(sock) as client:
            response = client.request(
                "run",
                source="def main() { while (true) { } }",
                build="plain",
                max_steps=10_000,
            )
            assert not response.ok
            assert "StepLimitExceeded" in response.error
            assert client.ping()

    def test_budget_is_part_of_the_cache_key(self, service, sock):
        # Same program, different budgets: replies must not alias.
        source = "def main() { var i = 0; while (i < 100000) { i = i + 1; } print(i); }"
        with ServiceClient(sock) as client:
            tight = client.request("run", source=source, build="plain", max_steps=1_000)
            roomy = client.request("run", source=source, build="plain")
            assert not tight.ok and "StepLimitExceeded" in tight.error
            assert roomy.ok and roomy.result["output"] == ["100000"]

    def test_chaos_loadgen_has_zero_incorrect_replies(self, sock):
        from repro.service import FaultPlan, run_loadgen

        plan = FaultPlan(error_rate=0.1, corrupt_rate=0.1, seed=7)
        with ServiceThread(sock, workers=1, fault_plan=plan):
            report = run_loadgen(
                sock,
                requests=30,
                concurrency=3,
                op="run",
                build="plain",
                corpus={"a": SOURCE, "b": OTHER_SOURCE},
                verify=True,
            )
        assert report.verified
        assert report.incorrect == 0
        assert report.incorrect_samples == []


class TestWorkerMetrics:
    """The families a worker derives from its spans, on a real compile."""

    # Compiled by no other test, so the worker's warm session pool holds
    # no memoized report for it.  The global store and the local array
    # give the escape stage rejects under two audit stages.
    SOURCE = """
    class Cell { var v; def init(v) { this.v = v; } }
    var kept = nil;
    def main() {
      kept = new Cell(2);
      var a = array(2);
      a[0] = kept.v;
      print(a[0] + 40);
    }
    """

    def test_pipeline_families_come_from_one_compile(self):
        from repro.fuzz.bugs import seeded_bug
        from repro.service import service_work
        from repro.session import Session

        task = {
            "op": "optimize",
            "source": self.SOURCE,
            "path": "cell.icc",
            "tenant": "worker-metrics",
        }
        daemon = MetricsRegistry()
        with seeded_bug("crash-loadcse"):
            report = Session(self.SOURCE).optimize()
            daemon.merge_snapshot(service_work(task).metrics)
            first = daemon.to_dict()
            daemon.merge_snapshot(service_work(task).metrics)
            second = daemon.to_dict()

        assert _series(first, "service_worker_op_seconds", op="optimize") == 1
        for stage in ("optimize", "inline_methods", "escape", "loadcse", "dce"):
            assert _series(first, "pipeline_stage_seconds", stage=stage) == 1, stage
        assert _series(first, "pipeline_stage_degraded_total", stage="loadcse") == 1
        rejects = {
            item["labels"]["stage"]: item["value"]
            for item in first["escape_rejects_total"]["series"]
        }
        assert rejects and rejects == dict(report.escape_stats.rejected)

        # The second call is answered by the worker's memoized report: one
        # more op observation, and nothing from the pipeline.
        assert _series(second, "service_worker_op_seconds", op="optimize") == 2
        for family in (
            "pipeline_stage_seconds",
            "pipeline_stage_degraded_total",
            "escape_rejects_total",
        ):
            assert _series(second, family) == _series(first, family), family
