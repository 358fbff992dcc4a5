"""Trace-context propagation: client → daemon → worker, one tree.

Every request mints a W3C-shaped trace id client-side; the daemon binds
its accept/cache/dispatch spans to it and threads it into the worker's
task, so loading the client's trace *together with* the daemon's
``service.jsonl`` must reconstruct each request as one connected tree
rooted at the client span — including the awkward paths: coalesced
requests (marker spans linking to the shared dispatch) and crash-requeue
(the dispatch span survives even when no worker span ever happened).
"""

import json
import os
import threading

import pytest

from repro.cli import main
from repro.obs import tracer_to_file
from repro.obs.metrics import digest
from repro.obs.export import SpanNode, _load_many, build_span_forest
from repro.service import ServiceClient, ServiceError, ServiceThread

SOURCE = """
class P { var v; def init(v) { this.v = v; } }
class C { var f; def init(p) { this.f = p; } }
def main() { var c = new C(new P(5)); print(c.f.v); }
"""

OTHER_SOURCE = """
class Box { var item; def init(i) { this.item = i; } }
def main() { var b = new Box(11); print(b.item); }
"""


@pytest.fixture()
def sock(tmp_path):
    return str(tmp_path / "service.sock")


def _forest(*paths):
    return build_span_forest(_load_many([str(p) for p in paths]))


def _reachable(node: SpanNode) -> list[SpanNode]:
    out, stack = [], [node]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(current.children)
    return out


def _client_roots(forest, trace_id):
    return [
        r
        for r in forest.roots
        if r.name == "service.client" and r.meta.get("trace_id") == trace_id
    ]


class TestRequestTree:
    def test_cold_request_is_one_tree_rooted_at_client(self, tmp_path, sock):
        client_trace = tmp_path / "client.jsonl"
        with ServiceThread(sock, workers=1, trace_dir=str(tmp_path / "t")) as handle:
            run_dir = handle.service.run_dir
            tracer = tracer_to_file(str(client_trace))
            with ServiceClient(sock, tracer=tracer) as client:
                assert client.optimize(SOURCE).ok
                trace_id = client.last_trace_id
            tracer.close()
        assert trace_id and len(trace_id) == 32

        forest = _forest(client_trace, os.path.join(run_dir, "service.jsonl"))
        roots = _client_roots(forest, trace_id)
        assert len(roots) == 1
        reached = _reachable(roots[0])
        names = {n.name for n in reached}
        # client -> accept -> {cache, and via dispatch: the worker span}.
        assert {"service.accept", "service.cache", "service.dispatch", "service.work"} <= names
        # Completeness: every span stamped with this trace id is in the
        # tree — nothing tagged to the request dangles as its own root.
        tagged = [
            n
            for n in forest.by_id.values()
            if n.meta.get("trace_id") == trace_id
        ]
        reached_ids = {n.id for n in reached}
        assert all(n.id in reached_ids for n in tagged)

    def test_warm_request_tree_has_no_dispatch(self, tmp_path, sock):
        client_trace = tmp_path / "client.jsonl"
        with ServiceThread(sock, workers=1, trace_dir=str(tmp_path / "t")) as handle:
            run_dir = handle.service.run_dir
            tracer = tracer_to_file(str(client_trace))
            with ServiceClient(sock, tracer=tracer) as client:
                assert client.optimize(SOURCE).ok  # cold fill
                warm = client.optimize(SOURCE)
                assert warm.ok and warm.cached
                warm_trace_id = client.last_trace_id
            tracer.close()

        forest = _forest(client_trace, os.path.join(run_dir, "service.jsonl"))
        roots = _client_roots(forest, warm_trace_id)
        assert len(roots) == 1
        names = {n.name for n in _reachable(roots[0])}
        assert {"service.accept", "service.cache"} <= names
        # The warm path never dispatches, so its tree must not claim to.
        assert "service.dispatch" not in names
        assert "service.work" not in names

    def test_coalesced_requests_link_to_the_shared_dispatch(self, tmp_path, sock):
        concurrency = 4
        client_traces = [tmp_path / f"client-{i}.jsonl" for i in range(concurrency)]
        replies = []
        lock = threading.Lock()
        with ServiceThread(sock, workers=2, trace_dir=str(tmp_path / "t")) as handle:
            run_dir = handle.service.run_dir
            barrier = threading.Barrier(concurrency)

            def _ask(i):
                tracer = tracer_to_file(str(client_traces[i]))
                try:
                    with ServiceClient(sock, tracer=tracer) as client:
                        barrier.wait()
                        response = client.request("optimize", source=OTHER_SOURCE)
                    with lock:
                        replies.append(response)
                finally:
                    tracer.close()

            threads = [
                threading.Thread(target=_ask, args=(i,)) for i in range(concurrency)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert all(r.ok for r in replies)
        coalesced = sum(1 for r in replies if r.coalesced)
        assert coalesced >= 1  # barrier-released identical requests share one dispatch

        service_trace = os.path.join(run_dir, "service.jsonl")
        forest = _forest(*client_traces, service_trace)
        dispatch_hexes = {
            n.meta.get("span_id")
            for n in forest.by_id.values()
            if n.name == "service.dispatch"
        }
        markers = [
            n for n in forest.by_id.values() if n.name == "service.coalesce"
        ]
        assert len(markers) == coalesced
        # Every coalesce marker links to a real dispatch span's hex id.
        assert all(m.meta.get("link_span") in dispatch_hexes for m in markers)

        # The chrome export renders those links as flow events (s -> f).
        out = str(tmp_path / "stitched.chrome.json")
        argv = ["export", "chrome", *map(str, client_traces), service_trace, "-o", out]
        assert main(argv) == 0
        events = json.loads(open(out).read())["traceEvents"]
        flows = [e for e in events if e.get("ph") in ("s", "f")]
        assert sum(1 for e in flows if e["ph"] == "s") == coalesced
        assert sum(1 for e in flows if e["ph"] == "f") == coalesced
        assert all(e.get("cat") == "coalesce" for e in flows)

    def test_crash_requeue_keeps_the_tree_connected(self, tmp_path, sock):
        client_trace = tmp_path / "client.jsonl"
        with ServiceThread(
            sock, workers=1, allow_test_ops=True, trace_dir=str(tmp_path / "t")
        ) as handle:
            run_dir = handle.service.run_dir
            tracer = tracer_to_file(str(client_trace))
            with ServiceClient(sock, tracer=tracer) as client:
                response = client.request("crash", source=SOURCE)
                assert not response.ok and "died twice" in response.error
                trace_id = client.last_trace_id
            tracer.close()

        forest = _forest(client_trace, os.path.join(run_dir, "service.jsonl"))
        roots = _client_roots(forest, trace_id)
        assert len(roots) == 1
        names = {n.name for n in _reachable(roots[0])}
        # No worker span ever existed (the process died), but the daemon
        # side of the request still hangs together under the client root.
        assert {"service.accept", "service.dispatch"} <= names
        assert "service.work" not in names


class TestStitching:
    def test_daemon_only_trace_roots_at_accept(self, tmp_path, sock):
        # Without the client's shard the accept span's parent hex is
        # unresolvable — it must stay a root, not get dropped or misfiled.
        with ServiceThread(sock, workers=1, trace_dir=str(tmp_path / "t")) as handle:
            run_dir = handle.service.run_dir
            with ServiceClient(sock) as client:
                assert client.optimize(SOURCE).ok
        forest = _forest(os.path.join(run_dir, "service.jsonl"))
        accept_roots = [r for r in forest.roots if r.name == "service.accept"]
        assert len(accept_roots) == 1
        names = {n.name for n in _reachable(accept_roots[0])}
        assert {"service.cache", "service.dispatch", "service.work"} <= names

    def test_untraced_client_still_gets_correlation_ids(self, sock):
        with ServiceThread(sock, workers=1) as handle:
            with ServiceClient(sock) as client:
                assert client.optimize(SOURCE).ok
                assert client.last_trace_id and len(client.last_trace_id) == 32
                assert client.last_traceparent.startswith("00-")

    def test_shutdown_event_carries_final_snapshot(self, tmp_path, sock):
        with ServiceThread(sock, workers=1, trace_dir=str(tmp_path / "t")) as handle:
            run_dir = handle.service.run_dir
            with ServiceClient(sock) as client:
                assert client.optimize(SOURCE).ok
        events, _ = _events_of(os.path.join(run_dir, "service.jsonl"))
        stops = [
            e for e in events if e.get("ev") == "event" and e.get("name") == "service.shutdown"
        ]
        assert len(stops) == 1
        data = stops[0]["data"]
        assert set(data) == {"uptime_s", "drain_s", "metrics"}
        assert data["uptime_s"] > 0
        assert data["drain_s"] >= 0
        final = digest(data["metrics"])
        assert final.requests >= 1
        assert final.cache_misses >= 1
        assert "service_worker_op_seconds" in data["metrics"]


def _events_of(path):
    from repro.obs.export import load_trace_events

    return load_trace_events(path)
