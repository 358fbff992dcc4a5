"""Trace exporters: Chrome trace-event JSON and collapsed-stack flamegraphs.

The Chrome output is validated against the trace-event shape Perfetto
loads (``ph``/``ts``/``dur``/``pid``/``tid`` fields, µs units, one lane
per merged worker shard); the collapsed output must round-trip through
:func:`parse_collapsed` with exact self-time weights.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import MemorySink, Tracer
from repro.obs.export import (
    build_span_forest,
    chrome_trace_events,
    collapsed_stacks,
    export_chrome_file,
    export_collapsed_file,
    parse_collapsed,
    render_collapsed,
    write_chrome_trace,
    write_collapsed,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def nested_trace():
    """root(100ms) > child(60ms) > leaf(10ms), plus one point event."""
    clock = FakeClock()
    sink = MemorySink()
    tracer = Tracer(sink, clock=clock)
    with tracer.span("root"):
        clock.advance(0.020)
        with tracer.span("child"):
            clock.advance(0.030)
            with tracer.span("leaf"):
                clock.advance(0.010)
            tracer.event("decision", candidate="C.f", accepted=True)
            clock.advance(0.020)
        clock.advance(0.020)
    return sink.events


def merged_shard_trace():
    """A parent that merged two worker shards (each its own root tree)."""
    clock = FakeClock()
    parent_sink = MemorySink()
    parent = Tracer(parent_sink, clock=clock)
    for worker in range(2):
        child = Tracer(MemorySink(), clock=clock)
        with child.span("bench.build", worker=worker):
            clock.advance(0.010)
            with child.span("analyze"):
                clock.advance(0.005)
        parent.merge(child)
    return parent_sink.events


class TestSpanForest:
    def test_pairs_spans_into_trees(self):
        forest = build_span_forest(nested_trace())
        assert len(forest.roots) == 1
        root = forest.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child"]
        assert [c.name for c in root.children[0].children] == ["leaf"]
        assert forest.unpaired == 0

    def test_self_time_subtracts_children(self):
        forest = build_span_forest(nested_trace())
        root = forest.roots[0]
        assert root.duration == pytest.approx(0.100)
        assert root.self_seconds == pytest.approx(0.040)
        child = root.children[0]
        assert child.self_seconds == pytest.approx(0.050)

    def test_unpaired_begin_is_dropped_and_counted(self):
        events = nested_trace()
        events.append({"ev": "span_begin", "ts": 1.0, "id": 999, "name": "crashed"})
        forest = build_span_forest(events)
        assert forest.unpaired == 1
        assert 999 not in forest.by_id

    def test_end_without_begin_is_tolerated(self):
        events = [{"ev": "span_end", "ts": 1.0, "id": 7, "name": "orphan", "dur": 1.0}]
        forest = build_span_forest(events)
        assert forest.unpaired == 1 and not forest.roots


class TestChromeTrace:
    def test_trace_event_shape(self):
        out = chrome_trace_events(nested_trace())
        completes = [e for e in out if e["ph"] == "X"]
        assert len(completes) == 3
        for event in completes:
            assert isinstance(event["ts"], int) and isinstance(event["dur"], int)
            assert event["pid"] == 1 and isinstance(event["tid"], int)
            assert event["cat"] == "span" and event["name"]
        root = next(e for e in completes if e["name"] == "root")
        assert root["ts"] == 0 and root["dur"] == 100_000  # µs

    def test_metadata_and_instant_events(self):
        out = chrome_trace_events(nested_trace())
        metas = [e for e in out if e["ph"] == "M"]
        assert {m["name"] for m in metas} == {"process_name", "thread_name"}
        instants = [e for e in out if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "decision"
        assert instants[0]["args"]["candidate"] == "C.f"

    def test_one_lane_per_merged_worker_shard(self):
        out = chrome_trace_events(merged_shard_trace())
        builds = [e for e in out if e["ph"] == "X" and e["name"] == "bench.build"]
        assert len(builds) == 2
        assert builds[0]["tid"] != builds[1]["tid"]
        # Each shard's analyze span shares its own root's lane.
        for build in builds:
            analyze = next(
                e
                for e in out
                if e["ph"] == "X"
                and e["name"] == "analyze"
                and e["tid"] == build["tid"]
            )
            assert build["ts"] <= analyze["ts"]
        lanes = {e["tid"] for e in out if e["ph"] == "X"}
        thread_names = [
            e for e in out if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert {m["tid"] for m in thread_names} == lanes

    def test_span_meta_becomes_args(self):
        out = chrome_trace_events(merged_shard_trace())
        builds = [e for e in out if e["ph"] == "X" and e["name"] == "bench.build"]
        assert sorted(b["args"]["worker"] for b in builds) == [0, 1]

    def test_events_sorted_by_timestamp(self):
        out = chrome_trace_events(nested_trace())
        body = [e for e in out if e["ph"] != "M"]
        assert [e["ts"] for e in body] == sorted(e["ts"] for e in body)

    def test_write_chrome_trace_file(self, tmp_path):
        path = str(tmp_path / "trace.chrome.json")
        count = write_chrome_trace(path, nested_trace())
        with open(path) as handle:
            payload = json.load(handle)
        assert isinstance(payload["traceEvents"], list)
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"


class TestCollapsedStacks:
    def test_self_time_weights(self):
        stacks = collapsed_stacks(nested_trace())
        assert stacks[("root",)] == 40_000
        assert stacks[("root", "child")] == 50_000
        assert stacks[("root", "child", "leaf")] == 10_000

    def test_recurring_stacks_accumulate(self):
        clock = FakeClock()
        sink = MemorySink()
        tracer = Tracer(sink, clock=clock)
        for _ in range(3):
            with tracer.span("analyze"):
                clock.advance(0.010)
        stacks = collapsed_stacks(sink.events)
        assert stacks == {("analyze",): 30_000}

    def test_round_trip_through_parser(self):
        stacks = collapsed_stacks(nested_trace())
        assert parse_collapsed(render_collapsed(stacks)) == stacks

    def test_parser_skips_malformed_lines(self):
        text = "a;b 10\nnot-a-weight abc\n\nweightless\nc 5\n"
        assert parse_collapsed(text) == {("a", "b"): 10, ("c",): 5}

    def test_render_is_deterministic(self):
        stacks = collapsed_stacks(nested_trace())
        assert render_collapsed(stacks) == render_collapsed(dict(reversed(list(stacks.items()))))

    def test_write_collapsed_file(self, tmp_path):
        path = str(tmp_path / "flame.txt")
        count = write_collapsed(path, nested_trace())
        with open(path) as handle:
            parsed = parse_collapsed(handle.read())
        assert len(parsed) == count == 3


class TestExportCLI:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        import json as _json

        path = tmp_path / "run.jsonl"
        lines = [_json.dumps(e) for e in nested_trace()]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_export_chrome(self, trace_file, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        assert main(["export", "chrome", trace_file, "-o", out]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(out) as handle:
            assert json.load(handle)["traceEvents"]

    def test_export_flame_default_path(self, trace_file, capsys):
        assert main(["export", "flame", trace_file]) == 0
        capsys.readouterr()
        parsed = parse_collapsed(Path(f"{trace_file}.collapsed.txt").read_text())
        assert ("root", "child", "leaf") in parsed

    def test_export_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["export", "chrome", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot export" in capsys.readouterr().err

    def test_export_empty_trace_warns(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["export", "flame", str(path)]) == 0
        captured = capsys.readouterr()
        assert "0 stack(s)" in captured.out
        assert "no span events" in captured.err

    def test_exports_on_real_bench_trace(self, tmp_path):
        """End-to-end: a traced run exports to both formats."""
        program = tmp_path / "p.icc"
        program.write_text(
            "class P { var v; def init(v) { this.v = v; } }\n"
            "def main() { var p = new P(5); print(p.v); }\n"
        )
        trace = str(tmp_path / "t.jsonl")
        assert main(["run", str(program), "--inline", "--trace", trace]) == 0
        chrome = str(tmp_path / "t.chrome.json")
        flame = str(tmp_path / "t.txt")
        assert export_chrome_file(trace, chrome) > 0
        assert export_collapsed_file(trace, flame) > 0
        with open(chrome) as handle:
            events = json.load(handle)["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "optimize" for e in events)
        parsed = parse_collapsed(Path(flame).read_text())
        assert any(path[0] == "optimize" for path in parsed)
