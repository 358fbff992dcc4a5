"""Escape analysis, scalar replacement, and the frame region.

Covers the classification lattice (no/arg/global escape, loop residency),
the interprocedural summaries, the scalar-replacement and frame-local
transforms, the connection-graph cache, the decision audit (every
``escape-*`` reject stage reachable and round-tripping through trace
JSONL), and the escape-on/off differential on a real benchmark.
"""

import json

import pytest

from repro.analysis.escape import (
    ARG_ESCAPE,
    EscapeCache,
    GLOBAL_ESCAPE,
    NO_ESCAPE,
    analyze_escapes,
)
from repro.inlining.pipeline import optimize
from repro.ir import compile_source, validate_program
from repro.obs import MemorySink, Tracer, render_summary, summarize_events
from repro.opt import ESCAPE_REJECT_STAGES, apply_escape_optimization
from repro.runtime import run_program
from repro.runtime.heap import Heap, HeapError
from repro.session import CompileConfig, Session


def classify(source: str):
    program = compile_source(source)
    return program, analyze_escapes(program)


def sites_of(result, class_name):
    return [s for s in result.sites if s.class_name == class_name]


class TestClassification:
    def test_local_object_does_not_escape(self):
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            def main() { var p = new P(3); print(p.v); }
            """
        )
        (site,) = sites_of(result, "P")
        assert site.state == NO_ESCAPE
        assert site.state_name == "no-escape"

    def test_store_into_global_escapes(self):
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            var g = nil;
            def main() { g = new P(3); print(1); }
            """
        )
        (site,) = sites_of(result, "P")
        assert site.state == GLOBAL_ESCAPE
        assert "global" in site.reason

    def test_store_into_field_escapes(self):
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            class Box { var item; def init() { this.item = nil; } }
            def main() {
              var b = new Box();
              b.item = new P(3);
              print(b.item.v);
            }
            """
        )
        (site,) = sites_of(result, "P")
        assert site.state == GLOBAL_ESCAPE

    def test_returned_object_arg_escapes(self):
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            def make() { return new P(3); }
            def main() { print(make().v); }
            """
        )
        (site,) = sites_of(result, "P")
        assert site.state == ARG_ESCAPE
        assert "returned" in site.reason

    def test_callee_that_stores_escapes_the_actual(self):
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            var g = nil;
            def keep(p) { g = p; }
            def main() { var p = new P(3); keep(p); print(1); }
            """
        )
        (site,) = sites_of(result, "P")
        assert site.state == GLOBAL_ESCAPE
        assert "callee" in site.reason

    def test_callee_that_only_reads_keeps_no_escape(self):
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            def read(p) { return p.v; }
            def main() { var p = new P(3); print(read(p)); }
            """
        )
        (site,) = sites_of(result, "P")
        assert site.state == NO_ESCAPE

    def test_constructor_store_into_this_does_not_escape_this(self):
        # init writes its arguments into `this`: the arguments escape
        # (they outlive the constructor inside the object) but the fresh
        # object itself does not.
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            class Pair {
              var a; var b;
              def init(a, b) { this.a = a; this.b = b; }
            }
            def main() {
              var q = new Pair(new P(1), new P(2));
              print(q.a.v + q.b.v);
            }
            """
        )
        (pair_site,) = sites_of(result, "Pair")
        assert pair_site.state == NO_ESCAPE
        for p_site in sites_of(result, "P"):
            assert p_site.state == GLOBAL_ESCAPE

    def test_loop_residency_detected(self):
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            def main() {
              var total = 0;
              for (var i = 0; i < 3; i = i + 1) {
                var p = new P(i);
                total = total + p.v;
              }
              print(total);
            }
            """
        )
        (site,) = sites_of(result, "P")
        assert site.in_loop

    def test_alias_through_move_propagates_escape(self):
        _, result = classify(
            """
            class P { var v; def init(v) { this.v = v; } }
            var g = nil;
            def main() { var p = new P(3); var q = p; g = q; print(1); }
            """
        )
        (site,) = sites_of(result, "P")
        assert site.state == GLOBAL_ESCAPE


class TestEscapeCache:
    def test_second_analysis_hits_every_callable(self):
        program = compile_source(
            """
            class P { var v; def init(v) { this.v = v; } }
            def main() { var p = new P(3); print(p.v); }
            """
        )
        cache = EscapeCache()
        first = analyze_escapes(program, cache)
        assert first.local_misses > 0 and first.local_hits == 0
        second = analyze_escapes(program, cache)
        assert second.local_misses == 0
        assert second.local_hits == first.local_misses
        assert [s.state for s in second.sites] == [s.state for s in first.sites]


class TestScalarReplacement:
    SOURCE = """
    class Point {
      var x; var y;
      def init(a, b) { this.x = a; this.y = b; }
      def dist2() { return this.x * this.x + this.y * this.y; }
    }
    def use(n) {
      var p = new Point(n, n + 1);
      return p.dist2();
    }
    def main() {
      var total = 0;
      var i = 0;
      while (i < 10) {
        total = total + use(i);
        i = i + 1;
      }
      print(total);
    }
    """

    def test_allocation_dissolves_and_output_is_identical(self):
        session = Session(self.SOURCE)
        plain = session.run("plain")
        report = session.optimize(CompileConfig(inline=True))
        escape = report.escape_stats
        assert escape is not None
        assert escape.scalar_replaced >= 1
        optimized = session.run("inline")
        ablated = session.run("noescape")
        assert optimized.output == plain.output == ablated.output
        assert optimized.stats.allocations < ablated.stats.allocations

    def test_audit_records_scalar_acceptance(self):
        report = optimize(compile_source(self.SOURCE))
        escape = report.escape_stats
        accepted = [d for d in escape.decisions if d["accepted"]]
        assert any(d["mode"] == "scalar" for d in accepted)
        for decision in escape.decisions:
            assert decision["kind"] == "escape"
            assert isinstance(decision["key"], list) and len(decision["key"]) == 2


class TestFrameAllocation:
    # Two allocations through one variable: the destination register has
    # two definitions, so scalar replacement refuses, but the objects are
    # still no-escape and outside any loop -> frame region.
    SOURCE = """
    class P { var v; def init(v) { this.v = v; } }
    def main() {
      var p = new P(1);
      print(p.v);
      p = new P(2);
      print(p.v);
    }
    """

    def test_non_scalarizable_site_goes_to_frame(self):
        program = compile_source(self.SOURCE)
        stats = apply_escape_optimization(program)
        validate_program(program)
        assert stats.stack_allocated >= 1
        result = run_program(program)
        assert result.output == ["1", "2"]
        assert result.stats.frame_allocations >= 1
        assert result.stats.allocations == 0

    def test_frame_modes_recorded_in_audit(self):
        program = compile_source(self.SOURCE)
        stats = apply_escape_optimization(program)
        accepted = [d for d in stats.decisions if d["accepted"]]
        assert any(d["mode"] == "stack" for d in accepted)


class TestFrameRegion:
    def test_pop_reclaims_addresses_and_records(self):
        heap = Heap()
        marker = heap.push_frame()
        ref = heap.alloc_object("P", ("v",), frame_local=True)
        assert ref.address >= Heap.FRAME_BASE
        heap.write_field(ref, "v", 1)
        heap.pop_frame(marker)
        with pytest.raises(HeapError):
            heap.read_field(ref, "v")
        # The bump pointer rewound: the next frame reuses the address.
        heap.push_frame()
        again = heap.alloc_object("P", ("v",), frame_local=True)
        assert again.address == ref.address

    def test_root_region_allows_unbracketed_allocs(self):
        heap = Heap()
        ref = heap.alloc_object("P", ("v",), frame_local=True)
        heap.write_field(ref, "v", 7)
        assert heap.read_field(ref, "v")[0] == 7

    def test_nested_frames_pop_independently(self):
        heap = Heap()
        outer = heap.push_frame()
        outer_ref = heap.alloc_object("P", ("v",), frame_local=True)
        inner = heap.push_frame()
        inner_ref = heap.alloc_object("P", ("v",), frame_local=True)
        heap.pop_frame(inner)
        with pytest.raises(HeapError):
            heap.read_field(inner_ref, "v")
        heap.write_field(outer_ref, "v", 3)
        assert heap.read_field(outer_ref, "v")[0] == 3
        heap.pop_frame(outer)


REJECT_STAGE_SOURCES = {
    "escape-global": """
        class P { var v; def init(v) { this.v = v; } }
        var g = nil;
        def main() { g = new P(3); print(1); }
    """,
    # Recursion keeps the producer out of the inliner, so the returned
    # allocation stays arg-escaped through the full pipeline too.
    "escape-arg": """
        class P { var v; def init(v) { this.v = v; } }
        def make(n) {
          if (n > 0) { return make(n - 1); }
          return new P(3);
        }
        def main() { print(make(2).v); }
    """,
    # An identity comparison blocks scalar replacement; the loop blocks
    # the frame region.
    "escape-loop": """
        class P { var v; def init(v) { this.v = v; } }
        def main() {
          var total = 0;
          for (var i = 0; i < 3; i = i + 1) {
            var p = new P(i);
            if (p == p) { total = total + p.v; }
          }
          print(total);
        }
    """,
    # A plain local array: no-escape, but arrays have neither a scalar
    # nor a frame form.
    "escape-shape": """
        def main() {
          var a = array(2);
          a[0] = 4;
          print(a[0]);
        }
    """,
}


class TestRejectStages:
    def test_documented_stages_match_exported_tuple(self):
        assert set(REJECT_STAGE_SOURCES) == set(ESCAPE_REJECT_STAGES)

    @pytest.mark.parametrize("stage", list(REJECT_STAGE_SOURCES))
    def test_stage_is_reachable(self, stage):
        program = compile_source(REJECT_STAGE_SOURCES[stage])
        stats = apply_escape_optimization(program)
        assert stats.rejected.get(stage, 0) >= 1, stats.decisions

    @pytest.mark.parametrize("stage", list(REJECT_STAGE_SOURCES))
    def test_stage_round_trips_through_trace(self, stage, tmp_path):
        tracer = Tracer(MemorySink())
        optimize(compile_source(REJECT_STAGE_SOURCES[stage]), tracer=tracer)
        events = tracer._sink.events
        decisions = [
            e["data"]
            for e in events
            if e["ev"] == "event" and e["name"] == "decision"
        ]
        escaped = [d for d in decisions if d.get("kind") == "escape"]
        assert any(d.get("stage") == stage for d in escaped), escaped
        # And through JSONL + the summary renderer (`repro trace`).
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        with open(path) as handle:
            reloaded = [json.loads(line) for line in handle]
        summary = summarize_events(reloaded)
        assert any(
            d.get("stage") == stage for d in summary.decisions
        ), summary.decisions
        assert stage in render_summary(summary)


class TestBenchmarkDifferential:
    def test_silo_escape_on_off_bit_identical_and_fewer_allocations(self):
        from repro.bench.harness import PERFORMANCE_PROGRAMS

        session = Session(PERFORMANCE_PROGRAMS["silo"], path="silo")
        plain = session.run("plain")
        report = session.optimize(CompileConfig(inline=True))
        assert report.escape_stats.scalar_replaced >= 1
        optimized = session.run("inline")
        ablated = session.run("noescape")
        assert optimized.output == plain.output == ablated.output
        assert optimized.stats.allocations < ablated.stats.allocations
        assert optimized.stats.cache.misses < ablated.stats.cache.misses

    def test_escape_pass_off_records_nothing(self):
        report = optimize(
            compile_source(TestScalarReplacement.SOURCE), escape_pass=False
        )
        assert report.escape_stats is None


class TestFrameSoundnessPublicAPI:
    """Frame-region invariants observed through the Session API only."""

    RECURSIVE_SOURCE = """
        class P { var v; def init(v) { this.v = v; } def get() { return this.v; } }
        def work(n) {
            if (n == 0) { return 0; }
            var p = new P(n);
            return p.get() + work(n - 1);
        }
        def main() { print(work(6)); }
    """

    def test_recursive_frame_allocs_end_balanced(self):
        # Every activation that pushed a frame popped it: the run ends at
        # depth one (the entry region), with correct output.
        session = Session(self.RECURSIVE_SOURCE)
        base = session.run("plain")
        opt = session.run("inline")
        assert opt.output == base.output == ["21"]
        assert opt.heap.frame_depth == 1

    def test_exception_unwinds_do_not_leak_frames(self):
        from repro.runtime import ReproRuntimeError

        source = """
            class P { var v; def init(v) { this.v = v; } }
            def work(n) {
                var p = new P(n);
                if (n == 3) { return p.v / 0; }
                return work(n + 1);
            }
            def main() { print(work(0)); }
        """
        session = Session(source)
        with pytest.raises(ReproRuntimeError):
            session.run("inline")

    def test_degraded_escape_stage_never_unbalances_frames(self):
        # A crashing escape stage must roll back to the pre-stage
        # program: no half-rewritten callable may leave a push without
        # its pop. The oracle-grade check is output + final frame depth.
        from repro.inlining import pipeline as pipeline_module

        original = pipeline_module.apply_escape_optimization

        def sabotaged(program, **kwargs):
            original(program, **kwargs)  # mutate for real, then die
            raise RuntimeError("injected escape-stage crash")

        base = Session(self.RECURSIVE_SOURCE).run("plain")
        pipeline_module.apply_escape_optimization = sabotaged
        try:
            session = Session(self.RECURSIVE_SOURCE)
            report = session.optimize(CompileConfig(inline=True))
            result = session.run("inline")
        finally:
            pipeline_module.apply_escape_optimization = original
        assert [d["stage"] for d in report.degraded_stages] == ["escape"]
        assert result.output == base.output
        assert result.heap.frame_depth == 1
