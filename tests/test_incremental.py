"""The analysis engine's incremental mode and its invalidation.

Differential tests prove the incremental engine (dirty-register local
passes, fact recording replayed from the cached fixpoint registers)
produces results bit-identical to the from-scratch reference
(``AnalysisConfig(incremental=False)``) on every benchmark program.
Targeted unit tests pin what both modes share: growth of a slot, a
global, a signature or a return value enqueues every contour that read
it, and contour GC scrubs the engine's tables.
"""

from __future__ import annotations

import pytest

from repro.analysis import SENSITIVITY_CONCERT, AnalysisCache, AnalysisConfig, analyze
from repro.analysis.engine import FlowAnalysis, _EvalState
from repro.analysis.tags import NOFIELD
from repro.analysis.values import PRIM_STR, join, make_val, prim_val
from repro.bench.programs import oopack, polyover, richards, silo
from repro.ir import compile_source
from repro.ir import model as ir

from conftest import RECTANGLE_SOURCE

#: Every source program shipped by ``repro.bench.programs``.
BENCH_SOURCES = {
    "oopack": oopack.SOURCE,
    "richards": richards.SOURCE,
    "silo": silo.SOURCE,
    "polyover": polyover.SOURCE,
    "polyover_array": polyover.SOURCE_ARRAY,
    "polyover_list": polyover.SOURCE_LIST,
}


def result_snapshot(result):
    """Every observable piece of an AnalysisResult, as comparable values."""
    manager = result.manager
    return {
        "slots": result.slots,
        "globals": result.global_values,
        "edges": {
            cid: {uid: frozenset(v) for uid, v in sites.items()}
            for cid, sites in result.call_edges.items()
        },
        "allocations": result.allocations,
        "facts": result.facts,
        "stores": result.stores,
        "identity_sites": result.identity_sites,
        "method_contours": {
            cid: (c.callable_name, c.key, c.arg_values, c.ret,
                  frozenset(c.callers), c.summary)
            for cid, c in manager.method_contours.items()
        },
        "object_contours": {
            cid: (c.class_name, c.site_uid, c.creator_id, c.is_array, c.summary)
            for cid, c in manager.object_contours.items()
        },
        "widened": (
            frozenset(manager.widened_callables),
            frozenset(manager.widened_sites),
        ),
    }


def assert_identical(source: str, name: str, **config_kwargs) -> None:
    program = compile_source(source, name)
    reference = analyze(program, AnalysisConfig(incremental=False, **config_kwargs))
    incremental = analyze(program, AnalysisConfig(incremental=True, **config_kwargs))
    ref_snap = result_snapshot(reference)
    inc_snap = result_snapshot(incremental)
    for key in ref_snap:
        assert inc_snap[key] == ref_snap[key], f"{name}: {key} diverged"


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(BENCH_SOURCES))
    def test_bench_program_results_identical(self, name):
        assert_identical(BENCH_SOURCES[name], f"{name}.icc")

    def test_rectangle_identical(self):
        assert_identical(RECTANGLE_SOURCE, "rectangle.icc")

    def test_identical_under_concert_sensitivity(self):
        assert_identical(
            BENCH_SOURCES["polyover"], "polyover.icc",
            sensitivity=SENSITIVITY_CONCERT,
        )

    def test_identical_under_widening_pressure(self):
        # Tiny contour caps force widening on richards; the widen hook must
        # keep both modes converging onto the same summary state.
        assert_identical(
            BENCH_SOURCES["richards"], "richards.icc",
            max_method_contours_per_callable=4,
            max_object_contours_per_site=2,
        )

    def test_identical_under_a_binding_local_pass_cap(self):
        # At two local passes some silo contours stop with work pending
        # and re-enqueue themselves; both modes must still agree.
        assert_identical(BENCH_SOURCES["silo"], "silo.icc", max_local_passes=2)
        program = compile_source(BENCH_SOURCES["silo"], "silo.icc")
        capped = FlowAnalysis(program, AnalysisConfig(max_local_passes=2))
        capped.run()
        uncapped = FlowAnalysis(program, AnalysisConfig())
        uncapped.run()
        assert capped._steps > uncapped._steps  # the cap binds


SLOT_DEP_SOURCE = """
class Box { var item; def init(v) { this.item = v; } }
def reader(b) { return b.item; }
def main() {
  var b = new Box(1);
  print(reader(b));
  b.item = 2.5;
  print(reader(b));
}
"""


def _run_flow(source: str, **config_kwargs) -> FlowAnalysis:
    program = compile_source(source, "test.icc")
    flow = FlowAnalysis(program, AnalysisConfig(**config_kwargs))
    flow.run()
    return flow


def _contour_named(flow: FlowAnalysis, name: str):
    matches = [
        c for c in flow.manager.method_contours.values() if c.callable_name == name
    ]
    assert matches, f"no live contour for {name}"
    return matches[0]


def _instr(flow: FlowAnalysis, contour, kind):
    """The first ``kind`` instruction of ``contour``'s callable."""
    callable_ = flow.program.lookup_callable(contour.callable_name)
    return next(instr for instr in callable_.instructions() if isinstance(instr, kind))


def _replay(flow: FlowAnalysis, contour, instr, reg: int, value) -> None:
    """Re-run one instruction of ``contour`` at its converged registers,
    with register ``reg`` grown by ``value``."""
    regs = list(flow._cached_regs[contour.id])
    regs[reg] = join(regs[reg], value)
    flow._transfer(contour, instr, _EvalState(regs=regs))


GLOBAL_DEP_SOURCE = """
var counter;
def bump() { counter = counter + 1; return counter; }
def main() { counter = 0; print(bump()); }
"""


class TestDependencyInvalidation:
    """Growth of a cell enqueues every contour that read it.

    Enqueueing runs through the reverse reader maps (``_slot_readers``,
    ``_global_readers``, ``MethodContour.callers``), which both modes
    share, so a lost enqueue can leave both equally wrong and pass the
    differentials.  Each test runs to the fixpoint, grows one cell
    through the instruction that writes it, and looks in the worklist.
    """

    def test_slot_read_registers_dependency(self):
        flow = _run_flow(SLOT_DEP_SOURCE)
        reader = _contour_named(flow, "reader")
        read = [slot for slot, readers in flow._slot_readers.items() if reader.id in readers]
        assert [field for _cid, field in read] == ["item"]

    def test_slot_write_marks_reader_stale(self):
        flow = _run_flow(SLOT_DEP_SOURCE)
        main = _contour_named(flow, "main")
        reader = _contour_named(flow, "reader")
        assert not flow._in_worklist
        store = _instr(flow, main, ir.SetField)
        _replay(flow, main, store, store.src, prim_val(PRIM_STR))
        slot = next(s for s in flow._slot_readers if s[1] == "item")
        assert PRIM_STR in flow.slots[slot].atoms
        assert flow._in_worklist == flow._slot_readers[slot] == {reader.id}

    def test_signature_growth_marks_callee_stale(self):
        # Concert sensitivity keys a function's arguments by class, so a
        # second Box contour joins into reader's one contour.
        flow = _run_flow(SLOT_DEP_SOURCE, sensitivity=SENSITIVITY_CONCERT)
        main = _contour_named(flow, "main")
        reader = _contour_named(flow, "reader")
        box, _created = flow.manager.get_object_contour("Box", -1, main.id)
        call = _instr(flow, main, ir.CallFunction)
        _replay(flow, main, call, call.args[0], make_val({box.id}, {NOFIELD}))
        assert box.id in reader.arg_values[0].atoms
        assert flow._in_worklist == {reader.id}

    def test_callee_return_growth_marks_caller_stale(self):
        flow = _run_flow(SLOT_DEP_SOURCE)
        main = _contour_named(flow, "main")
        reader = _contour_named(flow, "reader")
        assert {caller for caller, _site in reader.callers} == {main.id}
        ret = _instr(flow, reader, ir.Return)
        _replay(flow, reader, ret, ret.src, prim_val(PRIM_STR))
        assert PRIM_STR in reader.ret.atoms
        assert flow._in_worklist == {main.id}

    def test_global_read_registers_dependency(self):
        flow = _run_flow(GLOBAL_DEP_SOURCE)
        main = _contour_named(flow, "main")
        bump = _contour_named(flow, "bump")
        assert flow._global_readers["counter"] == {bump.id}
        store = _instr(flow, main, ir.SetGlobal)
        _replay(flow, main, store, store.src, prim_val(PRIM_STR))
        assert PRIM_STR in flow.global_values["counter"].atoms
        assert flow._in_worklist == {bump.id}

    def test_widening_rebinds_every_caller_to_the_summary(self):
        # Widening folds a callable's contours into a summary, which no
        # cell growth announces: the widen hook re-enqueues every caller
        # of the folded contours, so each rebinds to the summary.
        flow = _run_flow(
            BENCH_SOURCES["polyover"],
            max_method_contours_per_callable=4,
            max_object_contours_per_site=2,
        )
        widened = flow.manager.widened_callables
        assert widened
        contours = flow.manager.method_contours
        for sites in flow.call_edges.values():
            for callees in sites.values():
                for callee in (contours[cid] for cid in callees):
                    assert callee.summary or callee.callable_name not in widened

    def test_contour_gc_clears_engine_state(self):
        # Polymorphic signatures leave stale narrower contours behind; the
        # final pruning must scrub every engine-side cache for them.
        source = """
        def twice(x) { return x + x; }
        def main() { print(twice(1)); print(twice(2.5)); }
        """
        flow = _run_flow(source)
        live = set(flow.manager.method_contours)
        for table in (flow._cached_regs, flow.call_edges, flow.allocations):
            assert set(table) <= live

    def test_retired_revival_differential(self):
        # Signature growth retires narrow contours mid-analysis; later calls
        # revive them.  Both modes must agree on the survivors.
        source = """
        class A { var v; def init(x) { this.v = x; } def get() { return this.v; } }
        def use(a) { return a.get(); }
        def main() {
          var i = 0; var acc = 0;
          while (i < 3) { acc = acc + use(new A(i)); i = i + 1; }
          acc = acc + use(new A(2.5));
          print(acc);
        }
        """
        assert_identical(source, "revival.icc")


class TestRecordReplay:
    def test_second_record_pass_leaves_facts_unchanged(self):
        program = compile_source(BENCH_SOURCES["richards"], "richards.icc")
        flow = FlowAnalysis(program, AnalysisConfig())
        flow.run()
        before = dict(flow._facts)
        for contour in list(flow.manager.method_contours.values()):
            flow._record_contour(contour)
        assert flow._facts == before

    def test_rerecord_after_growth_replaces_not_duplicates(self):
        program = compile_source(SLOT_DEP_SOURCE, "test.icc")
        flow = FlowAnalysis(program, AnalysisConfig())
        flow.run()
        main = _contour_named(flow, "main")
        stores_before = {
            cid: list(entries) for cid, entries in flow._stores.items()
        }
        assert stores_before[main.id]
        flow._record_contour(main)
        assert flow._stores == stores_before  # replaced, not appended


class TestAnalysisCache:
    def test_same_program_same_config_hits(self):
        program = compile_source(SLOT_DEP_SOURCE, "test.icc")
        cache = AnalysisCache()
        config = AnalysisConfig()
        first = analyze(program, config)
        cache.put(program, config, first)
        assert cache.get(program, config) is first
        assert cache.hits == 1

    def test_distinct_config_misses(self):
        program = compile_source(SLOT_DEP_SOURCE, "test.icc")
        cache = AnalysisCache()
        config = AnalysisConfig()
        cache.put(program, config, analyze(program, config))
        other = AnalysisConfig(max_local_passes=31)
        assert cache.get(program, other) is None

    def test_discard_drops_program_entries(self):
        program = compile_source(SLOT_DEP_SOURCE, "test.icc")
        cache = AnalysisCache()
        config = AnalysisConfig()
        cache.put(program, config, analyze(program, config))
        cache.discard(program)
        assert cache.get(program, config) is None
        assert len(cache) == 0

    def test_optimize_shares_analysis_across_builds(self):
        from repro.inlining.pipeline import optimize

        program = compile_source(BENCH_SOURCES["oopack"], "oopack.icc")
        cache = AnalysisCache()
        inline = optimize(program, inline=True, analysis_cache=cache)
        manual = optimize(program, manual_only=True, analysis_cache=cache)
        assert manual.analysis is inline.analysis
        assert cache.hits >= 1

    def test_cached_reuse_preserves_program_output(self):
        from repro.inlining.pipeline import optimize
        from repro.runtime import run_program

        program = compile_source(BENCH_SOURCES["polyover_list"], "p.icc")
        reference = run_program(program).output
        cache = AnalysisCache()
        for kwargs in ({"inline": True}, {"manual_only": True}, {"inline": False}):
            report = optimize(program, analysis_cache=cache, **kwargs)
            assert run_program(report.program).output == reference
