"""Interpreter (VM) semantics tests."""

import pytest

from repro.runtime import ReproRuntimeError, StepLimitExceeded
from repro.ir import compile_source
from repro.runtime.interp import Interpreter

from conftest import output_of, run_source


class TestArithmetic:
    def test_integer_ops(self):
        assert output_of("def main() { print(7 + 3, 7 - 3, 7 * 3); }") == ["10 4 21"]

    def test_integer_division_truncates_toward_zero(self):
        assert output_of("def main() { print(7 / 2, -7 / 2, 7 / -2); }") == ["3 -3 -3"]

    def test_integer_modulo_c_style(self):
        assert output_of("def main() { print(7 % 3, -7 % 3, 7 % -3); }") == ["1 -1 1"]

    def test_float_division(self):
        assert output_of("def main() { print(7.0 / 2.0); }") == ["3.5"]

    def test_mixed_int_float_promotes(self):
        assert output_of("def main() { print(1 + 0.5, 3 * 2.0); }") == ["1.5 6"]

    def test_division_by_zero(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { print(1 / 0); }")

    def test_modulo_by_zero(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { print(1 % 0); }")

    def test_unary_minus(self):
        assert output_of("def main() { var x = 5; print(-x, -(-x)); }") == ["-5 5"]

    def test_unary_minus_on_string_fails(self):
        with pytest.raises(ReproRuntimeError):
            run_source('def main() { print(-"x"); }')

    def test_string_concatenation(self):
        assert output_of('def main() { print("ab" + "cd"); }') == ["abcd"]

    def test_string_plus_number_fails(self):
        with pytest.raises(ReproRuntimeError):
            run_source('def main() { print("a" + 1); }')

    def test_string_comparison(self):
        assert output_of('def main() { print("a" < "b", "b" <= "a"); }') == ["true false"]


class TestEqualityAndTruthiness:
    def test_numeric_equality_across_kinds(self):
        assert output_of("def main() { print(1 == 1.0, 1 != 2); }") == ["true true"]

    def test_bool_not_equal_to_int(self):
        assert output_of("def main() { print(true == 1, false == 0); }") == ["false false"]

    def test_nil_equality(self):
        assert output_of("def main() { print(nil == nil, nil == 0); }") == ["true false"]

    def test_reference_identity(self):
        out = output_of(
            "class A { }\n"
            "def main() { var a = new A(); var b = new A(); var c = a;\n"
            "  print(a == b, a == c, a != b); }"
        )
        assert out == ["false true true"]

    def test_truthiness(self):
        out = output_of(
            'def main() { print(!0, !1, !0.0, !nil, !false, !"", !"x"); }'
        )
        assert out == ["true false true true true true false"]

    def test_object_is_truthy(self):
        out = output_of(
            "class A { } def main() { var a = new A(); if (a) print(1); else print(2); }"
        )
        assert out == ["1"]


class TestObjects:
    def test_constructor_and_field_access(self):
        out = output_of(
            "class P { var x; def init(x) { this.x = x; } }\n"
            "def main() { var p = new P(9); print(p.x); }"
        )
        assert out == ["9"]

    def test_uninitialized_field_is_nil(self):
        out = output_of(
            "class P { var x; } def main() { print(new P().x); }"
        )
        assert out == ["nil"]

    def test_class_without_init_rejects_args(self):
        with pytest.raises(ReproRuntimeError):
            run_source("class P { } def main() { new P(1); }")

    def test_inherited_fields_and_methods(self):
        out = output_of(
            "class A { var x; def init(v) { this.x = v; } def get() { return this.x; } }\n"
            "class B : A { def double() { return this.get() * 2; } }\n"
            "def main() { print(new B(21).double()); }"
        )
        assert out == ["42"]

    def test_method_override(self):
        out = output_of(
            "class A { def who() { return 1; } }\n"
            "class B : A { def who() { return 2; } }\n"
            "def main() { var objs = array(2); objs[0] = new A(); objs[1] = new B();\n"
            "  print(objs[0].who(), objs[1].who()); }"
        )
        assert out == ["1 2"]

    def test_super_call(self):
        out = output_of(
            "class A { def m() { return 10; } }\n"
            "class B : A { def m() { return super.m() + 1; } }\n"
            "def main() { print(new B().m()); }"
        )
        assert out == ["11"]

    def test_missing_method(self):
        with pytest.raises(ReproRuntimeError):
            run_source("class A { } def main() { new A().nope(); }")

    def test_missing_field(self):
        with pytest.raises(ReproRuntimeError):
            run_source("class A { } def main() { print(new A().nope); }")

    def test_field_access_on_nil(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var x = nil; print(x.f); }")

    def test_send_to_int(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var x = 1; x.m(); }")

    def test_recursion(self):
        out = output_of(
            "def fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
            "def main() { print(fib(15)); }"
        )
        assert out == ["610"]


class TestArrays:
    def test_create_read_write(self):
        out = output_of(
            "def main() { var a = array(3); a[1] = 5; print(a[0], a[1], len(a)); }"
        )
        assert out == ["nil 5 3"]

    def test_index_out_of_range(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var a = array(2); print(a[2]); }")

    def test_negative_index(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var a = array(2); print(a[-1]); }")

    def test_non_integer_index(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var a = array(2); print(a[1.5]); }")

    def test_negative_size(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { array(-1); }")

    def test_len_of_non_array(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { print(len(5)); }")

    def test_indexing_non_array(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var x = 3; print(x[0]); }")

    def test_arrays_hold_objects(self):
        out = output_of(
            "class P { var v; def init(v) { this.v = v; } }\n"
            "def main() {\n"
            "  var a = array(3);\n"
            "  for (var i = 0; i < 3; i = i + 1) { a[i] = new P(i * i); }\n"
            "  var total = 0;\n"
            "  for (var j = 0; j < 3; j = j + 1) { total = total + a[j].v; }\n"
            "  print(total);\n"
            "}"
        )
        assert out == ["5"]


class TestBuiltins:
    def test_math_builtins(self):
        out = output_of(
            "def main() { print(sqrt(16.0), abs(-3), floor(2.7), ceil(2.1)); }"
        )
        assert out == ["4 3 2 3"]

    def test_min_max_pow(self):
        assert output_of("def main() { print(min(2, 5), max(2, 5), pow(2, 10)); }") == [
            "2 5 1024"
        ]

    def test_int_float_conversions(self):
        assert output_of("def main() { print(int(3.9), float(2)); }") == ["3 2"]

    def test_sqrt_negative(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { sqrt(-1.0); }")

    def test_assert_true_passes_and_fails(self):
        assert output_of("def main() { assert_true(1); print(1); }") == ["1"]
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { assert_true(0); }")

    def test_print_formats(self):
        out = output_of(
            'def main() { print(1, 2.5, true, nil, "s"); print(); }'
        )
        assert out == ["1 2.5 true nil s", ""]

    def test_print_object_is_opaque(self):
        out = output_of("class A { } def main() { print(new A()); }")
        assert out == ["<object>"]


class TestVMLimits:
    def test_step_limit(self):
        program = compile_source("def main() { while (true) { } }")
        with pytest.raises(StepLimitExceeded):
            Interpreter(program, max_steps=10_000).run()

    def test_step_limit_is_a_resource_limit_error(self):
        # Callers (the fuzz oracle, the daemon) catch the common base to
        # distinguish budget exhaustion from genuine crashes.
        from repro.runtime import ResourceLimitError

        assert issubclass(StepLimitExceeded, ResourceLimitError)
        assert issubclass(ResourceLimitError, ReproRuntimeError)

    def test_heap_cell_budget_on_objects(self):
        from repro.runtime import HeapLimitExceeded

        source = (
            "class A { var f; def init(v) { this.f = v; } }\n"
            "def main() { var i = 0; while (i < 1000) "
            "{ var a = new A(i); i = i + 1; } }"
        )
        with pytest.raises(HeapLimitExceeded):
            run_source(source, max_heap_cells=50)
        # A generous budget lets the same program finish.
        run_source(source, max_heap_cells=100_000)

    def test_heap_cell_budget_on_arrays(self):
        from repro.runtime import HeapLimitExceeded

        source = "def main() { var a = array(5000); print(len(a)); }"
        with pytest.raises(HeapLimitExceeded):
            run_source(source, max_heap_cells=100)

    def test_step_budget_via_run_kwargs(self):
        with pytest.raises(StepLimitExceeded):
            run_source("def main() { while (true) { } }", max_steps=5_000)

    def test_missing_main(self):
        program = compile_source("def helper() { }")
        with pytest.raises(ReproRuntimeError):
            Interpreter(program).run()

    def test_stats_are_collected(self):
        result = run_source(
            "class A { var f; def init(v) { this.f = v; } }\n"
            "def main() { var a = new A(1); print(a.f); a.m2(); }"
            .replace("a.m2();", "")
        )
        stats = result.stats
        assert stats.instructions > 0
        assert stats.allocations == 1
        assert stats.heap_reads >= 1
        assert stats.heap_writes >= 1
        assert stats.cycles() > stats.instructions

    #: Recursion ``n`` levels below ``main``: at depth ``n + 2`` in all.
    RECURSION = {
        "function": (
            "def down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }\n"
            "def main() { print(down(%d)); }"
        ),
        "method": (
            "class Node { def down(n) { if (n == 0) { return 0; } "
            "return this.down(n - 1) + 1; } }\n"
            "def main() { var node = new Node(); print(node.down(%d)); }"
        ),
        "constructor": (
            "class Chain { var next; def init(n) { "
            "if (n > 0) { this.next = new Chain(n - 1); } } }\n"
            "def main() { var chain = new Chain(%d); print(1); }"
        ),
    }

    @staticmethod
    def deep(run):
        """``run()``, failing briefly (a 250k-frame traceback takes
        pytest minutes to render) if Python's recursion limit fires
        before the VM's depth budget."""
        try:
            return run()
        except RecursionError:
            pass
        pytest.fail("RecursionError before the VM's depth budget", pytrace=False)

    #: Each shape at the default hot-tier threshold (the recursion
    #: compiles part way down), and with every callable compiled on first
    #: entry (``hot-``): a VM call from generated code must stay within
    #: the frames the recursion limit allows.
    SHAPES = [pytest.param(shape, False, id=shape) for shape in sorted(RECURSION)] + [
        pytest.param(shape, True, id=f"hot-{shape}") for shape in sorted(RECURSION)
    ]

    @staticmethod
    def tier(hot, monkeypatch):
        if hot:
            from repro.runtime import interp

            monkeypatch.setattr(interp, "HOT_PER_INSTR", 0)

    @pytest.mark.parametrize("shape, hot", SHAPES)
    def test_recursion_to_the_depth_budget_completes(self, shape, hot, monkeypatch):
        from repro.runtime import MAX_CALL_DEPTH

        self.tier(hot, monkeypatch)
        assert MAX_CALL_DEPTH == 50_000
        source = self.RECURSION[shape] % (MAX_CALL_DEPTH - 2)
        result = self.deep(lambda: run_source(source))
        assert result.stats.max_call_depth == MAX_CALL_DEPTH

    @pytest.mark.parametrize("shape, hot", SHAPES)
    def test_one_call_past_the_depth_budget_raises(self, shape, hot, monkeypatch):
        from repro.runtime import MAX_CALL_DEPTH, CallDepthExceeded, ResourceLimitError

        self.tier(hot, monkeypatch)
        assert issubclass(CallDepthExceeded, ResourceLimitError)
        source = self.RECURSION[shape] % (MAX_CALL_DEPTH - 1)
        with pytest.raises(CallDepthExceeded, match="more than 50000 nested calls"):
            self.deep(lambda: run_source(source))

    def test_depth_budget_holds_under_the_profiler(self):
        # The profiler's _call override adds a Python frame per VM call;
        # the recursion limit run() sets must still leave the budget to
        # fire first.
        from repro.runtime import MAX_CALL_DEPTH, CallDepthExceeded, profile_program

        source = self.RECURSION["constructor"]
        report = self.deep(
            lambda: profile_program(compile_source(source % (MAX_CALL_DEPTH - 2)))
        )
        assert report.result.stats.max_call_depth == MAX_CALL_DEPTH
        with pytest.raises(CallDepthExceeded):
            self.deep(lambda: profile_program(compile_source(source % (MAX_CALL_DEPTH - 1))))

    @pytest.mark.parametrize("shape", sorted(RECURSION))
    def test_depth_budget_holds_under_the_profiler_when_hot(self, shape, monkeypatch):
        from repro.runtime import MAX_CALL_DEPTH, CallDepthExceeded, profile_program

        self.tier(True, monkeypatch)
        source = self.RECURSION[shape]
        report = self.deep(
            lambda: profile_program(compile_source(source % (MAX_CALL_DEPTH - 2)))
        )
        assert report.result.stats.max_call_depth == MAX_CALL_DEPTH
        with pytest.raises(CallDepthExceeded):
            self.deep(lambda: profile_program(compile_source(source % (MAX_CALL_DEPTH - 1))))

    def test_depth_overflow_on_the_plain_build_is_an_oracle_skip(self):
        from repro.fuzz import check_program

        result = check_program(self.RECURSION["function"] % 60_000)
        assert not result.divergences
        assert result.skipped.startswith("CallDepthExceeded:")

    def test_call_depth_tracked(self):
        result = run_source(
            "def rec(n) { if (n == 0) return 0; return rec(n - 1); }\n"
            "def main() { rec(50); }"
        )
        assert result.stats.max_call_depth >= 50


class TestBuiltinErrors:
    """Builtins fail with a language error at the call, never with a raw
    Python arithmetic error or a complex number."""

    @pytest.mark.parametrize(
        "call, message",
        [
            ("floor(1e308 * 10.0)", "floor() result out of range"),
            ("ceil(0.0 - 1e308 * 10.0)", "ceil() result out of range"),
            ("int(1e308 * 10.0 - 1e308 * 10.0)", "int() cannot convert float NaN to integer"),
            ("pow(0, -1)", "pow() division by zero"),
            ("pow(10.0, 400)", "pow() result out of range"),
            ("float(pow(10, 400))", "float() result out of range"),
            ("pow(-8, 0.5)", "pow() result is not a real number"),
        ],
    )
    def test_raises_a_language_error_at_the_call(self, call, message):
        with pytest.raises(ReproRuntimeError) as info:
            run_source("def main() {\n  print(%s);\n}" % call)
        assert type(info.value) is ReproRuntimeError
        assert info.value.raw_message == message
        assert (info.value.location.line, info.value.location.column) == (2, 9)

    def test_in_range_results_are_unchanged(self):
        assert output_of("def main() { print(pow(10, 20), pow(-8, 2.0), int(-2.5)); }") == [
            "100000000000000000000 64 -2"
        ]


class TestTiers:
    """The hot tier computes exactly what the cold tier computes."""

    #: One long loop in a ``main`` entered once: only a switch to the hot
    #: tier mid-activation can run any of it hot.
    LOOP = (
        "class Acc { var total; var last; def init() { this.total = 0; } }\n"
        "def main() {\n"
        "  var acc = new Acc(); var cells = array(8); var i = 0;\n"
        "  while (i < 400) {\n"
        "    acc.total = acc.total + i % 7 - i / 5;\n"
        "    cells[i % 8] = min(i, 300) + max(0.5, acc.total);\n"
        "    if (i % 3 == 0 && cells[i % 8] != nil) { acc.last = -i; }\n"
        "    i = i + 1;\n"
        "  }\n"
        "  print(acc.total, acc.last, cells[3], len(cells), !acc.last);\n"
        "}"
    )

    #: Names that are Python keywords, builtins or the generated code's
    #: own identifiers, and strings that would break a Python literal.
    HOSTILE = (
        'var lambda; var regs;\n'
        'class import {\n'
        '  var None; var self; var __class__;\n'
        '  def init(regs) { this.None = regs; this.self = "a\\"b\\\\c\\nd\'"; this.__class__ = 0; }\n'
        '  def lambda(regs) { this.__class__ = this.__class__ + regs; return this.None + regs; }\n'
        '}\n'
        'def self(regs) { return regs + 1; }\n'
        'def __class__(x) { return x.self + "\\\\"; }\n'
        'def main() {\n'
        '  lambda = new import(3); regs = 0; var i = 0;\n'
        '  while (i < 50) { regs = regs + lambda.lambda(self(i)); i = i + 1; }\n'
        '  print(regs, lambda.__class__, lambda.None, __class__(lambda));\n'
        '}'
    )

    @staticmethod
    def run(source, hot_per_instr, monkeypatch, **options):
        from repro.obs import MemorySink, Tracer
        from repro.runtime import interp, run_program

        monkeypatch.setattr(interp, "HOT_PER_INSTR", hot_per_instr)
        tracer = Tracer(MemorySink())
        result = run_program(compile_source(source), tracer=tracer, **options)
        return result, tracer.counters

    def outcome(self, source, hot_per_instr, monkeypatch, **options):
        try:
            result, _ = self.run(source, hot_per_instr, monkeypatch, **options)
        except StepLimitExceeded as exc:
            return str(exc)
        return result.output, result.stats.summary()

    def test_a_loop_switches_tiers_mid_activation(self, monkeypatch):
        cold, counters = self.run(self.LOOP, float("inf"), monkeypatch)
        assert counters["run.tier.compiled"] == 0
        assert counters["run.tier.hot_instructions"] == 0
        # At twice its size in back-edges, main compiles mid-loop; the
        # callables entered once (@global_init, Acc::init) stay cold.
        hot, counters = self.run(self.LOOP, 2, monkeypatch)
        assert counters["run.tier.compiled"] == 1
        assert 0 < counters["run.tier.hot_instructions"] < hot.stats.instructions
        assert hot.output == cold.output == ["-14603 -399 300.5 8 false"]
        assert hot.stats.summary() == cold.stats.summary()
        full = cold.stats.instructions
        for budget in (full, full - 1, full // 2, 7):
            expected = self.outcome(self.LOOP, float("inf"), monkeypatch, max_steps=budget)
            assert self.outcome(self.LOOP, 2, monkeypatch, max_steps=budget) == expected, budget
            assert (budget == full) == (type(expected) is tuple)

    def test_generated_sources_leave_linecache(self, monkeypatch):
        import linecache
        import traceback

        from repro.runtime import interp

        prefix = f"<{interp.__file__}>:"

        def generated():
            return [name for name in linecache.cache if name.startswith(prefix)]

        full = self.run(self.LOOP, 2, monkeypatch)[0].stats.instructions
        assert generated() == []
        with pytest.raises(StepLimitExceeded) as failure:
            self.run(self.LOOP, 2, monkeypatch, max_steps=full - 1)
        # The failed run's traceback shows its generated lines ...
        assert generated() == [prefix + "main"]
        frames = [
            frame for frame in traceback.extract_tb(failure.value.__traceback__)
            if frame.filename.startswith(prefix)
        ]
        assert frames and all(frame.line for frame in frames)
        # ... until the next run, even one that compiles nothing.
        self.run(self.LOOP, float("inf"), monkeypatch)
        assert generated() == []

    def test_hostile_names_run_identically_in_both_tiers(self, monkeypatch):
        cold = self.outcome(self.HOSTILE, float("inf"), monkeypatch)
        hot, counters = self.run(self.HOSTILE, 0, monkeypatch)
        assert counters["run.tier.compiled"] == 6  # every callable
        assert (hot.output, hot.stats.summary()) == cold
        assert cold[0] == ['1425 1275 3 a"b\\c\nd\'\\']

    #: An embedded array the inlining build turns into indexed field
    #: accesses (``GetFieldIndexed``/``SetFieldIndexed``), plus unary ops.
    EMBEDDED = (
        "class C { var tag; var d;\n"
        "  def init(tag) {\n"
        "    this.tag = tag; var a = array(4);\n"
        "    for (var i = 0; i < 4; i = i + 1) { a[i] = -i * i; }\n"
        "    this.d = a;\n"
        "  }\n"
        "  def sum() {\n"
        "    var a = this.d; var t = 0;\n"
        "    for (var i = 0; i < len(a); i = i + 1) { t = t + a[i]; }\n"
        "    return t;\n"
        "  }\n"
        "  def poke(i, v) { var a = this.d; a[i] = v; }\n"
        "}\n"
        "def main() {\n"
        "  var c = new C(9); c.poke(0, 100);\n"
        "  print(c.sum(), -c.tag, !c.tag, !nil);\n"
        "}"
    )

    def test_every_instruction_type_has_a_template(self, monkeypatch):
        from repro.ir import model as ir
        from repro.runtime import interp
        from repro.session import Session

        kinds = {
            kind for kind in vars(ir).values()
            if isinstance(kind, type) and issubclass(kind, ir.Instr) and kind is not ir.Instr
        }
        assert set(interp._TEMPLATES) == kinds - {ir.Branch, ir.Jump, ir.Return}
        session = Session(self.EMBEDDED)
        program = session.program_for("inline")
        used = {type(instr) for fn in program.callables() for instr in fn.instructions()}
        assert {ir.GetFieldIndexed, ir.SetFieldIndexed, ir.UnOp} <= used

        def outcome(hot_per_instr, **options):
            monkeypatch.setattr(interp, "HOT_PER_INSTR", hot_per_instr)
            try:
                run = session.run("inline", **options)
            except StepLimitExceeded as exc:
                return str(exc)
            return run.output, run.stats.summary()

        cold = outcome(float("inf"))
        assert cold[0] == ["86 -9 false true"]
        assert outcome(0) == cold
        full = cold[1]["instructions"]
        for budget in (full - 1, full // 2):
            assert outcome(0, max_steps=budget) == outcome(float("inf"), max_steps=budget)
