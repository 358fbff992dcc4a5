"""IR printer, validator and program-model tests."""

import dataclasses

import pytest

from repro.inlining import optimize
from repro.ir import (
    ValidationError,
    compile_source,
    copy_program,
    format_callable,
    format_instr,
    format_program,
    validate_callable,
    validate_program,
)
from repro.ir import model as ir
from repro.lang.errors import UNKNOWN_LOCATION


def instr(cls, **kwargs):
    return ir.make_instr(cls, UNKNOWN_LOCATION, **kwargs)


class TestPrinter:
    def test_every_instruction_kind_formats(self):
        samples = [
            instr(ir.Const, dest=0, value=1),
            instr(ir.Move, dest=0, src=1),
            instr(ir.UnOp, dest=0, op="-", src=1),
            instr(ir.BinOp, dest=0, op="+", lhs=1, rhs=2),
            instr(ir.New, dest=0, class_name="A", args=(1,)),
            instr(ir.New, dest=0, class_name="A", args=(), on_stack=True, skip_init=True),
            instr(ir.NewArray, dest=0, size=1),
            instr(ir.NewArray, dest=0, size=1, inline_layout="P@e", parallel_layout=True),
            instr(ir.GetField, dest=0, obj=1, field_name="f"),
            instr(ir.SetField, obj=0, field_name="f", src=1),
            instr(ir.GetFieldIndexed, dest=0, obj=1, base_field="d__0", length=4, index=2),
            instr(ir.SetFieldIndexed, obj=0, base_field="d__0", length=4, index=1, src=2),
            instr(ir.GetIndex, dest=0, array=1, index=2),
            instr(ir.SetIndex, array=0, index=1, src=2),
            instr(ir.ArrayLen, dest=0, array=1),
            instr(ir.CallMethod, dest=0, recv=1, method_name="m", args=(2,)),
            instr(ir.CallStatic, dest=0, recv=1, class_name="A", method_name="m", args=()),
            instr(ir.CallFunction, dest=0, func_name="f", args=(1, 2)),
            instr(ir.CallBuiltin, dest=0, builtin_name="print", args=()),
            instr(ir.GetGlobal, dest=0, name="g"),
            instr(ir.SetGlobal, name="g", src=0),
            instr(ir.MakeView, dest=0, array=1, index=2, class_name="P@e"),
            instr(ir.Jump, target=0),
            instr(ir.Branch, cond=0, then_target=1, else_target=2),
            instr(ir.Return, src=None),
            instr(ir.Return, src=0),
        ]
        for sample in samples:
            text = format_instr(sample)
            assert isinstance(text, str) and text

    def test_stack_and_skip_markers(self):
        text = format_instr(
            instr(ir.New, dest=0, class_name="A", args=(), on_stack=True, skip_init=True)
        )
        assert "[stack]" in text and "[skip-init]" in text

    def test_format_program_includes_classes_and_functions(self):
        program = compile_source(
            "class A { var x; def m() { return this.x; } } def main() { }"
        )
        text = format_program(program)
        assert "class A" in text
        assert "A::m" in text
        assert "main" in text

    def test_format_callable_shows_blocks(self):
        program = compile_source("def main() { if (1) { print(1); } }")
        text = format_callable(program.functions["main"])
        assert "B0:" in text and "B1:" in text


class TestValidator:
    def make_callable(self, blocks):
        return ir.IRCallable(
            name="f", params=(), num_regs=4, blocks=blocks, is_method=False
        )

    def test_valid_program_passes(self, rectangle_program):
        validate_program(rectangle_program)

    def test_empty_block_rejected(self):
        callable_ = self.make_callable([ir.Block()])
        with pytest.raises(ValidationError, match="empty"):
            validate_callable(callable_)

    def test_missing_terminator_rejected(self):
        block = ir.Block()
        block.instrs.append(instr(ir.Const, dest=0, value=1))
        with pytest.raises(ValidationError, match="terminator"):
            validate_callable(self.make_callable([block]))

    def test_terminator_mid_block_rejected(self):
        block = ir.Block()
        block.instrs.append(instr(ir.Return, src=None))
        block.instrs.append(instr(ir.Return, src=None))
        with pytest.raises(ValidationError, match="mid-block"):
            validate_callable(self.make_callable([block]))

    def test_register_out_of_range_rejected(self):
        block = ir.Block()
        block.instrs.append(instr(ir.Move, dest=0, src=99))
        block.instrs.append(instr(ir.Return, src=None))
        with pytest.raises(ValidationError, match="out of range"):
            validate_callable(self.make_callable([block]))

    def test_jump_target_out_of_range_rejected(self):
        block = ir.Block()
        block.instrs.append(instr(ir.Jump, target=7))
        with pytest.raises(ValidationError, match="target"):
            validate_callable(self.make_callable([block]))

    def test_duplicate_uids_rejected(self):
        shared = instr(ir.Return, src=None)
        a = ir.Block(); a.instrs.append(instr(ir.Jump, target=1))
        b = ir.Block(); b.instrs.append(shared)
        callable_ = self.make_callable([a, b])
        callable_.blocks[0].instrs[0] = ir.Jump(shared.uid, UNKNOWN_LOCATION, 1)
        with pytest.raises(ValidationError, match="duplicate uid"):
            validate_callable(callable_)

    def test_unknown_class_reference_rejected(self):
        program = compile_source("class A { } def main() { print(new A()); }")
        main = program.functions["main"]
        for block in main.blocks:
            block.instrs = [
                instr(ir.New, dest=i.dest, class_name="Ghost", args=())
                if isinstance(i, ir.New) else i
                for i in block.instrs
            ]
        with pytest.raises(ValidationError, match="unknown class"):
            validate_program(program)

    def test_unknown_global_rejected(self):
        program = compile_source("var g; def main() { print(g); }")
        main = program.functions["main"]
        for block in main.blocks:
            block.instrs = [
                instr(ir.GetGlobal, dest=i.dest, name="ghost")
                if isinstance(i, ir.GetGlobal) else i
                for i in block.instrs
            ]
        with pytest.raises(ValidationError, match="unknown global"):
            validate_program(program)


class TestProgramModel:
    def test_superclass_chain(self, rectangle_program):
        assert rectangle_program.superclass_chain("Point3D") == ["Point3D", "Point"]

    def test_layout_inherited_first(self, rectangle_program):
        assert rectangle_program.layout("Point3D") == ["x_pos", "y_pos", "z_pos"]

    def test_resolve_method_walks_chain(self, rectangle_program):
        defining, method = rectangle_program.resolve_method("Point3D", "abs")
        assert defining == "Point"
        assert method.method_name == "abs"

    def test_resolve_missing_method(self, rectangle_program):
        assert rectangle_program.resolve_method("Point", "fly") is None

    def test_subclasses(self, rectangle_program):
        assert rectangle_program.subclasses("Point") == ["Point3D"]

    def test_lookup_callable(self, rectangle_program):
        assert rectangle_program.lookup_callable("Point::abs") is not None
        assert rectangle_program.lookup_callable("head") is not None
        assert rectangle_program.lookup_callable("Ghost::m") is None


class TestCopyProgram:
    SOURCE = """
    class P {
        var x;
        def init(x) { this.x = x; }
        def get() { return this.x; }
    }
    class B {
        var inline p;
        def init(v) { this.p = new P(v); }
        def total() { return this.p.get() + 1; }
    }
    var scale = 3;
    def helper(n) { return n * scale; }
    def main() { print(new B(4).total() + helper(2)); }
    """

    #: Every field of the IR containers, as :func:`copy_program` handles
    #: it.  A field added to one of these classes must be added here and
    #: to the copy: a mutable field the copy leaves out would be shared
    #: between a rollback snapshot and the live program.
    COPIED_FIELDS = {
        ir.IRProgram: {"classes", "functions", "global_names"},
        ir.IRClass: {
            "name", "superclass", "fields", "methods",
            "inline_fields", "inlined_state", "source_name",
        },
        ir.IRCallable: {
            "name", "params", "num_regs", "blocks",
            "is_method", "class_name", "source_name",
        },
        ir.Block: {"instrs"},
    }

    def program(self):
        """An inlined program, so ``inlined_state`` is populated."""
        program = optimize(compile_source(self.SOURCE), inline=True).program
        assert any(cls.inlined_state for cls in program.classes.values())
        return program

    @staticmethod
    def containers(program):
        """The program and every container it holds, in a fixed order."""
        yield program
        for cls in program.classes.values():
            yield cls
        for callable_ in program.callables():
            yield callable_
            yield from callable_.blocks

    def test_mutating_every_container_of_the_copy_leaves_the_original(self):
        original = self.program()
        text = format_program(original)
        regs = {c.name: c.num_regs for c in original.callables()}
        inline_fields = {n: set(c.inline_fields) for n, c in original.classes.items()}
        global_names = list(original.global_names)

        copy = copy_program(original)
        assert format_program(copy) == text
        del copy.functions[ir.IRProgram.GLOBAL_INIT]
        main = copy.functions["main"]
        main.blocks[0].instrs.append(main.blocks[0].instrs[-1])
        main.num_regs += 5
        method = next(iter(copy.classes["B"].methods.values()))
        method.blocks = method.blocks[:1]
        method.num_regs += 1
        for cls in copy.classes.values():
            cls.fields.append("ghost")
            cls.methods.clear()
            cls.inline_fields.add("ghost")
            cls.inlined_state.clear()
        copy.global_names.append("ghost")

        assert format_program(original) == text
        assert {c.name: c.num_regs for c in original.callables()} == regs
        assert {n: c.inline_fields for n, c in original.classes.items()} == inline_fields
        assert original.global_names == global_names

    def test_containers_are_fresh_and_instructions_shared(self):
        original = self.program()
        copy = copy_program(original)
        pairs = zip(self.containers(original), self.containers(copy), strict=True)
        for before, after in pairs:
            assert after is not before and type(after) is type(before)
            for spec in dataclasses.fields(before):
                value = getattr(before, spec.name)
                assert getattr(after, spec.name) == value, spec.name
                if isinstance(value, (list, dict, set)):
                    assert getattr(after, spec.name) is not value, spec.name
        for before, after in zip(original.callables(), copy.callables()):
            for old, new in zip(before.instructions(), after.instructions(), strict=True):
                assert new is old

    def test_an_aliased_callable_stays_aliased(self):
        original = self.program()
        getter = next(iter(original.classes["P"].methods.values()))
        original.functions["alias"] = getter
        copy = copy_program(original)
        copied = copy.functions["alias"]
        assert copied is not getter
        assert copied is next(iter(copy.classes["P"].methods.values()))

    def test_copy_handles_every_container_field(self):
        for cls, handled in self.COPIED_FIELDS.items():
            assert {spec.name for spec in dataclasses.fields(cls)} == handled, cls.__name__
