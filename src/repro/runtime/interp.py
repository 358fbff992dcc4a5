"""The VM: a predecoded interpreter for the CFG IR.

The interpreter doubles as the paper's performance substrate.  Every heap
access goes through the simulated :class:`~repro.runtime.heap.Heap` and the
:class:`~repro.runtime.cache.CacheSimulator`, and every executed
instruction updates :class:`~repro.runtime.costmodel.ExecutionStats`; the
cost model then turns these counters into a cycle estimate.

Both the uniform-model program and the object-inlined program run on this
same VM, so the relative performance between them is attributable entirely
to the transformation (fewer dereferences, fewer allocations, static
dispatch, better locality).

How a run executes:

- **Decoding, per run.**  The first time control reaches a block, its
  instructions are decoded into a tuple of closures, and the run loop
  only calls them.  Decoding binds register indices, constants, field,
  method and builtin names, and whether locality attribution is on.
  Call sites cache the methods and functions they resolve; field
  accesses cache slot positions per class, and ``new`` class layouts.  Each closure's fast path covers the well-typed
  common case and falls back to the general ``_get_field``/``_binop``/...
  methods for everything else, so every error is the one those methods
  raise.  Decoded code binds this run's heap, cache and counters: it
  lives on the :class:`Interpreter` and is dropped when the run ends.
- **Step counting, per segment.**  Each block is cut into call-free
  segments: the instructions up to and including the next call, ``new``
  or terminator.  A segment's steps are charged in one addition before it
  runs, so whenever a call starts ``stats.instructions`` reads as if
  counted one instruction at a time.  A segment that would cross
  ``max_steps`` is stepped one instruction at a time instead, so
  :class:`StepLimitExceeded` stops at the same instruction and location.
  A run that stops on any other error has counted its whole last segment.
- **Depth budget.**  A run nests at most :data:`MAX_CALL_DEPTH` VM calls;
  one more raises :class:`CallDepthExceeded`.  :meth:`Interpreter.run`
  raises Python's recursion limit far enough that a runaway recursion
  hits this budget, never ``RecursionError``.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

from ..ir import model as ir
from ..lang.errors import SourceLocation
from ..obs.tracer import NULL_TRACER
from .builtins import BuiltinError, call_builtin
from .cache import CacheConfig, CacheSimulator
from .costmodel import CostModel, ExecutionStats
from .heap import ARRAY_HEADER, OBJECT_HEADER, SLOT_SIZE, Heap, HeapError
from .values import ArrayRef, ObjectRef, Value, ViewRef, format_value, is_truthy

#: The deepest chain of nested VM calls a run may build.
MAX_CALL_DEPTH = 50_000

#: The most Python frames one VM call occupies: the call site's closure,
#: ``_new_object`` for a constructor, ``_call`` (twice under the
#: profiler, whose override calls it) and ``_run_frame``.
_PY_FRAMES_PER_CALL = 5

#: Exact value types the arithmetic fast paths accept (``bool`` is not a
#: number in mini-ICC++, and ``type(True) is bool``).
_NUMBERS = frozenset((int, float))

#: Binary operators whose result on two numbers is Python's own.
_NUMERIC_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _reader(indices: tuple[int, ...]):
    """A function returning the registers at ``indices`` as a fresh list
    (the argument list a call site passes on)."""
    if not indices:
        return lambda regs: []
    if len(indices) == 1:
        return lambda regs, only=indices[0]: [regs[only]]
    return lambda regs, read=operator.itemgetter(*indices): list(read(regs))


#: How a decoded block ends.
_BRANCH, _JUMP, _RETURN, _FALL_OFF = range(4)


class ReproRuntimeError(Exception):
    """A mini-ICC++ runtime error (type error, missing method, ...)."""

    def __init__(self, message: str, location: SourceLocation | None = None) -> None:
        if location is not None and location.line:
            super().__init__(f"{location}: {message}")
        else:
            super().__init__(message)
        self.raw_message = message
        self.location = location


class ResourceLimitError(ReproRuntimeError):
    """A run exceeded one of its resource budgets (steps, heap cells,
    call depth).

    The fuzzer and the compile service both need hang-proof execution:
    catching this (rather than the broad :class:`ReproRuntimeError`)
    distinguishes "the program was too big for its budget" from "the
    program is wrong".
    """


class StepLimitExceeded(ResourceLimitError):
    """Raised when execution exceeds the configured instruction budget."""


class HeapLimitExceeded(ResourceLimitError):
    """Raised when heap allocation exceeds the configured cell budget."""


class CallDepthExceeded(ResourceLimitError):
    """Raised when nested calls would exceed :data:`MAX_CALL_DEPTH`."""


@dataclass(slots=True)
class RunResult:
    """Everything observable about one program run."""

    output: list[str]
    stats: ExecutionStats
    heap: Heap
    globals: dict[str, Value]
    return_value: Value = None

    def cycles(self, model: CostModel | None = None) -> int:
        return self.stats.cycles(model)


class _Unit:
    """One callable as the run loop sees it: its arity, the padding that
    turns an argument list into a register file, and its blocks, each
    decoded the first time control reaches it."""

    __slots__ = ("callable_", "formals", "padding", "blocks")

    def __init__(self, callable_: ir.IRCallable) -> None:
        self.callable_ = callable_
        self.formals = callable_.num_formals
        self.padding = (None,) * max(0, callable_.num_regs - self.formals)
        self.blocks: list[tuple | None] = [None] * len(callable_.blocks)


class Interpreter:
    """Executes an :class:`~repro.ir.model.IRProgram`."""

    def __init__(
        self,
        program: ir.IRProgram,
        cache_config: CacheConfig | None = None,
        max_steps: int = 500_000_000,
        tracer=NULL_TRACER,
        attribute_locality: bool = False,
        locality_bucket_lines: int = 64,
        max_heap_cells: int | None = None,
    ) -> None:
        self.program = program
        self.heap = Heap()
        self.cache = CacheSimulator(cache_config)
        # Attribution is observation-only and off by default.  Decoding
        # reads ``_locality``: with it off, accessors take fast paths that
        # never build labels; with it on, they call the general methods,
        # which label every access.  The simulated counters are
        # bit-identical either way (differentially tested in
        # tests/test_locality.py).
        self._locality = (
            self.cache.enable_attribution(locality_bucket_lines)
            if attribute_locality
            else None
        )
        self.stats = ExecutionStats(cache=self.cache.stats, locality=self._locality)
        self.globals: dict[str, Value] = {name: None for name in program.global_names}
        self.output: list[str] = []
        self._max_steps = max_steps
        self._max_heap_cells = max_heap_cells
        self._depth = 0
        #: id(callable) -> its decoded unit (this run's code).
        self._units: dict[int, _Unit] = {}
        #: field name -> its slot caches (see _field_slots).
        self._fields: dict[str, tuple] = {}
        #: class name -> (field layout, resolved ``init`` or None).
        self._classes: dict[str, tuple[tuple[str, ...], ir.IRCallable | None]] = {}
        # One program scan up front: frame push/pop bracketing in _call is
        # only armed when the escape stage actually produced frame-local
        # allocations, so untransformed programs pay nothing.
        self._frame_regions = any(
            type(instr) is ir.New and instr.frame_local
            for callable_ in program.callables()
            for instr in callable_.instructions()
        )
        # Consulted only at run()-end (never in the dispatch loop), so the
        # default no-op tracer adds zero per-instruction overhead.
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Entry points.

    def run(self, entry: str = ir.IRProgram.ENTRY_FUNCTION) -> RunResult:
        """Run @global_init then ``entry`` (default ``main``)."""
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(old_limit + MAX_CALL_DEPTH * _PY_FRAMES_PER_CALL)
        try:
            init = self.program.functions.get(ir.IRProgram.GLOBAL_INIT)
            if init is not None:
                self._call(init, [])
            entry_fn = self.program.functions.get(entry)
            if entry_fn is None:
                raise ReproRuntimeError(f"missing entry function {entry!r}")
            if entry_fn.params:
                raise ReproRuntimeError(f"entry function {entry!r} must take no arguments")
            result = self._call(entry_fn, [])
        finally:
            sys.setrecursionlimit(old_limit)
            # Decoded closures refer back to this interpreter; dropping
            # them breaks the cycle, so the run's state is freed now
            # rather than at the next cyclic collection.
            self._units.clear()
        if self.tracer.enabled:
            # Surface the VM's counters as trace data at run end.
            summary = self.stats.summary()
            self.tracer.event("run.stats", **summary)
            for key, value in summary.items():
                if isinstance(value, int):  # ratios stay event-only
                    self.tracer.count(f"run.{key}", value)
            if self._locality is not None:
                # Bounded breakdowns: top-K labels/buckets + truncation count.
                self.tracer.event("run.locality", **self._locality.label_summary())
                self.tracer.event("run.heatmap", **self._locality.heatmap_summary())
        return RunResult(
            output=self.output,
            stats=self.stats,
            heap=self.heap,
            globals=self.globals,
            return_value=result,
        )

    def call_function(self, name: str, args: list[Value]) -> Value:
        """Call a top-level function directly (used by tests)."""
        fn = self.program.functions.get(name)
        if fn is None:
            raise ReproRuntimeError(f"unknown function {name!r}")
        return self._call(fn, list(args))

    # ------------------------------------------------------------------
    # Core execution.

    def _call(self, callable_: ir.IRCallable, args: list[Value]) -> Value:
        """Run one activation.  ``args`` must be a fresh list: it is
        padded in place into the callee's register file."""
        unit = self._units.get(id(callable_))
        if unit is None:
            unit = self._units[id(callable_)] = _Unit(callable_)
        if len(args) != unit.formals:
            raise ReproRuntimeError(
                f"{callable_.name} expects {unit.formals} values, got {len(args)}"
            )
        depth = self._depth + 1
        if depth > MAX_CALL_DEPTH:
            raise CallDepthExceeded(
                f"{callable_.name}: more than {MAX_CALL_DEPTH} nested calls"
            )
        self._depth = depth
        if depth > self.stats.max_call_depth:
            self.stats.max_call_depth = depth
        args += unit.padding
        if not self._frame_regions:
            try:
                return self._run_frame(unit, args)
            finally:
                self._depth = depth - 1
        marker = self.heap.push_frame()
        try:
            return self._run_frame(unit, args)
        finally:
            self.heap.pop_frame(marker)
            self._depth = depth - 1

    def _run_frame(self, unit: _Unit, regs: list[Value]) -> Value:
        blocks = unit.blocks
        stats = self.stats
        max_steps = self._max_steps
        index = 0
        while True:
            block = blocks[index]
            if block is None:
                block = blocks[index] = self._decode_block(unit.callable_.blocks[index])
            segments, end, a, b, c = block
            for count, ops, instrs in segments:
                steps = stats.instructions + count
                if steps > max_steps:
                    self._step_singly(instrs, ops, regs)
                stats.instructions = steps
                for op in ops:
                    op(regs)
            if end is _BRANCH:
                cond = regs[a]
                if cond is True:
                    index = b
                elif cond is False:
                    index = c
                else:
                    index = b if is_truthy(cond) else c
            elif end is _JUMP:
                index = a
            elif end is _RETURN:
                return None if a is None else regs[a]
            else:
                raise ReproRuntimeError(f"{unit.callable_.name}: fell off block B{index}")

    def _step_singly(self, instrs: tuple, ops: tuple, regs: list[Value]) -> None:
        """Run a segment that crosses the step budget one instruction at a
        time.  Always raises: :class:`StepLimitExceeded` at the first
        instruction past the budget, unless an earlier one fails."""
        stats = self.stats
        for position, instr in enumerate(instrs):
            stats.instructions += 1
            if stats.instructions > self._max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self._max_steps} instructions", instr.loc
                )
            ops[position](regs)

    # ------------------------------------------------------------------
    # Decoding: one closure per instruction, called as ``op(regs)``.
    #
    # Each closure takes what it binds as default arguments rather than
    # as captured variables: such a function is about half as costly to
    # create (no cells), and a short run spends about a third of its time
    # decoding.  Nothing ever passes an op more than ``regs``.

    def _decode_block(self, block: ir.Block) -> tuple:
        """``(segments, end, a, b, c)``: the call-free segments as
        ``(steps, ops, instrs)`` and how the block ends (branch register
        and targets, jump target, or returned register)."""
        segments = []
        ops: list = []
        instrs: list = []
        end, a, b, c = _FALL_OFF, None, None, None
        for instr in block.instrs:
            instrs.append(instr)
            kind = type(instr)
            if kind is ir.Branch:
                end, a, b, c = _BRANCH, instr.cond, instr.then_target, instr.else_target
                break
            if kind is ir.Jump:
                end, a = _JUMP, instr.target
                break
            if kind is ir.Return:
                end, a = _RETURN, instr.src
                break
            decoder = _DECODERS.get(kind, Interpreter._decode_unhandled)
            ops.append(decoder(self, instr))
            if kind in _SEGMENT_ENDS:
                segments.append((len(instrs), tuple(ops), tuple(instrs)))
                ops, instrs = [], []
        if instrs:
            segments.append((len(instrs), tuple(ops), tuple(instrs)))
        return tuple(segments), end, a, b, c

    def _decode_unhandled(self, instr: ir.Instr):
        def op(regs, message=f"unhandled instruction {type(instr).__name__}", loc=instr.loc):
            raise ReproRuntimeError(message, loc)

        return op

    def _decode_const(self, instr: ir.Const):
        def op(regs, dest=instr.dest, value=instr.value):
            regs[dest] = value

        return op

    def _decode_move(self, instr: ir.Move):
        def op(regs, dest=instr.dest, src=instr.src):
            regs[dest] = regs[src]

        return op

    def _decode_binop(self, instr: ir.BinOp):
        name = instr.op
        if name in ("/", "%"):
            # C's truncating division and remainder agree with Python's
            # floor forms when both operands are non-negative.
            def op(
                regs, dest=instr.dest, lhs_reg=instr.lhs, rhs_reg=instr.rhs,
                name=name, loc=instr.loc, binop=self._binop,
                floor=operator.floordiv if name == "/" else operator.mod,
            ):
                lhs = regs[lhs_reg]
                rhs = regs[rhs_reg]
                if type(lhs) is int and type(rhs) is int and lhs >= 0 and rhs > 0:
                    regs[dest] = floor(lhs, rhs)
                else:
                    regs[dest] = binop(name, lhs, rhs, loc)

            return op
        fast = _NUMERIC_OPS.get(name)

        # ``==`` and ``!=`` against nil also stay on the fast path.  An
        # operator with no fast form (none in valid IR) gets no number
        # types, so it always reaches ``_binop`` and its error.
        def op(
            regs, dest=instr.dest, lhs_reg=instr.lhs, rhs_reg=instr.rhs,
            name=name, loc=instr.loc, binop=self._binop, fast=fast,
            numbers=_NUMBERS if fast else frozenset(),
            equality=name in ("==", "!="), equal=name == "==",
        ):
            lhs = regs[lhs_reg]
            rhs = regs[rhs_reg]
            if type(lhs) in numbers and type(rhs) in numbers:
                regs[dest] = fast(lhs, rhs)
            elif equality and (lhs is None or rhs is None):
                regs[dest] = (lhs is rhs) == equal
            else:
                regs[dest] = binop(name, lhs, rhs, loc)

        return op

    def _decode_unop(self, instr: ir.UnOp):
        if instr.op == "!":

            def op(regs, dest=instr.dest, src=instr.src):
                value = regs[src]
                if value is True:
                    regs[dest] = False
                elif value is False:
                    regs[dest] = True
                else:
                    regs[dest] = not is_truthy(value)

            return op

        def op(
            regs, dest=instr.dest, src=instr.src, name=instr.op, loc=instr.loc,
            unop=self._unop, numbers=_NUMBERS,
        ):
            value = regs[src]
            if type(value) in numbers and name == "-":
                regs[dest] = -value
            else:
                regs[dest] = unop(name, value, loc)

        return op

    def _decode_get_field(self, instr: ir.GetField):
        if self._locality is not None:

            def op(
                regs, dest=instr.dest, obj_reg=instr.obj, name=instr.field_name,
                loc=instr.loc, get_field=self._get_field,
            ):
                regs[dest] = get_field(regs[obj_reg], name, loc)

            return op
        object_slots, inline_slots, learn = self._field_slots(instr.field_name)

        def op(
            regs, dest=instr.dest, obj_reg=instr.obj, name=instr.field_name,
            loc=instr.loc, get_field=self._get_field, object_slots=object_slots,
            inline_slots=inline_slots, learn=learn, objects_get=self.heap.objects.get,
            arrays_get=self.heap.arrays.get, stats=self.stats, access=self.cache.access,
        ):
            obj = regs[obj_reg]
            kind = type(obj)
            if kind is ObjectRef:
                record = objects_get(obj.address)
                slot = object_slots.get(obj.class_name)
                if record is not None and slot is not None:
                    stats.heap_reads += 1
                    regs[dest] = record.slots[slot]
                    access(obj.address + OBJECT_HEADER + slot * SLOT_SIZE, False)
                    return
            elif kind is ViewRef:
                array = obj.array
                record = arrays_get(array.address)
                known = inline_slots.get(array.inline_layout)
                if record is not None and known is not None:
                    position, width = known
                    if record.parallel:
                        slot = position * record.length + obj.index
                    else:
                        slot = obj.index * width + position
                    stats.heap_reads += 1
                    regs[dest] = record.slots[slot]
                    access(array.address + ARRAY_HEADER + slot * SLOT_SIZE, False)
                    return
            regs[dest] = get_field(obj, name, loc)
            learn(obj)

        return op

    def _decode_set_field(self, instr: ir.SetField):
        if self._locality is not None:

            def op(
                regs, obj_reg=instr.obj, name=instr.field_name, src=instr.src,
                loc=instr.loc, set_field=self._set_field,
            ):
                set_field(regs[obj_reg], name, regs[src], loc)

            return op
        object_slots, inline_slots, learn = self._field_slots(instr.field_name)

        def op(
            regs, obj_reg=instr.obj, name=instr.field_name, src=instr.src,
            loc=instr.loc, set_field=self._set_field, object_slots=object_slots,
            inline_slots=inline_slots, learn=learn, objects_get=self.heap.objects.get,
            arrays_get=self.heap.arrays.get, stats=self.stats, access=self.cache.access,
        ):
            obj = regs[obj_reg]
            kind = type(obj)
            if kind is ObjectRef:
                record = objects_get(obj.address)
                slot = object_slots.get(obj.class_name)
                if record is not None and slot is not None:
                    stats.heap_writes += 1
                    record.slots[slot] = regs[src]
                    access(obj.address + OBJECT_HEADER + slot * SLOT_SIZE, True)
                    return
            elif kind is ViewRef:
                array = obj.array
                record = arrays_get(array.address)
                known = inline_slots.get(array.inline_layout)
                if record is not None and known is not None:
                    position, width = known
                    if record.parallel:
                        slot = position * record.length + obj.index
                    else:
                        slot = obj.index * width + position
                    stats.heap_writes += 1
                    record.slots[slot] = regs[src]
                    access(array.address + ARRAY_HEADER + slot * SLOT_SIZE, True)
                    return
            set_field(obj, name, regs[src], loc)
            learn(obj)

        return op

    def _field_slots(self, name: str):
        """This run's caches for field ``name``: class -> slot for objects,
        inline element class -> ``(position, width)`` for views, and the
        function that fills them from an object the general accessor has
        just read or written without error.

        Every object of one class shares that class's layout, and every
        inline array of one element class its field list, so the caches
        are keyed by class and shared by every site of the field.  A
        view's index needs no check: ``MakeView`` range-checked it, and
        arrays never shrink.
        """
        caches = self._fields.get(name)
        if caches is not None:
            return caches
        objects, arrays = self.heap.objects, self.heap.arrays
        object_slots: dict[str, int] = {}
        inline_slots: dict[str, tuple[int, int]] = {}

        def learn(obj):
            if type(obj) is ObjectRef:
                object_slots[obj.class_name] = objects[obj.address].layout.index(name)
            else:
                fields = arrays[obj.array.address].inline_fields
                inline_slots[obj.array.inline_layout] = (fields.index(name), len(fields))

        caches = self._fields[name] = (object_slots, inline_slots, learn)
        return caches

    def _decode_get_field_indexed(self, instr: ir.GetFieldIndexed):
        def op(
            regs, dest=instr.dest, obj_reg=instr.obj, base=instr.base_field,
            length=instr.length, index_reg=instr.index, loc=instr.loc,
            get=self._get_field_indexed,
        ):
            regs[dest] = get(regs[obj_reg], base, length, regs[index_reg], loc)

        return op

    def _decode_set_field_indexed(self, instr: ir.SetFieldIndexed):
        def op(
            regs, obj_reg=instr.obj, base=instr.base_field, length=instr.length,
            index_reg=instr.index, src=instr.src, loc=instr.loc,
            put=self._set_field_indexed,
        ):
            put(regs[obj_reg], base, length, regs[index_reg], regs[src], loc)

        return op

    def _decode_get_index(self, instr: ir.GetIndex):
        if self._locality is not None:

            def op(
                regs, dest=instr.dest, array_reg=instr.array, index_reg=instr.index,
                loc=instr.loc, get_index=self._get_index,
            ):
                regs[dest] = get_index(regs[array_reg], regs[index_reg], loc)

            return op

        def op(
            regs, dest=instr.dest, array_reg=instr.array, index_reg=instr.index,
            loc=instr.loc, get_index=self._get_index, arrays_get=self.heap.arrays.get,
            stats=self.stats, access=self.cache.access,
        ):
            array = regs[array_reg]
            index = regs[index_reg]
            if type(array) is ArrayRef and type(index) is int and array.inline_layout is None:
                record = arrays_get(array.address)
                if record is not None and 0 <= index < record.length:
                    stats.heap_reads += 1
                    regs[dest] = record.slots[index]
                    access(array.address + ARRAY_HEADER + index * SLOT_SIZE, False)
                    return
            regs[dest] = get_index(array, index, loc)

        return op

    def _decode_set_index(self, instr: ir.SetIndex):
        if self._locality is not None:

            def op(
                regs, array_reg=instr.array, index_reg=instr.index, src=instr.src,
                loc=instr.loc, set_index=self._set_index,
            ):
                set_index(regs[array_reg], regs[index_reg], regs[src], loc)

            return op

        def op(
            regs, array_reg=instr.array, index_reg=instr.index, src=instr.src,
            loc=instr.loc, set_index=self._set_index, arrays_get=self.heap.arrays.get,
            stats=self.stats, access=self.cache.access,
        ):
            array = regs[array_reg]
            index = regs[index_reg]
            if type(array) is ArrayRef and type(index) is int and array.inline_layout is None:
                record = arrays_get(array.address)
                if record is not None and 0 <= index < record.length:
                    stats.heap_writes += 1
                    record.slots[index] = regs[src]
                    access(array.address + ARRAY_HEADER + index * SLOT_SIZE, True)
                    return
            set_index(array, index, regs[src], loc)

        return op

    def _decode_array_len(self, instr: ir.ArrayLen):
        def op(regs, dest=instr.dest, array_reg=instr.array, loc=instr.loc):
            array = regs[array_reg]
            if type(array) is not ArrayRef:
                raise ReproRuntimeError(f"len() of non-array {format_value(array)}", loc)
            regs[dest] = array.length

        return op

    def _decode_new(self, instr: ir.New):
        def op(
            regs, dest=instr.dest, class_name=instr.class_name,
            read_args=_reader(instr.args), loc=instr.loc, on_stack=instr.on_stack,
            skip_init=instr.skip_init, frame_local=instr.frame_local,
            new_object=self._new_object,
        ):
            regs[dest] = new_object(
                class_name, read_args(regs), loc, on_stack, skip_init, frame_local
            )

        return op

    def _decode_new_array(self, instr: ir.NewArray):
        def op(
            regs, dest=instr.dest, size_reg=instr.size, layout=instr.inline_layout,
            parallel=instr.parallel_layout, loc=instr.loc, elem_class=instr.elem_class,
            new_array=self._new_array,
        ):
            regs[dest] = new_array(regs[size_reg], layout, parallel, loc, elem_class)

        return op

    def _decode_make_view(self, instr: ir.MakeView):
        def op(
            regs, dest=instr.dest, array_reg=instr.array, index_reg=instr.index,
            class_name=instr.class_name, loc=instr.loc, make_view=self._make_view,
        ):
            array = regs[array_reg]
            index = regs[index_reg]
            if (
                type(array) is ArrayRef
                and array.inline_layout is not None
                and type(index) is int
                and 0 <= index < array.length
            ):
                regs[dest] = ViewRef(array, index, class_name)
            else:
                regs[dest] = make_view(array, index, class_name, loc)

        return op

    def _decode_call_method(self, instr: ir.CallMethod):
        #: This site's receiver classes -> their methods.
        methods: dict[str, ir.IRCallable] = {}

        def op(
            regs, dest=instr.dest, recv_reg=instr.recv, name=instr.method_name,
            read_args=_reader((instr.recv, *instr.args)), loc=instr.loc,
            methods=methods, resolve=self.program.resolve_method, send=self._send,
            call=self._call, stats=self.stats,
        ):
            recv = regs[recv_reg]
            kind = type(recv)
            if kind is ObjectRef or kind is ViewRef:
                method = methods.get(recv.class_name)
                if method is None:
                    resolved = resolve(recv.class_name, name)
                    if resolved is not None:
                        method = methods[recv.class_name] = resolved[1]
                if method is not None:
                    stats.dynamic_dispatches += 1
                    regs[dest] = call(method, read_args(regs))
                    return
            regs[dest] = send(recv, name, read_args(regs)[1:], loc)

        return op

    def _decode_call_static(self, instr: ir.CallStatic):
        read_args = _reader((instr.recv, *instr.args))
        try:
            resolved = self.program.resolve_method(instr.class_name, instr.method_name)
        except KeyError:  # an unknown class: the call raises when it runs
            resolved = None
        if resolved is None:

            def op(
                regs, dest=instr.dest, class_name=instr.class_name,
                name=instr.method_name, read_args=read_args, loc=instr.loc,
                call_static=self._call_static,
            ):
                args = read_args(regs)
                regs[dest] = call_static(args[0], class_name, name, args[1:], loc)

            return op

        def op(
            regs, dest=instr.dest, method=resolved[1], read_args=read_args,
            call=self._call, stats=self.stats,
        ):
            stats.static_calls += 1
            regs[dest] = call(method, read_args(regs))

        return op

    def _decode_call_function(self, instr: ir.CallFunction):
        fn = self.program.functions.get(instr.func_name)
        if fn is None:

            def op(
                regs, message=f"unknown function {instr.func_name!r}", loc=instr.loc
            ):
                raise ReproRuntimeError(message, loc)

            return op

        def op(
            regs, dest=instr.dest, fn=fn, read_args=_reader(instr.args),
            call=self._call, stats=self.stats,
        ):
            stats.static_calls += 1
            regs[dest] = call(fn, read_args(regs))

        return op

    def _decode_call_builtin(self, instr: ir.CallBuiltin):
        def generic(
            regs, name=instr.builtin_name, read_args=_reader(instr.args),
            output=self.output, loc=instr.loc,
        ):
            try:
                return call_builtin(name, read_args(regs), output)
            except BuiltinError as exc:
                raise ReproRuntimeError(str(exc), loc) from exc

        if instr.builtin_name in ("min", "max") and len(instr.args) == 2:
            # Python's two-argument min and max, inlined: the first
            # argument unless the second is strictly smaller (larger).
            def op(
                regs, dest=instr.dest, first=instr.args[0], second=instr.args[1],
                beats=operator.lt if instr.builtin_name == "min" else operator.gt,
                generic=generic, numbers=_NUMBERS, stats=self.stats,
            ):
                stats.builtin_calls += 1
                lhs = regs[first]
                rhs = regs[second]
                if type(lhs) in numbers and type(rhs) in numbers:
                    regs[dest] = rhs if beats(rhs, lhs) else lhs
                else:
                    regs[dest] = generic(regs)

            return op

        def op(regs, dest=instr.dest, generic=generic, stats=self.stats):
            stats.builtin_calls += 1
            regs[dest] = generic(regs)

        return op

    def _decode_get_global(self, instr: ir.GetGlobal):
        def op(regs, dest=instr.dest, name=instr.name, globals_=self.globals):
            regs[dest] = globals_[name]

        return op

    def _decode_set_global(self, instr: ir.SetGlobal):
        def op(regs, name=instr.name, src=instr.src, globals_=self.globals):
            globals_[name] = regs[src]

        return op

    # ------------------------------------------------------------------
    # Heap operations.

    def _check_heap_budget(self, loc: SourceLocation | None) -> None:
        if (
            self._max_heap_cells is not None
            and self.stats.allocated_slots > self._max_heap_cells
        ):
            raise HeapLimitExceeded(
                f"exceeded {self._max_heap_cells} heap cells", loc
            )

    @staticmethod
    def _site(loc: SourceLocation | None) -> str:
        """Attribution label for an allocation site (``file:line``)."""
        if loc is None or not loc.line:
            return "<synthetic>"
        return f"{loc.filename}:{loc.line}"

    def _class(
        self, class_name: str, loc: SourceLocation
    ) -> tuple[tuple[str, ...], ir.IRCallable | None]:
        """``class_name``'s field layout and ``init``, resolved once per run."""
        known = self._classes.get(class_name)
        if known is None:
            if class_name not in self.program.classes:
                raise ReproRuntimeError(f"unknown class {class_name!r}", loc)
            layout = tuple(self.program.layout(class_name))
            resolved = self.program.resolve_method(class_name, "init")
            known = self._classes[class_name] = (
                layout,
                None if resolved is None else resolved[1],
            )
        return known

    def _new_object(
        self,
        class_name: str,
        args: list[Value],
        loc: SourceLocation,
        on_stack: bool = False,
        skip_init: bool = False,
        frame_local: bool = False,
    ) -> Value:
        layout, init = self._class(class_name, loc)
        site = self._site(loc) if self._locality is not None else None
        ref = self.heap.alloc_object(
            class_name, layout, on_stack, alloc_site=site, frame_local=frame_local
        )
        if frame_local:
            # Proven non-escaping by the escape analysis: carved out of the
            # frame region, reclaimed at return.  The frame lines are
            # simulated (unlike the legacy stack region) so the heatmap can
            # show the same bytes being reused frame after frame.
            self.stats.frame_allocations += 1
            if self._locality is None:
                self.cache.touch_range(ref.address, 8 + len(layout) * 8, is_write=True)
            else:
                self.cache.touch_range(
                    ref.address,
                    8 + len(layout) * 8,
                    is_write=True,
                    label=("frame-alloc", class_name, None, site),
                )
        elif on_stack:
            # Proven non-escaping by assignment specialization: charged as a
            # stack allocation; the (hot) stack lines are not simulated.
            self.stats.stack_allocations += 1
        else:
            self.stats.allocations += 1
            self.stats.allocated_slots += len(layout) + 1  # +1 for the header
            self.stats.allocated_bytes += 8 + len(layout) * 8
            self._check_heap_budget(loc)
            if self._locality is None:
                self.cache.touch_range(ref.address, 8 + len(layout) * 8, is_write=True)
            else:
                self.cache.touch_range(
                    ref.address,
                    8 + len(layout) * 8,
                    is_write=True,
                    label=("alloc", class_name, None, site),
                )

        if skip_init:
            return ref
        if init is None:
            if args:
                raise ReproRuntimeError(
                    f"class {class_name!r} has no init but got constructor args", loc
                )
            return ref
        self.stats.static_calls += 1  # constructor calls are statically bound
        self._call(init, [ref, *args])
        return ref

    def _new_array(
        self,
        size: Value,
        inline_layout: str | None,
        parallel: bool,
        loc: SourceLocation,
        elem_class: str | None = None,
    ) -> Value:
        if isinstance(size, bool) or not isinstance(size, int):
            raise ReproRuntimeError(f"array size must be an int, got {format_value(size)}", loc)
        if size < 0:
            raise ReproRuntimeError(f"negative array size {size}", loc)
        inline_fields: tuple[str, ...] = ()
        if inline_layout is not None:
            if inline_layout not in self.program.classes:
                raise ReproRuntimeError(f"unknown inline class {inline_layout!r}", loc)
            inline_fields = tuple(self.program.layout(inline_layout))
        site = self._site(loc) if self._locality is not None else None
        ref = self.heap.alloc_array(
            size,
            inline_layout,
            inline_fields,
            parallel,
            alloc_site=site,
            elem_class=elem_class,
        )
        slots = size * (len(inline_fields) if inline_layout else 1)
        self.stats.allocations += 1
        self.stats.allocated_slots += slots + 2  # +2 for the array header
        self.stats.allocated_bytes += 16 + slots * 8
        self._check_heap_budget(loc)
        if self._locality is None:
            self.cache.touch_range(ref.address, 16 + slots * 8, is_write=True)
        else:
            # Prefer the concrete element class where one is known: the
            # inline layout class, else the analysis-declared element
            # class, else the generic <array>.
            known = inline_layout or elem_class
            class_label = f"{known}[]" if known else "<array>"
            self.cache.touch_range(
                ref.address,
                16 + slots * 8,
                is_write=True,
                label=("alloc", class_label, None, site),
            )
        return ref

    def _make_view(
        self, array: Value, index: Value, class_name: str, loc: SourceLocation
    ) -> Value:
        if not isinstance(array, ArrayRef) or array.inline_layout is None:
            raise ReproRuntimeError(
                f"view into non-inline array {format_value(array)}", loc
            )
        if isinstance(index, bool) or not isinstance(index, int):
            raise ReproRuntimeError(f"view index must be an int", loc)
        if not (0 <= index < array.length):
            raise ReproRuntimeError(
                f"view index {index} out of range [0, {array.length})", loc
            )
        return ViewRef(array, index, class_name)

    def _get_field(self, obj: Value, field_name: str, loc: SourceLocation) -> Value:
        self.stats.heap_reads += 1
        try:
            if isinstance(obj, ObjectRef):
                value, address = self.heap.read_field(obj, field_name)
                kind = "field"
            elif isinstance(obj, ViewRef):
                value, address = self.heap.read_inline_field(
                    obj.array, obj.index, field_name
                )
                kind = "inline_field"
            else:
                raise ReproRuntimeError(
                    f"field access .{field_name} on non-object {format_value(obj)}", loc
                )
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=False)
        else:
            self.cache.access(
                address,
                False,
                (kind, obj.class_name, field_name, self.heap.site_of(obj)),
            )
        return value

    def _set_field(
        self, obj: Value, field_name: str, value: Value, loc: SourceLocation
    ) -> None:
        self.stats.heap_writes += 1
        try:
            if isinstance(obj, ObjectRef):
                address = self.heap.write_field(obj, field_name, value)
                kind = "field"
            elif isinstance(obj, ViewRef):
                address = self.heap.write_inline_field(
                    obj.array, obj.index, field_name, value
                )
                kind = "inline_field"
            else:
                raise ReproRuntimeError(
                    f"field store .{field_name} on non-object {format_value(obj)}", loc
                )
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=True)
        else:
            self.cache.access(
                address,
                True,
                (kind, obj.class_name, field_name, self.heap.site_of(obj)),
            )

    def _get_field_indexed(
        self, obj: Value, base_field: str, length: int, index: Value, loc: SourceLocation
    ) -> Value:
        if not isinstance(obj, ObjectRef):
            raise ReproRuntimeError(
                f"indexed field access on non-object {format_value(obj)}", loc
            )
        self.stats.heap_reads += 1
        try:
            value, address = self.heap.read_field_indexed(obj, base_field, length, index)
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=False)
        else:
            self.cache.access(
                address,
                False,
                ("field", obj.class_name, base_field, self.heap.site_of(obj)),
            )
        return value

    def _set_field_indexed(
        self,
        obj: Value,
        base_field: str,
        length: int,
        index: Value,
        value: Value,
        loc: SourceLocation,
    ) -> None:
        if not isinstance(obj, ObjectRef):
            raise ReproRuntimeError(
                f"indexed field store on non-object {format_value(obj)}", loc
            )
        self.stats.heap_writes += 1
        try:
            address = self.heap.write_field_indexed(obj, base_field, length, index, value)
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=True)
        else:
            self.cache.access(
                address,
                True,
                ("field", obj.class_name, base_field, self.heap.site_of(obj)),
            )

    def _array_class(self, array: ArrayRef) -> str:
        """Locality class of an array's elements: the declared element
        class where the analysis proved one, else the generic ``<array>``."""
        return self.heap.elem_class_of(array) or "<array>"

    def _get_index(self, array: Value, index: Value, loc: SourceLocation) -> Value:
        if not isinstance(array, ArrayRef):
            raise ReproRuntimeError(f"indexing non-array {format_value(array)}", loc)
        self.stats.heap_reads += 1
        try:
            value, address = self.heap.read_element(array, index)
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=False)
        else:
            self.cache.access(
                address, False, ("element", self._array_class(array), None,
                                 self.heap.site_of(array))
            )
        return value

    def _set_index(
        self, array: Value, index: Value, value: Value, loc: SourceLocation
    ) -> None:
        if not isinstance(array, ArrayRef):
            raise ReproRuntimeError(f"indexing non-array {format_value(array)}", loc)
        self.stats.heap_writes += 1
        try:
            address = self.heap.write_element(array, index, value)
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=True)
        else:
            self.cache.access(
                address, True, ("element", self._array_class(array), None,
                                self.heap.site_of(array))
            )

    # ------------------------------------------------------------------
    # Calls.

    def _receiver_class(self, recv: Value, loc: SourceLocation) -> str:
        if isinstance(recv, (ObjectRef, ViewRef)):
            return recv.class_name
        raise ReproRuntimeError(
            f"message send to non-object {format_value(recv)}", loc
        )

    def _send(
        self, recv: Value, method_name: str, args: list[Value], loc: SourceLocation
    ) -> Value:
        class_name = self._receiver_class(recv, loc)
        resolved = self.program.resolve_method(class_name, method_name)
        if resolved is None:
            raise ReproRuntimeError(
                f"class {class_name!r} does not understand {method_name!r}", loc
            )
        self.stats.dynamic_dispatches += 1
        _, method = resolved
        return self._call(method, [recv, *args])

    def _call_static(
        self,
        recv: Value,
        class_name: str,
        method_name: str,
        args: list[Value],
        loc: SourceLocation,
    ) -> Value:
        resolved = self.program.resolve_method(class_name, method_name)
        if resolved is None:
            raise ReproRuntimeError(
                f"no method {class_name}::{method_name}", loc
            )
        self.stats.static_calls += 1
        _, method = resolved
        return self._call(method, [recv, *args])

    # ------------------------------------------------------------------
    # Operators.

    @staticmethod
    def _is_number(value: Value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def _binop(self, op: str, lhs: Value, rhs: Value, loc: SourceLocation) -> Value:
        if op == "==":
            return self._equal(lhs, rhs)
        if op == "!=":
            return not self._equal(lhs, rhs)

        both_numbers = self._is_number(lhs) and self._is_number(rhs)
        if op == "+":
            if isinstance(lhs, str) and isinstance(rhs, str):
                return lhs + rhs
            if both_numbers:
                return lhs + rhs
        elif op == "-" and both_numbers:
            return lhs - rhs
        elif op == "*" and both_numbers:
            return lhs * rhs
        elif op == "/" and both_numbers:
            if rhs == 0:
                raise ReproRuntimeError("division by zero", loc)
            if isinstance(lhs, int) and isinstance(rhs, int):
                # C-style truncating integer division.
                quotient = abs(lhs) // abs(rhs)
                return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
            return lhs / rhs
        elif op == "%" and both_numbers:
            if rhs == 0:
                raise ReproRuntimeError("modulo by zero", loc)
            if isinstance(lhs, int) and isinstance(rhs, int):
                # C-style: remainder takes the dividend's sign.
                remainder = abs(lhs) % abs(rhs)
                return remainder if lhs >= 0 else -remainder
            import math

            return math.fmod(lhs, rhs)
        elif op in ("<", "<=", ">", ">="):
            if both_numbers or (isinstance(lhs, str) and isinstance(rhs, str)):
                if op == "<":
                    return lhs < rhs
                if op == "<=":
                    return lhs <= rhs
                if op == ">":
                    return lhs > rhs
                return lhs >= rhs
        raise ReproRuntimeError(
            f"invalid operands for {op!r}: {format_value(lhs)}, {format_value(rhs)}", loc
        )

    @staticmethod
    def _equal(lhs: Value, rhs: Value) -> bool:
        if lhs is None or rhs is None:
            return lhs is None and rhs is None
        if isinstance(lhs, bool) or isinstance(rhs, bool):
            return isinstance(lhs, bool) and isinstance(rhs, bool) and lhs == rhs
        if isinstance(lhs, (int, float)) and isinstance(rhs, (int, float)):
            return lhs == rhs
        if isinstance(lhs, str) and isinstance(rhs, str):
            return lhs == rhs
        # Reference identity for objects/arrays/views (frozen dataclass
        # equality compares address/index/class, which is identity here).
        if type(lhs) is type(rhs):
            return lhs == rhs
        return False

    def _unop(self, op: str, operand: Value, loc: SourceLocation) -> Value:
        if op == "-":
            if self._is_number(operand):
                return -operand
            raise ReproRuntimeError(
                f"unary '-' on non-number {format_value(operand)}", loc
            )
        if op == "!":
            return not is_truthy(operand)
        raise ReproRuntimeError(f"unknown unary operator {op!r}", loc)


def run_program(
    program: ir.IRProgram,
    cache_config: CacheConfig | None = None,
    max_steps: int = 500_000_000,
    tracer=NULL_TRACER,
    attribute_locality: bool = False,
    locality_bucket_lines: int = 64,
    max_heap_cells: int | None = None,
) -> RunResult:
    """Convenience wrapper: interpret ``program`` from ``main``.

    ``tracer`` receives a ``run`` span plus the VM statistics as a
    ``run.stats`` event and ``run.*`` counters when the run completes.
    With ``attribute_locality=True`` every heap access is additionally
    attributed to a ``(kind, class, field, alloc_site)`` label and an
    address bucket, surfaced as ``run.locality`` / ``run.heatmap`` events
    and on ``RunResult.stats.locality``.
    """
    interpreter = Interpreter(
        program,
        cache_config,
        max_steps,
        tracer,
        attribute_locality=attribute_locality,
        locality_bucket_lines=locality_bucket_lines,
        max_heap_cells=max_heap_cells,
    )
    with tracer.span("run"):
        return interpreter.run()


_DECODERS = {
    ir.Const: Interpreter._decode_const,
    ir.Move: Interpreter._decode_move,
    ir.BinOp: Interpreter._decode_binop,
    ir.UnOp: Interpreter._decode_unop,
    ir.GetField: Interpreter._decode_get_field,
    ir.SetField: Interpreter._decode_set_field,
    ir.GetFieldIndexed: Interpreter._decode_get_field_indexed,
    ir.SetFieldIndexed: Interpreter._decode_set_field_indexed,
    ir.GetIndex: Interpreter._decode_get_index,
    ir.SetIndex: Interpreter._decode_set_index,
    ir.ArrayLen: Interpreter._decode_array_len,
    ir.New: Interpreter._decode_new,
    ir.NewArray: Interpreter._decode_new_array,
    ir.MakeView: Interpreter._decode_make_view,
    ir.CallMethod: Interpreter._decode_call_method,
    ir.CallStatic: Interpreter._decode_call_static,
    ir.CallFunction: Interpreter._decode_call_function,
    ir.CallBuiltin: Interpreter._decode_call_builtin,
    ir.GetGlobal: Interpreter._decode_get_global,
    ir.SetGlobal: Interpreter._decode_set_global,
}

#: Instructions that may start a VM call: each ends a step segment.
_SEGMENT_ENDS = frozenset((ir.New, ir.CallMethod, ir.CallStatic, ir.CallFunction))
