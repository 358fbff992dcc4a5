"""The VM: a two-tier interpreter for the CFG IR.

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

- **Cold tier: decoded blocks.**  The first time control reaches a block,
  its instructions are decoded into a tuple of closures, and
  :meth:`Interpreter._run_frame` only calls them.  Decoding binds register
  indices, constants, names, resolved functions and statically bound
  methods.  Each closure calls the general accessor or operator
  (``_get_field``, ``_binary(op)``, ...), which handles every case and
  raises every error; decoding is cheap because nothing else is bound.
- **Hot tier: generated Python.**  Each callable counts its entries and
  its taken back-edges (edges to a block at or before the current one;
  every loop has one).  When the count reaches :data:`HOT_PER_INSTR`
  times the callable's instruction count, :class:`_HotTier` writes the
  callable as one Python function: registers become locals, blocks with
  one predecessor are nested into it, and the other blocks form a
  dispatch loop.  The field, element, view, arithmetic and ``min``/``max``
  fast paths and the cache simulator's most-recently-used hit check are
  written inline; everything else, and every miss, calls the same general
  method the cold tier calls, so every error message is unchanged.  New
  entries run the generated function, and an activation that crossed
  the threshold at a back-edge continues in it at that loop header
  (on-stack replacement); every back-edge target is a dispatch root, so
  any running activation can switch at its next back-edge.  The
  generated source holds no program text: constants, names, locations,
  callables and caches are bound values, and only register, block and
  step numbers are written out.  Its filename is
  ``<.../runtime/interp.py>:<callable>``, so samplers file it under this
  module, and its source is in :mod:`linecache` while the run lasts, so
  tracebacks show the generated line; the last failed run's sources
  stay until the next run starts.  A run with locality attribution
  never tiers up.
- **Identical counters.**  ``ExecutionStats`` and the heap and cache
  statistics do not depend on the tier; ``tests/test_vm_golden.py``
  replays its whole record with every callable compiled on first entry.
  The trace alone reports the tiers (``run.tier``).
- **Step counting, per segment.**  Each block is cut into call-free
  segments: the instructions up to and including the next call, ``new``
  or terminator.  Both tiers charge a segment's steps in one addition
  before it runs, so whenever a call starts ``stats.instructions`` reads
  as if counted one instruction at a time.  A segment that would cross
  ``max_steps`` is stepped one instruction at a time on the cold tier
  instead (the hot tier writes its registers back first), so
  :class:`StepLimitExceeded` stops at the same instruction and location.
  A run that stops on any other error has counted its whole last segment.
- **Depth budget.**  A run nests at most :data:`MAX_CALL_DEPTH` VM calls;
  one more raises :class:`CallDepthExceeded`.  :meth:`Interpreter.run`
  raises Python's recursion limit far enough that a runaway recursion
  hits this budget, never ``RecursionError``.  A VM call is always a
  Python-to-Python call, never through a C slot, so deep recursion
  never grows the C stack.
- **Per run.**  Decoded blocks, generated functions and the method and
  field caches bind this run's heap, cache and counters: they live on the
  :class:`Interpreter` and are dropped when the run ends.
"""

from __future__ import annotations

import linecache
import math
import operator
import sys
import time
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

#: The most Python frames one VM call occupies: the call site's closure
#: or slow-path helper, ``_new_object`` for a constructor, ``_call``
#: (twice under the profiler, whose override calls it), ``_run_frame``,
#: and the generated function it switched to mid-loop.
_PY_FRAMES_PER_CALL = 6

#: A callable compiles once its entries plus taken back-edges reach this
#: many times its instruction count.  The break-even, measured on a
#: 2-vCPU x86 VM running the Figure-17 programs: generating and
#: compiling costs ~70 us per static instruction; the cold tier costs
#: ~0.6 us per executed instruction, and an entry or back-edge comes
#: every 13-24 executed instructions (9 in generated test programs).  So
#: after about 70 / (18 * 0.6) ~ 6 events per instruction the cold tier
#: has spent what compiling costs.  Compiling then is the ski-rental
#: rule: a callable that stops being hot right after costs at most twice
#: the best choice made in hindsight, and one that stays hot runs ~2x
#: faster from then on.
HOT_PER_INSTR = 6

#: The :mod:`linecache` entries of the last failed run's generated code.
_failed_sources: list[str] = []


def _forget_sources(filenames: list[str]) -> None:
    """Remove generated sources from :mod:`linecache`, and empty
    ``filenames``."""
    for filename in filenames:
        linecache.cache.pop(filename, None)
    filenames.clear()


#: Exact value types the arithmetic fast paths accept (``bool`` is not a
#: number in mini-ICC++, and ``type(True) is bool``).
_NUMBERS = frozenset((int, float))


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

_TERMINATORS = (ir.Branch, ir.Jump, ir.Return)

#: Instructions that may start a VM call: each ends a step segment.
_SEGMENT_ENDS = frozenset((ir.New, ir.CallMethod, ir.CallStatic, ir.CallFunction))


def _split(block: ir.Block) -> tuple[list[list[ir.Instr]], ir.Instr | None]:
    """``block`` cut into call-free step segments up to its first
    terminator, and that terminator (None if it has none).  Both tiers
    charge steps by these segments."""
    segments: list[list[ir.Instr]] = []
    current: list[ir.Instr] = []
    for instr in block.instrs:
        current.append(instr)
        kind = type(instr)
        if kind in _TERMINATORS:
            segments.append(current)
            return segments, instr
        if kind in _SEGMENT_ENDS:
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return segments, None


def _successors(terminator: ir.Instr | None) -> tuple[int, ...]:
    if type(terminator) is ir.Branch:
        return (terminator.then_target, terminator.else_target)
    if type(terminator) is ir.Jump:
        return (terminator.target,)
    return ()


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
    turns an argument list into a register file, its blocks, each decoded
    the first time control reaches it, and its tier state: entries plus
    taken back-edges so far (``heat``), the count at which it compiles
    (``limit``), and its generated function (``hot``)."""

    __slots__ = ("callable_", "formals", "padding", "blocks", "hot", "heat", "limit")

    def __init__(self, callable_: ir.IRCallable, tiering: bool) -> None:
        self.callable_ = callable_
        self.formals = callable_.num_formals
        self.padding = (None,) * max(0, callable_.num_regs - self.formals)
        self.blocks: list[tuple | None] = [None] * len(callable_.blocks)
        self.hot = None
        self.heat = 0
        size = sum(len(block.instrs) for block in callable_.blocks)
        self.limit = HOT_PER_INSTR * size if tiering and size else sys.maxsize


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
        # Attribution is observation-only and off by default.  With it
        # on, the general accessors label every access, and no callable
        # tiers up (the hot tier's fast paths never build labels).  The
        # simulated counters are bit-identical either way
        # (differentially tested in tests/test_locality.py).
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
        #: id(callable) -> its unit (this run's code).
        self._units: dict[int, _Unit] = {}
        #: field name -> its slot caches (see _field_slots).
        self._fields: dict[str, tuple] = {}
        #: (class name, method name) -> the method a send calls, or None.
        self._methods: dict[tuple[str, str], ir.IRCallable | None] = {}
        #: class name -> (field layout, resolved ``init`` or None).
        self._classes: dict[str, tuple[tuple[str, ...], ir.IRCallable | None]] = {}
        #: The bindings every generated function shares, and the fields a
        #: view can have (see _env).
        self._hot_env: dict | None = None
        self._view_fields: frozenset[str] = frozenset()
        #: generated source -> its compiled module code.
        self._codes: dict[str, object] = {}
        #: Tier counters, reported in the trace: callables compiled,
        #: seconds generating and compiling them, instructions run on
        #: the cold tier, and the linecache entries of the generated code.
        self._tier_compiled = 0
        self._tier_seconds = 0.0
        self._cold_steps = 0
        self._hot_files: list[str] = []
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
        _forget_sources(_failed_sources)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(old_limit + MAX_CALL_DEPTH * _PY_FRAMES_PER_CALL)
        completed = False
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
            completed = True
        finally:
            sys.setrecursionlimit(old_limit)
            self._drop_code(failed=not completed)
        if self.tracer.enabled:
            # Surface the VM's counters as trace data at run end.
            summary = self.stats.summary()
            self.tracer.event("run.stats", **summary)
            for key, value in summary.items():
                if isinstance(value, int):  # ratios stay event-only
                    self.tracer.count(f"run.{key}", value)
            hot = self.stats.instructions - self._cold_steps
            self.tracer.event(
                "run.tier",
                compiled=self._tier_compiled,
                hot_instructions=hot,
                cold_instructions=self._cold_steps,
                compile_s=round(self._tier_seconds, 6),
            )
            self.tracer.count("run.tier.compiled", self._tier_compiled)
            self.tracer.count("run.tier.hot_instructions", hot)
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

    def _drop_code(self, failed: bool) -> None:
        """Drop this run's decoded and generated code.  Both refer back to
        this interpreter; dropping them breaks the cycle, so the run's
        state is freed now rather than at the next cyclic collection.  A
        failed run's generated sources stay in :mod:`linecache` until the
        next run starts, so its traceback can show them; the others go
        now."""
        for unit in self._units.values():
            unit.hot = None
        self._units.clear()
        self._hot_env = None
        self._codes.clear()
        if failed:
            _failed_sources.extend(self._hot_files)
        else:
            _forget_sources(self._hot_files)
        self._hot_files.clear()

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
            unit = self._units[id(callable_)] = _Unit(callable_, self._locality is None)
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
        hot = unit.hot
        if hot is None:
            unit.heat += 1
            if unit.heat >= unit.limit:
                hot = self._tier_up(unit)
        if not self._frame_regions:
            try:
                return self._run_frame(unit, args) if hot is None else hot(args, 0)
            finally:
                self._depth = depth - 1
        marker = self.heap.push_frame()
        try:
            return self._run_frame(unit, args) if hot is None else hot(args, 0)
        finally:
            self.heap.pop_frame(marker)
            self._depth = depth - 1

    def _run_frame(self, unit: _Unit, regs: list[Value]) -> Value:
        """Run an activation on the cold tier, switching to the hot tier
        at a back-edge once the callable is hot."""
        blocks = unit.blocks
        stats = self.stats
        max_steps = self._max_steps
        index = 0
        cold = 0
        try:
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
                    cold += count
                    for op in ops:
                        op(regs)
                if end is _BRANCH:
                    cond = regs[a]
                    if cond is True:
                        target = b
                    elif cond is False:
                        target = c
                    else:
                        target = b if is_truthy(cond) else c
                elif end is _JUMP:
                    target = a
                elif end is _RETURN:
                    return None if a is None else regs[a]
                else:
                    raise ReproRuntimeError(
                        f"{unit.callable_.name}: fell off block B{index}"
                    )
                if target <= index:
                    if unit.hot is not None:
                        return unit.hot(regs, target)
                    unit.heat += 1
                    if unit.heat >= unit.limit:
                        return self._tier_up(unit)(regs, target)
                index = target
        finally:
            self._cold_steps += cold

    def _step_singly(self, instrs: tuple, ops: tuple, regs: list[Value]) -> None:
        """Run a segment that crosses the step budget one instruction at a
        time.  Always raises: :class:`StepLimitExceeded` at the first
        instruction past the budget, unless an earlier one fails."""
        stats = self.stats
        for position, instr in enumerate(instrs):
            stats.instructions += 1
            self._cold_steps += 1
            if stats.instructions > self._max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self._max_steps} instructions", instr.loc
                )
            ops[position](regs)

    def _bail(self, unit: _Unit, regs: list[Value], index: int, segment: int) -> None:
        """The hot tier's way out of a segment that would cross the step
        budget: ``regs`` holds its registers, and the segment is stepped
        on the cold tier.  Always raises, as :meth:`_step_singly` does."""
        block = unit.blocks[index]
        if block is None:
            block = unit.blocks[index] = self._decode_block(unit.callable_.blocks[index])
        _, ops, instrs = block[0][segment]
        self._step_singly(instrs, ops, regs)

    def _tier_up(self, unit: _Unit):
        """Compile ``unit`` to the hot tier and return the generated
        function."""
        began = time.perf_counter()
        unit.hot = _HotTier(self, unit).generate()
        self._tier_seconds += time.perf_counter() - began
        self._tier_compiled += 1
        return unit.hot

    # ------------------------------------------------------------------
    # The cold tier: one closure per instruction, called as ``op(regs)``.
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
        split, terminator = _split(block)
        for instrs in split:
            ops = []
            for instr in instrs:
                if instr is not terminator:
                    ops.append(_DECODERS.get(type(instr), Interpreter._decode_unhandled)(self, instr))
            segments.append((len(instrs), tuple(ops), tuple(instrs)))
        kind = type(terminator)
        if kind is ir.Branch:
            return (
                tuple(segments), _BRANCH,
                terminator.cond, terminator.then_target, terminator.else_target,
            )
        if kind is ir.Jump:
            return tuple(segments), _JUMP, terminator.target, None, None
        if kind is ir.Return:
            return tuple(segments), _RETURN, terminator.src, None, None
        return tuple(segments), _FALL_OFF, None, None, None

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
        def op(
            regs, dest=instr.dest, lhs=instr.lhs, rhs=instr.rhs, loc=instr.loc,
            apply=_binary(instr.op),
        ):
            regs[dest] = apply(regs[lhs], regs[rhs], loc)

        return op

    def _decode_unop(self, instr: ir.UnOp):
        def op(regs, dest=instr.dest, src=instr.src, loc=instr.loc, apply=_unary(instr.op)):
            regs[dest] = apply(regs[src], loc)

        return op

    def _decode_get_field(self, instr: ir.GetField):
        def op(
            regs, dest=instr.dest, obj=instr.obj, name=instr.field_name,
            loc=instr.loc, get_field=self._get_field,
        ):
            regs[dest] = get_field(regs[obj], name, loc)

        return op

    def _decode_set_field(self, instr: ir.SetField):
        def op(
            regs, obj=instr.obj, name=instr.field_name, src=instr.src,
            loc=instr.loc, set_field=self._set_field,
        ):
            set_field(regs[obj], name, regs[src], loc)

        return op

    def _decode_get_field_indexed(self, instr: ir.GetFieldIndexed):
        def op(
            regs, dest=instr.dest, obj=instr.obj, base=instr.base_field,
            length=instr.length, index=instr.index, loc=instr.loc,
            get=self._get_field_indexed,
        ):
            regs[dest] = get(regs[obj], base, length, regs[index], loc)

        return op

    def _decode_set_field_indexed(self, instr: ir.SetFieldIndexed):
        def op(
            regs, obj=instr.obj, base=instr.base_field, length=instr.length,
            index=instr.index, src=instr.src, loc=instr.loc,
            put=self._set_field_indexed,
        ):
            put(regs[obj], base, length, regs[index], regs[src], loc)

        return op

    def _decode_get_index(self, instr: ir.GetIndex):
        def op(
            regs, dest=instr.dest, array=instr.array, index=instr.index,
            loc=instr.loc, get_index=self._get_index,
        ):
            regs[dest] = get_index(regs[array], regs[index], loc)

        return op

    def _decode_set_index(self, instr: ir.SetIndex):
        def op(
            regs, array=instr.array, index=instr.index, src=instr.src,
            loc=instr.loc, set_index=self._set_index,
        ):
            set_index(regs[array], regs[index], regs[src], loc)

        return op

    def _decode_array_len(self, instr: ir.ArrayLen):
        def op(regs, dest=instr.dest, array=instr.array, loc=instr.loc,
               array_len=self._array_len):
            regs[dest] = array_len(regs[array], loc)

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
            regs, dest=instr.dest, size=instr.size, layout=instr.inline_layout,
            parallel=instr.parallel_layout, loc=instr.loc, elem_class=instr.elem_class,
            new_array=self._new_array,
        ):
            regs[dest] = new_array(regs[size], layout, parallel, loc, elem_class)

        return op

    def _decode_make_view(self, instr: ir.MakeView):
        def op(
            regs, dest=instr.dest, array=instr.array, index=instr.index,
            class_name=instr.class_name, loc=instr.loc, make_view=self._make_view,
        ):
            regs[dest] = make_view(regs[array], regs[index], class_name, loc)

        return op

    def _decode_call_method(self, instr: ir.CallMethod):
        def op(
            regs, dest=instr.dest, recv=instr.recv, name=instr.method_name,
            read_args=_reader(instr.args), loc=instr.loc, send=self._send,
        ):
            regs[dest] = send(regs[recv], name, read_args(regs), loc)

        return op

    def _decode_call_static(self, instr: ir.CallStatic):
        method = self._static_target(instr)
        if method is None:

            def op(
                regs, dest=instr.dest, recv=instr.recv, class_name=instr.class_name,
                name=instr.method_name, read_args=_reader(instr.args), loc=instr.loc,
                call_static=self._call_static,
            ):
                regs[dest] = call_static(regs[recv], class_name, name, read_args(regs), loc)

            return op

        def op(
            regs, dest=instr.dest, method=method,
            read_args=_reader((instr.recv, *instr.args)), call=self._call,
            stats=self.stats,
        ):
            stats.static_calls += 1
            regs[dest] = call(method, read_args(regs))

        return op

    def _static_target(self, instr: ir.CallStatic) -> ir.IRCallable | None:
        """The method a static call binds, or None if it fails when run."""
        try:
            resolved = self.program.resolve_method(instr.class_name, instr.method_name)
        except KeyError:  # an unknown class
            return None
        return None if resolved is None else resolved[1]

    def _decode_call_function(self, instr: ir.CallFunction):
        fn = self.program.functions.get(instr.func_name)
        if fn is None:

            def op(
                regs, message=f"unknown function {instr.func_name!r}", loc=instr.loc,
                fail=self._fail,
            ):
                fail(message, loc)

            return op

        def op(
            regs, dest=instr.dest, fn=fn, read_args=_reader(instr.args),
            call=self._call, stats=self.stats,
        ):
            stats.static_calls += 1
            regs[dest] = call(fn, read_args(regs))

        return op

    def _decode_call_builtin(self, instr: ir.CallBuiltin):
        def op(
            regs, dest=instr.dest, name=instr.builtin_name, read_args=_reader(instr.args),
            loc=instr.loc, call=self._call_builtin, stats=self.stats,
        ):
            stats.builtin_calls += 1
            regs[dest] = call(name, read_args(regs), loc)

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
    # The hot tier's bindings and slow paths.

    def _env(self) -> dict:
        """A fresh namespace for one generated function, holding what
        every generated function binds (see :class:`_HotTier`)."""
        env = self._hot_env
        if env is None:
            cache, heap = self.cache, self.heap
            # A view only has the fields of its array's element class, so
            # the view fast path is written only for those field names.
            self._view_fields = frozenset(
                name
                for callable_ in self.program.callables()
                for instr in callable_.instructions()
                if type(instr) is ir.NewArray and instr.inline_layout in self.program.classes
                for name in self.program.layout(instr.inline_layout)
            )
            env = self._hot_env = {
                "ST": self.stats, "CS": cache.stats, "MAXS": self._max_steps,
                "G": self.globals, "OR": ObjectRef, "AR": ArrayRef, "VR": ViewRef,
                "TN": tuple.__new__, "NUMS": _NUMBERS, "TRUTHY": is_truthy,
                "OG": heap.objects.get, "AG": heap.arrays.get,
                "OH": OBJECT_HEADER, "AH": ARRAY_HEADER, "SZ": SLOT_SIZE,
                # The cache's geometry and sets: a run never flushes it.
                "SETS": cache._sets, "LB": cache._line_bytes, "NS": cache._num_sets,
                "ACCESS": cache.access,
                "CALL": self._call, "SEND": self._send_learning, "CST": self._call_static,
                "NEW": self._new_object, "NEWA": self._new_array, "MV": self._make_view,
                "GF": self._get_field_learning, "SF": self._set_field_learning,
                "GFI": self._get_field_indexed, "SFI": self._set_field_indexed,
                "GI": self._get_index, "SI": self._set_index, "ALEN": self._array_len,
                "BI": self._call_builtin,
                "FAIL": self._fail, "BAIL": self._bail,
            }
        return dict(env)

    def _field_slots(self, name: str) -> tuple[dict, dict]:
        """This run's caches for field ``name``: class -> slot for
        objects, and inline element class -> ``(position, width)`` for
        views.  :meth:`_learn_slot` fills them.

        Every object of one class shares that class's layout, and every
        inline array of one element class its field list, so the caches
        are keyed by class and shared by every site of the field.
        """
        caches = self._fields.get(name)
        if caches is None:
            caches = self._fields[name] = ({}, {})
        return caches

    def _learn_slot(self, obj: Value, name: str) -> None:
        """Cache the slot of field ``name`` in ``obj``, which the general
        accessor has just read or written without error."""
        object_slots, inline_slots = self._field_slots(name)
        if type(obj) is ObjectRef:
            object_slots[obj.class_name] = self.heap.objects[obj.address].layout.index(name)
        else:
            fields = self.heap.arrays[obj.array.address].inline_fields
            inline_slots[obj.array.inline_layout] = (fields.index(name), len(fields))

    def _get_field_learning(self, obj: Value, field_name: str, loc: SourceLocation) -> Value:
        value = self._get_field(obj, field_name, loc)
        self._learn_slot(obj, field_name)
        return value

    def _set_field_learning(
        self, obj: Value, field_name: str, value: Value, loc: SourceLocation
    ) -> None:
        self._set_field(obj, field_name, value, loc)
        self._learn_slot(obj, field_name)

    def _send_learning(
        self,
        recv: Value,
        method_name: str,
        args: list[Value],
        loc: SourceLocation,
        methods: dict[str, ir.IRCallable],
    ) -> Value:
        """A send whose site has not cached the receiver's class: resolve
        it, cache it in ``methods`` and call it, or raise as :meth:`_send`
        does.  It makes the call itself, so a send takes one helper frame."""
        kind = type(recv)
        if kind is ObjectRef or kind is ViewRef:
            method = self._method(recv.class_name, method_name)
            if method is not None:
                methods[recv.class_name] = method
                self.stats.dynamic_dispatches += 1
                return self._call(method, [recv, *args])
        return self._send(recv, method_name, args, loc)

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
        kind = type(obj)
        try:
            if kind is ObjectRef:
                value, address = self.heap.read_field(obj, field_name)
            elif kind is ViewRef:
                value, address = self.heap.read_inline_field(
                    obj.array, obj.index, field_name
                )
            else:
                raise ReproRuntimeError(
                    f"field access .{field_name} on non-object {format_value(obj)}", loc
                )
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, False)
        else:
            self.cache.access(
                address,
                False,
                (
                    "field" if kind is ObjectRef else "inline_field",
                    obj.class_name, field_name, self.heap.site_of(obj),
                ),
            )
        return value

    def _set_field(
        self, obj: Value, field_name: str, value: Value, loc: SourceLocation
    ) -> None:
        self.stats.heap_writes += 1
        kind = type(obj)
        try:
            if kind is ObjectRef:
                address = self.heap.write_field(obj, field_name, value)
            elif kind is ViewRef:
                address = self.heap.write_inline_field(
                    obj.array, obj.index, field_name, value
                )
            else:
                raise ReproRuntimeError(
                    f"field store .{field_name} on non-object {format_value(obj)}", loc
                )
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, True)
        else:
            self.cache.access(
                address,
                True,
                (
                    "field" if kind is ObjectRef else "inline_field",
                    obj.class_name, field_name, self.heap.site_of(obj),
                ),
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
            self.cache.access(address, False)
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
            self.cache.access(address, True)
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
            self.cache.access(address, False)
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
            self.cache.access(address, True)
        else:
            self.cache.access(
                address, True, ("element", self._array_class(array), None,
                                self.heap.site_of(array))
            )

    def _array_len(self, array: Value, loc: SourceLocation) -> int:
        if type(array) is not ArrayRef:
            raise ReproRuntimeError(f"len() of non-array {format_value(array)}", loc)
        return array.length

    # ------------------------------------------------------------------
    # Calls.

    def _receiver_class(self, recv: Value, loc: SourceLocation) -> str:
        if type(recv) is ObjectRef or type(recv) is ViewRef:
            return recv.class_name
        raise ReproRuntimeError(
            f"message send to non-object {format_value(recv)}", loc
        )

    def _method(self, class_name: str, method_name: str) -> ir.IRCallable | None:
        """What a send of ``method_name`` to a ``class_name`` calls (None
        if the class does not understand it), resolved once per run."""
        key = (class_name, method_name)
        methods = self._methods
        if key not in methods:
            resolved = self.program.resolve_method(class_name, method_name)
            methods[key] = None if resolved is None else resolved[1]
        return methods[key]

    def _send(
        self, recv: Value, method_name: str, args: list[Value], loc: SourceLocation
    ) -> Value:
        class_name = self._receiver_class(recv, loc)
        method = self._method(class_name, method_name)
        if method is None:
            raise ReproRuntimeError(
                f"class {class_name!r} does not understand {method_name!r}", loc
            )
        self.stats.dynamic_dispatches += 1
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

    def _call_builtin(self, name: str, args: list[Value], loc: SourceLocation) -> Value:
        try:
            return call_builtin(name, args, self.output)
        except BuiltinError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc

    @staticmethod
    def _fail(message: str, loc: SourceLocation | None) -> None:
        raise ReproRuntimeError(message, loc)


# ----------------------------------------------------------------------
# The operators' semantics, one function per operator: ``(lhs, rhs,
# loc)`` or ``(operand, loc)``.  Both tiers call them for every case
# their own code does not cover.  Values are exact ``int``, ``float``,
# ``bool`` (never a number), ``str``, ``None`` or references.


def _equal(lhs: Value, rhs: Value) -> bool:
    if lhs is None or rhs is None:
        return lhs is None and rhs is None
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        return isinstance(lhs, bool) and isinstance(rhs, bool) and lhs == rhs
    if isinstance(lhs, (int, float)) and isinstance(rhs, (int, float)):
        return lhs == rhs
    if isinstance(lhs, str) and isinstance(rhs, str):
        return lhs == rhs
    # Reference identity for objects/arrays/views (their equality
    # compares address/index/class, which is identity here).
    if type(lhs) is type(rhs):
        return lhs == rhs
    return False


def _invalid(op: str, lhs: Value, rhs: Value, loc: SourceLocation) -> ReproRuntimeError:
    return ReproRuntimeError(
        f"invalid operands for {op!r}: {format_value(lhs)}, {format_value(rhs)}", loc
    )


def _arithmetic(op: str, python, strings: bool = False):
    def apply(lhs, rhs, loc):
        if type(lhs) in _NUMBERS and type(rhs) in _NUMBERS or (
            strings and type(lhs) is str and type(rhs) is str
        ):
            return python(lhs, rhs)
        raise _invalid(op, lhs, rhs, loc)

    return apply


def _divide(lhs: Value, rhs: Value, loc: SourceLocation) -> Value:
    if type(lhs) not in _NUMBERS or type(rhs) not in _NUMBERS:
        raise _invalid("/", lhs, rhs, loc)
    if rhs == 0:
        raise ReproRuntimeError("division by zero", loc)
    if type(lhs) is int and type(rhs) is int:
        # C-style truncating integer division.
        quotient = abs(lhs) // abs(rhs)
        return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
    return lhs / rhs


def _modulo(lhs: Value, rhs: Value, loc: SourceLocation) -> Value:
    if type(lhs) not in _NUMBERS or type(rhs) not in _NUMBERS:
        raise _invalid("%", lhs, rhs, loc)
    if rhs == 0:
        raise ReproRuntimeError("modulo by zero", loc)
    if type(lhs) is int and type(rhs) is int:
        # C-style: remainder takes the dividend's sign.
        remainder = abs(lhs) % abs(rhs)
        return remainder if lhs >= 0 else -remainder
    return math.fmod(lhs, rhs)


_BINARY = {
    "+": _arithmetic("+", operator.add, strings=True),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "/": _divide,
    "%": _modulo,
    "<": _arithmetic("<", operator.lt, strings=True),
    "<=": _arithmetic("<=", operator.le, strings=True),
    ">": _arithmetic(">", operator.gt, strings=True),
    ">=": _arithmetic(">=", operator.ge, strings=True),
    "==": lambda lhs, rhs, loc: _equal(lhs, rhs),
    "!=": lambda lhs, rhs, loc: not _equal(lhs, rhs),
}


def _binary(op: str):
    """The function applying binary operator ``op``."""
    apply = _BINARY.get(op)
    if apply is None:

        def apply(lhs, rhs, loc):
            raise _invalid(op, lhs, rhs, loc)

    return apply


def _negate(operand: Value, loc: SourceLocation) -> Value:
    if type(operand) in _NUMBERS:
        return -operand
    raise ReproRuntimeError(f"unary '-' on non-number {format_value(operand)}", loc)


def _unary(op: str):
    """The function applying unary operator ``op``."""
    if op == "-":
        return _negate
    if op == "!":
        return lambda operand, loc: not is_truthy(operand)

    def apply(operand, loc):
        raise ReproRuntimeError(f"unknown unary operator {op!r}", loc)

    return apply


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
    ``run.stats`` event, the hot tier's counts as a ``run.tier`` event,
    and ``run.*`` counters when the run completes.
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


class _HotTier:
    """Writes one callable as a Python function ``hot(regs, b)``, which
    runs the activation whose register file is ``regs`` from block ``b``
    (0 on entry, a loop header on a switch mid-loop).

    Registers are the locals ``r0``, ``r1``, ...  A block with exactly one
    incoming edge, not a back-edge, is written inside its predecessor's
    code (up to :data:`_MAX_NEST` branches deep).  Every other block is a
    leaf of a binary ``if b < n`` tree inside ``while True``, and reaching
    it sets ``b``.  Each step segment is charged as on the cold tier; one
    that would cross the budget sets ``b`` and ``x`` to the block and
    segment and breaks out of the loop, where the registers are written
    back and :meth:`Interpreter._bail` steps it on the cold tier.

    Only integers the generator makes (register, block, segment and step
    numbers) are written into the source.  Every constant, name, location,
    callable and cache is a bound value named ``k0``, ``k1``, ..., and
    every shared helper a capitalised name from :meth:`_env`.
    """

    #: Branches nested inside one dispatched block, at most.  Python
    #: allows 100 levels of indentation; the dispatch tree and the
    #: templates use under 20.
    _MAX_NEST = 40

    def __init__(self, interp: Interpreter, unit: _Unit) -> None:
        self.interp = interp
        self.unit = unit
        self.values: dict[str, object] = {}
        self.lines: list[str] = []
        self.splits = [_split(block) for block in unit.callable_.blocks]
        self.roots = self._roots()

    def _roots(self) -> set[int]:
        """The blocks the dispatch loop must reach: the entry, those with
        several incoming edges, and back-edge targets (where an
        activation may switch tiers), among the reachable blocks."""
        successors = [_successors(terminator) for _, terminator in self.splits]
        incoming = [0] * len(successors)
        roots = {0}
        reachable = [0]
        seen = {0}
        while reachable:
            index = reachable.pop()
            for target in successors[index]:
                incoming[target] += 1
                if target <= index:
                    roots.add(target)
                if target not in seen:
                    seen.add(target)
                    reachable.append(target)
        roots.update(index for index in seen if incoming[index] > 1)
        pending = sorted(roots)
        while pending:
            walk = [(pending.pop(), 0)]
            while walk:
                index, depth = walk.pop()
                nest = depth + (len(successors[index]) == 2)
                for target in successors[index]:
                    if target in roots:
                        continue
                    if nest > self._MAX_NEST:
                        roots.add(target)
                        pending.append(target)
                    else:
                        walk.append((target, nest))
        return roots

    def bind(self, value: object) -> str:
        name = f"k{len(self.values)}"
        self.values[name] = value
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append(" " * depth + line)

    # ------------------------------------------------------------------

    def generate(self):
        unit = self.unit
        namespace = self.interp._env()
        registers = "".join(f"r{index}, " for index in range(unit.callable_.num_regs))
        self.emit(0, "def hot(regs, b):")
        if registers:
            self.emit(1, f"{registers}= regs")
        self.emit(1, "while True:")
        self._tree(sorted(self.roots), 2)
        self.emit(1, f"regs[:] = {registers or '()'}")
        self.emit(1, "BAIL(UNIT, regs, b, x)")
        source = "\n".join(self.lines) + "\n"
        # The clones of one method (same IR, other classes) often write
        # the same source: they share one compile, and its filename.
        code = self.interp._codes.get(source)
        if code is None:
            filename = f"<{__file__}>:{unit.callable_.name}"
            code = self.interp._codes[source] = compile(source, filename, "exec")
            linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
            self.interp._hot_files.append(filename)
        namespace.update(self.values, UNIT=unit)
        exec(code, namespace)
        return namespace.pop("hot")  # no cycle through the namespace

    def _tree(self, roots: list[int], depth: int) -> None:
        if len(roots) == 1:
            self._block(roots[0], depth)
            return
        middle = len(roots) // 2
        self.emit(depth, f"if b < {roots[middle]}:")
        self._tree(roots[:middle], depth + 1)
        self.emit(depth, "else:")
        self._tree(roots[middle:], depth + 1)

    def _edge(self, target: int, depth: int) -> None:
        if target in self.roots:
            self.emit(depth, f"b = {target}")
        else:
            self._block(target, depth)

    def _block(self, index: int, depth: int) -> None:
        emit = self.emit
        split, terminator = self.splits[index]
        for segment, instrs in enumerate(split):
            emit(depth, f"if (n := ST.instructions + {len(instrs)}) > MAXS: "
                        f"b = {index}; x = {segment}; break")
            emit(depth, "ST.instructions = n")
            for instr in instrs:
                if instr is not terminator:
                    _TEMPLATES.get(type(instr), _HotTier._unhandled)(self, instr, depth)
        kind = type(terminator)
        if kind is ir.Return:
            emit(depth, "return None" if terminator.src is None else f"return r{terminator.src}")
        elif kind is ir.Jump:
            self._edge(terminator.target, depth)
        elif kind is ir.Branch:
            cond = f"r{terminator.cond}"
            emit(depth, f"if {cond} is True or {cond} is not False and TRUTHY({cond}):")
            self._edge(terminator.then_target, depth + 1)
            emit(depth, "else:")
            self._edge(terminator.else_target, depth + 1)
        else:
            message = f"{self.unit.callable_.name}: fell off block B{index}"
            emit(depth, f"FAIL({self.bind(message)}, None)")

    # ------------------------------------------------------------------
    # Templates, one per instruction type: ``(self, instr, depth)``.

    def _unhandled(self, instr: ir.Instr, depth: int) -> None:
        message = self.bind(f"unhandled instruction {type(instr).__name__}")
        self.emit(depth, f"FAIL({message}, {self.bind(instr.loc)})")

    def _const(self, instr: ir.Const, depth: int) -> None:
        value = instr.value
        literal = repr(value) if value is None or type(value) is bool else self.bind(value)
        self.emit(depth, f"r{instr.dest} = {literal}")

    def _move(self, instr: ir.Move, depth: int) -> None:
        self.emit(depth, f"r{instr.dest} = r{instr.src}")

    #: Operators whose Python form is the language's on two numbers.
    _PYTHON_OPS = {op: op for op in ("+", "-", "*", "<", "<=", ">", ">=", "==", "!=")}

    def _binop(self, instr: ir.BinOp, depth: int) -> None:
        emit = self.emit
        lhs, rhs, dest = f"r{instr.lhs}", f"r{instr.rhs}", f"r{instr.dest}"
        general = f"{dest} = {self.bind(_binary(instr.op))}({lhs}, {rhs}, {self.bind(instr.loc)})"
        if instr.op in ("/", "%"):
            # C's truncating division and remainder agree with Python's
            # floor forms when both operands are non-negative.
            python = "//" if instr.op == "/" else "%"
            emit(depth, f"if type({lhs}) is int and type({rhs}) is int and {lhs} >= 0 and {rhs} > 0: "
                        f"{dest} = {lhs} {python} {rhs}")
        elif instr.op in self._PYTHON_OPS:
            python = self._PYTHON_OPS[instr.op]
            emit(depth, f"if type({lhs}) in NUMS and type({rhs}) in NUMS: {dest} = {lhs} {python} {rhs}")
            if instr.op in ("==", "!="):
                same = "is" if instr.op == "==" else "is not"
                emit(depth, f"elif {lhs} is None or {rhs} is None: {dest} = {lhs} {same} {rhs}")
        else:
            emit(depth, general)
            return
        emit(depth, f"else: {general}")

    def _unop(self, instr: ir.UnOp, depth: int) -> None:
        src, dest = f"r{instr.src}", f"r{instr.dest}"
        general = f"{self.bind(_unary(instr.op))}({src}, {self.bind(instr.loc)})"
        if instr.op == "!":
            line = f"False if {src} is True else True if {src} is False else not TRUTHY({src})"
        elif instr.op == "-":
            line = f"-{src} if type({src}) in NUMS else {general}"
        else:
            line = general
        self.emit(depth, f"{dest} = {line}")

    def _field(self, instr, depth: int, load: bool) -> None:
        """A field read or write: the object fast path, the view fast path
        if some inline array has the field, else the general method (which
        fills the slot caches)."""
        emit = self.emit
        object_slots, inline_slots = self.interp._field_slots(instr.field_name)
        name, loc = self.bind(instr.field_name), self.bind(instr.loc)
        if load:
            count, move = "heap_reads", f"r{instr.dest} = q.slots[s]"
            general = f"r{instr.dest} = GF(o, {name}, {loc})"
        else:
            count, move = "heap_writes", f"q.slots[s] = r{instr.src}"
            general = f"SF(o, {name}, r{instr.src}, {loc})"
        emit(depth, f"o = r{instr.obj}")
        emit(depth, f"if type(o) is OR and (s := {self.bind(object_slots)}.get(o.class_name)) "
                    "is not None and (q := OG(o.address)) is not None:")
        emit(depth + 1, f"ST.{count} += 1; {move}; x = o.address + OH + s * SZ")
        self._access(depth + 1, not load)
        if instr.field_name in self.interp._view_fields:
            # A view's index needs no check: MakeView range-checked it,
            # and arrays never shrink.
            emit(depth, f"elif type(o) is VR and (p := {self.bind(inline_slots)}.get("
                        "(a := o[0]).inline_layout)) is not None and (q := AG(a.address)) is not None:")
            emit(depth + 1, "s = p[0] * q.length + o[1] if q.parallel else o[1] * p[1] + p[0]")
            emit(depth + 1, f"ST.{count} += 1; {move}; x = a.address + AH + s * SZ")
            self._access(depth + 1, not load)
        emit(depth, f"else: {general}")

    def _access(self, depth: int, write: bool) -> None:
        """The cache simulator's access of address ``x``, with a hit on
        the set's most recently used line (which changes no order)
        counted inline."""
        emit = self.emit
        emit(depth, "l = x // LB; w = SETS[l % NS]")
        emit(depth, f"if w and w[0] == l // NS: CS.{'writes' if write else 'reads'} += 1")
        emit(depth, f"else: ACCESS(x, {write})")

    def _get_field(self, instr: ir.GetField, depth: int) -> None:
        self._field(instr, depth, load=True)

    def _set_field(self, instr: ir.SetField, depth: int) -> None:
        self._field(instr, depth, load=False)

    def _element(self, instr, depth: int, load: bool) -> None:
        emit = self.emit
        loc = self.bind(instr.loc)
        emit(depth, f"a = r{instr.array}; i = r{instr.index}; "
                    "q = AG(a.address) if type(a) is AR and a.inline_layout is None else None")
        emit(depth, "if q is not None and type(i) is int and 0 <= i < q.length:")
        if load:
            emit(depth + 1, f"ST.heap_reads += 1; r{instr.dest} = q.slots[i]")
        else:
            emit(depth + 1, f"ST.heap_writes += 1; q.slots[i] = r{instr.src}")
        emit(depth + 1, "x = a.address + AH + i * SZ")
        self._access(depth + 1, not load)
        if load:
            emit(depth, f"else: r{instr.dest} = GI(a, i, {loc})")
        else:
            emit(depth, f"else: SI(a, i, r{instr.src}, {loc})")

    def _get_index(self, instr: ir.GetIndex, depth: int) -> None:
        self._element(instr, depth, load=True)

    def _set_index(self, instr: ir.SetIndex, depth: int) -> None:
        self._element(instr, depth, load=False)

    def _get_field_indexed(self, instr: ir.GetFieldIndexed, depth: int) -> None:
        self.emit(depth, f"r{instr.dest} = GFI(r{instr.obj}, {self.bind(instr.base_field)}, "
                         f"{self.bind(instr.length)}, r{instr.index}, {self.bind(instr.loc)})")

    def _set_field_indexed(self, instr: ir.SetFieldIndexed, depth: int) -> None:
        self.emit(depth, f"SFI(r{instr.obj}, {self.bind(instr.base_field)}, "
                         f"{self.bind(instr.length)}, r{instr.index}, r{instr.src}, "
                         f"{self.bind(instr.loc)})")

    def _array_len(self, instr: ir.ArrayLen, depth: int) -> None:
        array = f"r{instr.array}"
        self.emit(depth, f"r{instr.dest} = {array}.length if type({array}) is AR "
                         f"else ALEN({array}, {self.bind(instr.loc)})")

    def _make_view(self, instr: ir.MakeView, depth: int) -> None:
        emit = self.emit
        view_class = self.bind(instr.class_name)
        emit(depth, f"a = r{instr.array}; i = r{instr.index}")
        emit(depth, "if type(a) is AR and a.inline_layout is not None and type(i) is int "
                    f"and 0 <= i < a.length: r{instr.dest} = TN(VR, (a, i, {view_class}))")
        emit(depth, f"else: r{instr.dest} = MV(a, i, {view_class}, {self.bind(instr.loc)})")

    def _new(self, instr: ir.New, depth: int) -> None:
        self.emit(depth, f"r{instr.dest} = NEW({self.bind(instr.class_name)}, "
                         f"{self._list(instr.args)}, {self.bind(instr.loc)}, "
                         f"{bool(instr.on_stack)}, {bool(instr.skip_init)}, "
                         f"{bool(instr.frame_local)})")

    def _new_array(self, instr: ir.NewArray, depth: int) -> None:
        self.emit(depth, f"r{instr.dest} = NEWA(r{instr.size}, {self.bind(instr.inline_layout)}, "
                         f"{bool(instr.parallel_layout)}, {self.bind(instr.loc)}, "
                         f"{self.bind(instr.elem_class)})")

    @staticmethod
    def _list(registers: tuple[int, ...]) -> str:
        return "[" + ", ".join(f"r{index}" for index in registers) + "]"

    def _call_method(self, instr: ir.CallMethod, depth: int) -> None:
        """A send, through this site's receiver class -> method cache."""
        emit = self.emit
        methods = self.bind({})
        emit(depth, f"o = r{instr.recv}; m = {methods}.get(o.class_name) if type(o) is OR "
                    f"else {methods}.get(o[2]) if type(o) is VR else None")
        emit(depth, f"if m is None: r{instr.dest} = SEND(o, {self.bind(instr.method_name)}, "
                    f"{self._list(instr.args)}, {self.bind(instr.loc)}, {methods})")
        emit(depth, f"else: ST.dynamic_dispatches += 1; r{instr.dest} = "
                    f"CALL(m, {self._list((instr.recv, *instr.args))})")

    def _call_static(self, instr: ir.CallStatic, depth: int) -> None:
        method = self.interp._static_target(instr)
        if method is None:
            self.emit(depth, f"r{instr.dest} = CST(r{instr.recv}, {self.bind(instr.class_name)}, "
                             f"{self.bind(instr.method_name)}, {self._list(instr.args)}, "
                             f"{self.bind(instr.loc)})")
        else:
            self.emit(depth, f"ST.static_calls += 1; r{instr.dest} = "
                             f"CALL({self.bind(method)}, {self._list((instr.recv, *instr.args))})")

    def _call_function(self, instr: ir.CallFunction, depth: int) -> None:
        fn = self.interp.program.functions.get(instr.func_name)
        if fn is None:
            message = self.bind(f"unknown function {instr.func_name!r}")
            self.emit(depth, f"FAIL({message}, {self.bind(instr.loc)})")
        else:
            self.emit(depth, f"ST.static_calls += 1; r{instr.dest} = "
                             f"CALL({self.bind(fn)}, {self._list(instr.args)})")

    def _call_builtin(self, instr: ir.CallBuiltin, depth: int) -> None:
        emit = self.emit
        dest = f"r{instr.dest}"
        general = (f"{dest} = BI({self.bind(instr.builtin_name)}, {self._list(instr.args)}, "
                   f"{self.bind(instr.loc)})")
        emit(depth, "ST.builtin_calls += 1")
        if instr.builtin_name in ("min", "max") and len(instr.args) == 2:
            # Python's two-argument min and max: the first argument
            # unless the second is strictly smaller (larger).
            first, second = (f"r{index}" for index in instr.args)
            beats = "<" if instr.builtin_name == "min" else ">"
            emit(depth, f"if type({first}) in NUMS and type({second}) in NUMS: "
                        f"{dest} = {second} if {second} {beats} {first} else {first}")
            emit(depth, f"else: {general}")
        else:
            emit(depth, general)

    def _get_global(self, instr: ir.GetGlobal, depth: int) -> None:
        self.emit(depth, f"r{instr.dest} = G[{self.bind(instr.name)}]")

    def _set_global(self, instr: ir.SetGlobal, depth: int) -> None:
        self.emit(depth, f"G[{self.bind(instr.name)}] = r{instr.src}")


_TEMPLATES = {
    ir.Const: _HotTier._const,
    ir.Move: _HotTier._move,
    ir.BinOp: _HotTier._binop,
    ir.UnOp: _HotTier._unop,
    ir.GetField: _HotTier._get_field,
    ir.SetField: _HotTier._set_field,
    ir.GetFieldIndexed: _HotTier._get_field_indexed,
    ir.SetFieldIndexed: _HotTier._set_field_indexed,
    ir.GetIndex: _HotTier._get_index,
    ir.SetIndex: _HotTier._set_index,
    ir.ArrayLen: _HotTier._array_len,
    ir.New: _HotTier._new,
    ir.NewArray: _HotTier._new_array,
    ir.MakeView: _HotTier._make_view,
    ir.CallMethod: _HotTier._call_method,
    ir.CallStatic: _HotTier._call_static,
    ir.CallFunction: _HotTier._call_function,
    ir.CallBuiltin: _HotTier._call_builtin,
    ir.GetGlobal: _HotTier._get_global,
    ir.SetGlobal: _HotTier._set_global,
}
