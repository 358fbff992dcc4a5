"""Register-based control-flow-graph IR.

Every callable (top-level function, method, or synthesized global
initializer) lowers to an :class:`IRCallable`: a list of basic blocks of
three-address instructions over an infinite register file.  The same IR is
consumed by the flow analysis, executed by the VM, rewritten by the object
inlining transformation, and emitted by the code generator.

Instructions are immutable; passes rewrite by building new blocks.  Every
instruction carries a program-unique ``uid`` so analyses can key facts on
instruction identity (creation sites, call sites, uses) even across copies
of a block list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator

from ..lang.errors import SourceLocation, UNKNOWN_LOCATION

#: Process-wide uid source.  uids only need to be unique within a program,
#: but a global counter is simpler and keeps uids unique across rewrites.
_UID_COUNTER = itertools.count(1)


def fresh_uid() -> int:
    """Return a new program-unique instruction uid."""
    return next(_UID_COUNTER)


def renumber_uids(program: "IRProgram") -> None:
    """Renumber every instruction uid densely to 1..N in traversal order.

    uids otherwise carry whatever the process-wide counter happened to be
    at, and their absolute values leak into anything sorted or named by
    uid (clone partition order, ``array-site#N`` candidate keys) — so two
    compiles of the same source in differently-warmed processes would
    diverge.  Lowering calls this once per compile; the global counter has
    already advanced past N, so later ``fresh_uid`` calls during rewrites
    cannot collide with the renumbered range.
    """
    next_uid = itertools.count(1)
    for callable_ in program.callables():
        for block in callable_.blocks:
            block.instrs = [
                replace(instr, uid=next(next_uid)) for instr in block.instrs
            ]


def copy_callable(callable_: "IRCallable") -> "IRCallable":
    """A structurally independent copy of a callable.

    Blocks and the callable itself are fresh objects (the scalar passes
    mutate ``num_regs``, block lists, and ``block.instrs`` in place);
    instructions are immutable and stay shared.
    """
    return IRCallable(
        name=callable_.name,
        params=callable_.params,
        num_regs=callable_.num_regs,
        blocks=[Block(instrs=list(block.instrs)) for block in callable_.blocks],
        is_method=callable_.is_method,
        class_name=callable_.class_name,
        source_name=callable_.source_name,
    )


def copy_program(program: "IRProgram") -> "IRProgram":
    """A structurally independent copy of a whole program.

    The program, its classes, callables and blocks are fresh objects, and
    so is every list, dict and set they hold; instructions, source
    locations and :class:`InlinedFieldInfo` records are immutable and stay
    shared.  Callables are copied once per object, so a callable reachable
    under two names is still one object in the copy.
    """
    copies: dict[int, IRCallable] = {}

    def copy_once(callable_: IRCallable) -> IRCallable:
        copied = copies.get(id(callable_))
        if copied is None:
            copied = copies[id(callable_)] = copy_callable(callable_)
        return copied

    return IRProgram(
        classes={
            name: IRClass(
                name=cls.name,
                superclass=cls.superclass,
                fields=list(cls.fields),
                methods={
                    method: copy_once(callable_)
                    for method, callable_ in cls.methods.items()
                },
                inline_fields=set(cls.inline_fields),
                inlined_state=dict(cls.inlined_state),
                source_name=cls.source_name,
            )
            for name, cls in program.classes.items()
        },
        functions={
            name: copy_once(callable_) for name, callable_ in program.functions.items()
        },
        global_names=list(program.global_names),
    )


# ----------------------------------------------------------------------
# Instructions.


@dataclass(frozen=True, slots=True)
class Instr:
    """Base instruction.  ``uid`` identifies the instruction; ``loc`` points
    at the source construct it was lowered from."""

    uid: int
    loc: SourceLocation

    @property
    def dst(self) -> int | None:
        """Destination register, if the instruction produces a value."""
        return getattr(self, "dest", None)

    def sources(self) -> tuple[int, ...]:
        """Registers this instruction reads."""
        return ()

    def with_sources(self, new_sources: tuple[int, ...]) -> "Instr":
        """Return a copy with source registers replaced (same arity)."""
        if not new_sources and not self.sources():
            return self
        raise NotImplementedError(type(self).__name__)


@dataclass(frozen=True, slots=True)
class Const(Instr):
    dest: int
    value: object  # int | float | str | bool | None


@dataclass(frozen=True, slots=True)
class Move(Instr):
    dest: int
    src: int

    def sources(self) -> tuple[int, ...]:
        return (self.src,)

    def with_sources(self, new_sources: tuple[int, ...]) -> "Move":
        return replace(self, src=new_sources[0])


@dataclass(frozen=True, slots=True)
class UnOp(Instr):
    dest: int
    op: str  # '-' | '!'
    src: int

    def sources(self) -> tuple[int, ...]:
        return (self.src,)

    def with_sources(self, new_sources: tuple[int, ...]) -> "UnOp":
        return replace(self, src=new_sources[0])


@dataclass(frozen=True, slots=True)
class BinOp(Instr):
    dest: int
    op: str  # arithmetic / comparison; '&&','||' are lowered to CFG
    lhs: int
    rhs: int

    def sources(self) -> tuple[int, ...]:
        return (self.lhs, self.rhs)

    def with_sources(self, new_sources: tuple[int, ...]) -> "BinOp":
        return replace(self, lhs=new_sources[0], rhs=new_sources[1])


@dataclass(frozen=True, slots=True)
class New(Instr):
    """Allocate an instance of ``class_name`` and run its ``init``.

    ``on_stack`` is set by the inlining transformation when assignment
    specialization proved the object is consumed by value into an inlined
    slot: the allocation no longer escapes, so it is charged stack-like
    costs (the paper's "sub-objects are allocated with the container").
    """

    dest: int
    class_name: str
    args: tuple[int, ...]
    on_stack: bool = False
    #: Set when the transformation emits an explicit CallStatic to a cloned
    #: constructor right after the allocation.
    skip_init: bool = False
    #: Set by the escape-analysis stage when the object provably never
    #: escapes its allocating activation: the VM allocates it in the frame
    #: region and reclaims it when the frame pops.  Unlike ``on_stack``
    #: (whose objects may be copied by value into containers and outlive
    #: the frame), a ``frame_local`` object is dead at return.
    frame_local: bool = False

    def sources(self) -> tuple[int, ...]:
        return self.args

    def with_sources(self, new_sources: tuple[int, ...]) -> "New":
        return replace(self, args=tuple(new_sources))


@dataclass(frozen=True, slots=True)
class NewArray(Instr):
    """Allocate an array of ``size`` nil slots.

    ``inline_layout`` is installed by the inlining transformation: when set
    to a class name, the array stores that class's field state directly
    (parallel-array layout) instead of element references.
    """

    dest: int
    size: int  # register holding the length
    inline_layout: str | None = None
    #: Parallel-array (structure-of-arrays) layout for inline arrays; the
    #: default is interleaved (array-of-structures).  The transformation
    #: picks SoA for narrow elements (the paper notes the Fortran-style
    #: layout helped OOPACK's complex-number arrays).
    parallel_layout: bool = False
    #: Source-level manual annotation (``inline_array(n)``): the C++
    #: programmer would have declared this an array of objects by value.
    #: Ignored by the uniform model; consumed by the manual baseline.
    declared_inline: bool = False
    #: Element class when the analysis proved every element of this array
    #: is one class (annotated by the transformation, never the parser).
    #: Purely observational — it sharpens locality labels from the
    #: generic ``<array>`` to ``Cls[]``; no execution semantics hang off
    #: it.
    elem_class: str | None = None

    def sources(self) -> tuple[int, ...]:
        return (self.size,)

    def with_sources(self, new_sources: tuple[int, ...]) -> "NewArray":
        return replace(self, size=new_sources[0])


@dataclass(frozen=True, slots=True)
class GetField(Instr):
    dest: int
    obj: int
    field_name: str

    def sources(self) -> tuple[int, ...]:
        return (self.obj,)

    def with_sources(self, new_sources: tuple[int, ...]) -> "GetField":
        return replace(self, obj=new_sources[0])


@dataclass(frozen=True, slots=True)
class SetField(Instr):
    obj: int
    field_name: str
    src: int

    def sources(self) -> tuple[int, ...]:
        return (self.obj, self.src)

    def with_sources(self, new_sources: tuple[int, ...]) -> "SetField":
        return replace(self, obj=new_sources[0], src=new_sources[1])


@dataclass(frozen=True, slots=True)
class GetIndex(Instr):
    dest: int
    array: int
    index: int

    def sources(self) -> tuple[int, ...]:
        return (self.array, self.index)

    def with_sources(self, new_sources: tuple[int, ...]) -> "GetIndex":
        return replace(self, array=new_sources[0], index=new_sources[1])


@dataclass(frozen=True, slots=True)
class SetIndex(Instr):
    array: int
    index: int
    src: int

    def sources(self) -> tuple[int, ...]:
        return (self.array, self.index, self.src)

    def with_sources(self, new_sources: tuple[int, ...]) -> "SetIndex":
        return replace(self, array=new_sources[0], index=new_sources[1], src=new_sources[2])


@dataclass(frozen=True, slots=True)
class ArrayLen(Instr):
    dest: int
    array: int

    def sources(self) -> tuple[int, ...]:
        return (self.array,)

    def with_sources(self, new_sources: tuple[int, ...]) -> "ArrayLen":
        return replace(self, array=new_sources[0])


@dataclass(frozen=True, slots=True)
class CallMethod(Instr):
    """Dynamically dispatched send ``recv.method(args)``."""

    dest: int
    recv: int
    method_name: str
    args: tuple[int, ...]

    def sources(self) -> tuple[int, ...]:
        return (self.recv, *self.args)

    def with_sources(self, new_sources: tuple[int, ...]) -> "CallMethod":
        return replace(self, recv=new_sources[0], args=tuple(new_sources[1:]))


@dataclass(frozen=True, slots=True)
class CallStatic(Instr):
    """Statically bound call to ``class_name::method_name``.

    Produced by lowering ``super.m(...)`` and by the inlining transformation
    when a dispatch has been resolved to a specialized clone.
    """

    dest: int
    recv: int
    class_name: str
    method_name: str
    args: tuple[int, ...]

    def sources(self) -> tuple[int, ...]:
        return (self.recv, *self.args)

    def with_sources(self, new_sources: tuple[int, ...]) -> "CallStatic":
        return replace(self, recv=new_sources[0], args=tuple(new_sources[1:]))


@dataclass(frozen=True, slots=True)
class CallFunction(Instr):
    dest: int
    func_name: str
    args: tuple[int, ...]

    def sources(self) -> tuple[int, ...]:
        return self.args

    def with_sources(self, new_sources: tuple[int, ...]) -> "CallFunction":
        return replace(self, args=tuple(new_sources))


@dataclass(frozen=True, slots=True)
class CallBuiltin(Instr):
    dest: int
    builtin_name: str
    args: tuple[int, ...]

    def sources(self) -> tuple[int, ...]:
        return self.args

    def with_sources(self, new_sources: tuple[int, ...]) -> "CallBuiltin":
        return replace(self, args=tuple(new_sources))


@dataclass(frozen=True, slots=True)
class GetGlobal(Instr):
    dest: int
    name: str


@dataclass(frozen=True, slots=True)
class SetGlobal(Instr):
    name: str
    src: int

    def sources(self) -> tuple[int, ...]:
        return (self.src,)

    def with_sources(self, new_sources: tuple[int, ...]) -> "SetGlobal":
        return replace(self, src=new_sources[0])


@dataclass(frozen=True, slots=True)
class GetFieldIndexed(Instr):
    """Read slot ``base_field + index`` of an object.

    Produced when a fixed-length array was inlined into its container: the
    array's ``length`` slots live at consecutive container fields starting
    at ``base_field``.  ``index`` is bounds-checked against ``length``.
    """

    dest: int
    obj: int
    base_field: str
    length: int
    index: int

    def sources(self) -> tuple[int, ...]:
        return (self.obj, self.index)

    def with_sources(self, new_sources: tuple[int, ...]) -> "GetFieldIndexed":
        return replace(self, obj=new_sources[0], index=new_sources[1])


@dataclass(frozen=True, slots=True)
class SetFieldIndexed(Instr):
    """Write slot ``base_field + index`` of an object (see GetFieldIndexed)."""

    obj: int
    base_field: str
    length: int
    index: int
    src: int

    def sources(self) -> tuple[int, ...]:
        return (self.obj, self.index, self.src)

    def with_sources(self, new_sources: tuple[int, ...]) -> "SetFieldIndexed":
        return replace(
            self, obj=new_sources[0], index=new_sources[1], src=new_sources[2]
        )


@dataclass(frozen=True, slots=True)
class MakeView(Instr):
    """Fat pointer to an inline-allocated array element: (array, index).

    Only appears after the inlining transformation; ``class_name`` records
    the element class whose state the view exposes.
    """

    dest: int
    array: int
    index: int
    class_name: str

    def sources(self) -> tuple[int, ...]:
        return (self.array, self.index)

    def with_sources(self, new_sources: tuple[int, ...]) -> "MakeView":
        return replace(self, array=new_sources[0], index=new_sources[1])


# Terminators -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Jump(Instr):
    target: int  # block index


@dataclass(frozen=True, slots=True)
class Branch(Instr):
    cond: int
    then_target: int
    else_target: int

    def sources(self) -> tuple[int, ...]:
        return (self.cond,)

    def with_sources(self, new_sources: tuple[int, ...]) -> "Branch":
        return replace(self, cond=new_sources[0])


@dataclass(frozen=True, slots=True)
class Return(Instr):
    src: int | None

    def sources(self) -> tuple[int, ...]:
        return () if self.src is None else (self.src,)

    def with_sources(self, new_sources: tuple[int, ...]) -> "Return":
        if self.src is None:
            return self
        return replace(self, src=new_sources[0])


TERMINATORS = (Jump, Branch, Return)

#: Instructions that read or write the heap (used by the cost model and by
#: simple local analyses).
HEAP_INSTRS = (New, NewArray, GetField, SetField, GetIndex, SetIndex, ArrayLen)


# ----------------------------------------------------------------------
# Containers.


@dataclass(slots=True)
class Block:
    """A basic block: straight-line instructions ending in a terminator."""

    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        return self.instrs[-1]

    def successors(self) -> tuple[int, ...]:
        term = self.terminator
        if isinstance(term, Jump):
            return (term.target,)
        if isinstance(term, Branch):
            return (term.then_target, term.else_target)
        return ()


@dataclass(slots=True)
class IRCallable:
    """A lowered function or method.

    For methods, register 0 holds ``this`` and registers ``1..n`` hold the
    declared parameters; for functions, parameters start at register 0.
    """

    name: str  # qualified: 'Class::method' or plain function name
    params: tuple[str, ...]  # declared parameter names (excluding this)
    num_regs: int
    blocks: list[Block]
    is_method: bool
    class_name: str | None = None  # defining class for methods
    source_name: str | None = None  # original name before cloning

    @property
    def method_name(self) -> str | None:
        if not self.is_method:
            return None
        return self.name.split("::", 1)[1]

    @property
    def num_formals(self) -> int:
        """Registers occupied by incoming values (this + params for methods)."""
        return len(self.params) + (1 if self.is_method else 0)

    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def instructions_with_position(self) -> Iterator[tuple[int, int, Instr]]:
        for block_index, block in enumerate(self.blocks):
            for instr_index, instr in enumerate(block.instrs):
                yield block_index, instr_index, instr


@dataclass(slots=True)
class IRClass:
    """A class: its own (non-inherited) field list plus its methods.

    ``fields`` preserves declaration order — the transformation's layout
    rules depend on it.  ``inline_fields`` records which fields carried the
    manual ``inline`` annotation in the source.  ``inlined_state`` maps a
    removed (inlined) field name to the container field names now holding
    the child's state, in the child's field order.
    """

    name: str
    superclass: str | None
    fields: list[str]
    methods: dict[str, IRCallable]
    inline_fields: set[str] = field(default_factory=set)
    inlined_state: dict[str, "InlinedFieldInfo"] = field(default_factory=dict)
    source_name: str | None = None  # original name before class cloning


@dataclass(frozen=True, slots=True)
class InlinedFieldInfo:
    """How an inlined field's state is laid out in its container.

    ``child_class`` is the (possibly cloned) class whose state was inlined;
    ``state_fields`` maps each child field name to the container field that
    now holds it.
    """

    field_name: str
    child_class: str
    state_fields: tuple[tuple[str, str], ...]  # (child field, container field)

    def container_field(self, child_field: str) -> str:
        for child, container in self.state_fields:
            if child == child_field:
                return container
        raise KeyError(child_field)


@dataclass(slots=True)
class IRProgram:
    """A whole lowered program.

    ``global_names`` lists declared globals in order; their initializers are
    lowered into the synthesized ``@global_init`` function, which the VM
    runs before ``main``.
    """

    classes: dict[str, IRClass]
    functions: dict[str, IRCallable]
    global_names: list[str]

    ENTRY_FUNCTION = "main"
    GLOBAL_INIT = "@global_init"

    def callables(self) -> Iterator[IRCallable]:
        yield from self.functions.values()
        for cls in self.classes.values():
            yield from cls.methods.values()

    def lookup_callable(self, qualified_name: str) -> IRCallable | None:
        if "::" in qualified_name:
            class_name, method_name = qualified_name.split("::", 1)
            cls = self.classes.get(class_name)
            if cls is None:
                return None
            return cls.methods.get(method_name)
        return self.functions.get(qualified_name)

    # -- class hierarchy helpers ------------------------------------

    def superclass_chain(self, class_name: str) -> list[str]:
        """``class_name`` followed by its ancestors, root last."""
        chain: list[str] = []
        current: str | None = class_name
        while current is not None:
            chain.append(current)
            current = self.classes[current].superclass
        return chain

    def layout(self, class_name: str) -> list[str]:
        """Full field layout: inherited fields first (root-most first)."""
        fields: list[str] = []
        for name in reversed(self.superclass_chain(class_name)):
            fields.extend(self.classes[name].fields)
        return fields

    def resolve_method(self, class_name: str, method_name: str) -> tuple[str, IRCallable] | None:
        """Dynamic dispatch: find ``method_name`` on ``class_name`` or an
        ancestor.  Returns (defining class, callable)."""
        for name in self.superclass_chain(class_name):
            method = self.classes[name].methods.get(method_name)
            if method is not None:
                return name, method
        return None

    def subclasses(self, class_name: str) -> list[str]:
        """Direct and transitive subclasses of ``class_name``."""
        result: list[str] = []
        for name, cls in self.classes.items():
            if name == class_name:
                continue
            if class_name in self.superclass_chain(name):
                result.append(name)
        return result

    def inlined_info(self, class_name: str, field_name: str) -> InlinedFieldInfo | None:
        """Look up inlined-field metadata along the superclass chain."""
        for name in self.superclass_chain(class_name):
            info = self.classes[name].inlined_state.get(field_name)
            if info is not None:
                return info
        return None


def make_instr(cls: type, loc: SourceLocation = UNKNOWN_LOCATION, **kwargs: object) -> Instr:
    """Construct an instruction with a fresh uid."""
    return cls(uid=fresh_uid(), loc=loc, **kwargs)
