"""Context-sensitive interprocedural flow analysis.

This is the reproduction of the Concert analysis framework the paper
builds on (§3.2.1) together with the tag analysis of §4.1:

- concrete type inference over method/object contours,
- field state per object contour ("slots"),
- demand-driven contour creation through :class:`ContourManager`,
- field-origin *tags* with the paper's three transfer functions
  (object creation → ``NoField``; instance-variable access →
  ``MakeTag``; everything else → gated propagation).

The analysis is flow-insensitive inside a contour (registers accumulate
joins) and runs a global worklist to a fixpoint.

A contour is re-evaluated whenever a cell it has read grows — a field
slot, a global, a callee contour's return value, its own argument tuple:
reverse reader maps (``_slot_readers``, ``_global_readers``,
``MethodContour.callers``) enqueue every reader of a growing cell.  Two
exact optimizations cut the transfer-function calls (see
docs/ANALYSIS.md):

- within an evaluation, local passes after the first only re-run
  instructions with an input register that changed in the previous pass
  (an unchanged-input transfer is a no-op at joined state);
- the final *recording* pass, which snapshots per-instruction facts
  (operand values, resolved call edges, allocated contours, store and
  identity-comparison sites) into an
  :class:`~repro.analysis.results.AnalysisResult`, replays one sweep
  over each contour's cached fixpoint registers instead of re-running
  its local passes from scratch.

``AnalysisConfig(incremental=False)`` disables both — the from-scratch
reference used by the differential tests, which must produce
bit-identical results.  The ``analysis.transfers`` counter shows what
they save.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..ir import model as ir
from ..obs.tracer import NULL_TRACER
from .contours import (
    ARRAY_CLASS,
    AnalysisConfig,
    ContourManager,
    MethodContour,
)
from .results import AnalysisResult, IdentitySite, StoreSite
from .tags import ELEM_FIELD, NOFIELD, Slot, TOP_SLOT, Tag, make_tag
from .values import (
    AbstractVal,
    BOTTOM,
    PRIM_BOOL,
    PRIM_FLOAT,
    PRIM_INT,
    PRIM_NIL,
    PRIM_STR,
    const_atom,
    join,
    make_val,
    prim_val,
)


class AnalysisBudgetExceeded(Exception):
    """The worklist step cap was exceeded (program too adversarial)."""


_NUMERIC = frozenset({PRIM_INT, PRIM_FLOAT})

#: Builtin result kinds.
_BUILTIN_RESULTS: dict[str, frozenset] = {
    "print": frozenset({PRIM_NIL}),
    "assert_true": frozenset({PRIM_NIL}),
    "sqrt": frozenset({PRIM_FLOAT}),
    "floor": frozenset({PRIM_INT}),
    "ceil": frozenset({PRIM_INT}),
    "int": frozenset({PRIM_INT}),
    "float": frozenset({PRIM_FLOAT}),
    "pow": _NUMERIC,
    "abs": _NUMERIC,
    "min": _NUMERIC,
    "max": _NUMERIC,
}


@dataclass(slots=True)
class _EvalState:
    """Per-evaluation mutable state for one contour."""

    regs: list[AbstractVal]
    changed: bool = False
    record: bool = False
    #: Registers written this pass; feeds the dirty-instruction selection
    #: of the next local pass (incremental mode only).
    changed_regs: set = field(default_factory=set)


class FlowAnalysis:
    """Runs the whole-program analysis over an :class:`IRProgram`."""

    def __init__(
        self,
        program: ir.IRProgram,
        config: AnalysisConfig | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.program = program
        self.config = config or AnalysisConfig()
        self.tracer = tracer
        self.manager = ContourManager(self.config)
        #: (object contour id, field name) -> abstract content.
        self.slots: dict[Slot, AbstractVal] = {}
        self._slot_readers: dict[Slot, set[int]] = {}
        self.global_values: dict[str, AbstractVal] = {
            name: prim_val(PRIM_NIL) for name in program.global_names
        }
        self._global_readers: dict[str, set[int]] = {}
        #: per contour: call-site uid -> set of callee contour ids.
        self.call_edges: dict[int, dict[int, set[int]]] = {}
        #: per contour: allocation-site uid -> object contour id.
        self.allocations: dict[int, dict[int, int]] = {}
        self._worklist: deque[int] = deque()
        self._in_worklist: set[int] = set()
        self._steps = 0
        self._last_gc_step = -10_000
        self.manager.gc_hook = self._gc_stale_contours
        self.manager.widen_hook = self._on_widened
        #: contour id -> converged registers of the last evaluation.
        self._cached_regs: dict[int, list[AbstractVal]] = {}
        #: callable name -> [(instr, source regs)] with CFG-only
        #: instructions (Jump/Branch — no dataflow effect) filtered out.
        self._instr_cache: dict[str, list[tuple[ir.Instr, tuple[int, ...]]]] = {}
        #: Contour currently being evaluated; a write that would enqueue
        #: it is folded into the running local pass loop instead.
        self._current_cid: int | None = None
        self._self_requeued = False
        #: Contour whose reads (slots, gate head slots) are being tracked.
        self._reader: int | None = None
        self._evals = 0
        self._transfers = 0
        # Recording-pass outputs, keyed per contour so a re-record
        # replaces (never duplicates) that contour's entries.
        self._facts: dict[tuple[int, int], dict[str, object]] = {}
        self._stores: dict[int, list[StoreSite]] = {}
        self._identity_sites: dict[int, list[IdentitySite]] = {}

    # ------------------------------------------------------------------
    # Public API.

    def run(self) -> AnalysisResult:
        """Analyze from ``@global_init`` and ``main``; return the results."""
        for entry in (ir.IRProgram.GLOBAL_INIT, ir.IRProgram.ENTRY_FUNCTION):
            fn = self.program.functions.get(entry)
            if fn is None:
                continue
            contour, _ = self.manager.get_method_contour(entry, [], is_method=False)
            self._enqueue(contour.id)

        with self.tracer.span("analysis.fixpoint"):
            while self._worklist:
                self._steps += 1
                if self._steps > self.config.max_worklist_steps:
                    raise AnalysisBudgetExceeded(
                        f"analysis exceeded {self.config.max_worklist_steps} steps"
                    )
                contour_id = self._worklist.popleft()
                self._in_worklist.discard(contour_id)
                contour = self.manager.method_contours.get(contour_id)
                if contour is None:
                    continue  # retired by GC while queued
                self._evaluate(contour)

        # Drop contours left stale by signature growth (a call site whose
        # argument signature grew re-binds to a fresh contour; the old one
        # keeps stale, narrower facts).  Reachability over the final call
        # edges from the entry contours identifies the live set.
        self._prune_unreachable_contours()

        # Fixpoint reached: snapshot per-instruction facts.
        with self.tracer.span("analysis.record"):
            for contour in list(self.manager.method_contours.values()):
                self._record_contour(contour)

        tracer = self.tracer
        tracer.count("analysis.worklist_steps", self._steps)
        tracer.count("analysis.evals", self._evals)
        tracer.count("analysis.transfers", self._transfers)
        tracer.count("analysis.method_contours_created", self.manager.created_method_contours)
        tracer.count("analysis.object_contours_created", self.manager.created_object_contours)
        tracer.count("analysis.method_contours_live", self.manager.method_contour_count())
        tracer.count("analysis.object_contours_live", self.manager.object_contour_count())
        tracer.count("analysis.widened_callables", len(self.manager.widened_callables))
        tracer.count("analysis.widened_sites", len(self.manager.widened_sites))
        tracer.count(
            "analysis.flow_edges",
            sum(len(callees) for sites in self.call_edges.values() for callees in sites.values()),
        )
        tracer.count("analysis.slots", len(self.slots))
        live = self.manager.method_contours
        stores = [s for cid in live for s in self._stores.get(cid, ())]
        identity_sites = [s for cid in live for s in self._identity_sites.get(cid, ())]
        tracer.count("analysis.store_sites", len(stores))
        tracer.count("analysis.identity_sites", len(identity_sites))

        return AnalysisResult(
            program=self.program,
            config=self.config,
            manager=self.manager,
            slots=dict(self.slots),
            global_values=dict(self.global_values),
            call_edges={k: {u: set(v) for u, v in d.items()} for k, d in self.call_edges.items()},
            allocations={k: dict(v) for k, v in self.allocations.items()},
            facts=self._facts,
            stores=stores,
            identity_sites=identity_sites,
        )

    def _gc_stale_contours(self) -> None:
        """Mid-analysis GC: retire contours no live call edge reaches.

        Signature growth at a call site re-binds the site to a fresh
        contour, stranding the old one; without GC the strays count
        against the widening caps and force spurious widening.  Throttled
        so cap pressure in a hot loop doesn't re-run GC every step.
        """
        if self._steps - self._last_gc_step < 500:
            return
        self._last_gc_step = self._steps
        reachable = self._reachable_contours()
        for contour in self.manager.method_contours.values():
            contour.retired = contour.id not in reachable

    def _on_widened(self, summary: object, callers: set) -> None:
        """Widening created a summary contour absorbing existing state.

        The absorbed argument/return knowledge grew without flowing
        through the normal transfer functions, and future contour lookups
        now rebind to the summary — a change no cell growth announces.
        Re-enqueue everything that bound the pre-widening contours so it
        rebinds to the summary.
        """
        if isinstance(summary, MethodContour):
            dependents = {caller_id for caller_id, _site in callers}
        else:
            # Object-contour widening: the creator contours must rebind
            # their allocation results to the summary contour.
            dependents = set(callers)
        for contour_id in dependents:
            self._enqueue(contour_id)

    def _reachable_contours(self) -> set[int]:
        roots = [
            contour.id
            for contour in self.manager.method_contours.values()
            if contour.callable_name in (ir.IRProgram.GLOBAL_INIT, ir.IRProgram.ENTRY_FUNCTION)
            and not contour.arg_values
        ]
        reachable: set[int] = set()
        stack = list(roots)
        while stack:
            contour_id = stack.pop()
            if contour_id in reachable:
                continue
            reachable.add(contour_id)
            for callees in self.call_edges.get(contour_id, {}).values():
                stack.extend(callees)
        return reachable

    def _prune_unreachable_contours(self) -> None:
        reachable = self._reachable_contours()
        dead = set(self.manager.method_contours) - reachable
        for contour_id in dead:
            self.manager.remove_method_contour(contour_id)
            self.call_edges.pop(contour_id, None)
            self.allocations.pop(contour_id, None)
            self._cached_regs.pop(contour_id, None)
        # Scrub dead callers so downstream caller walks see live edges only.
        for contour in self.manager.method_contours.values():
            contour.callers = {
                (caller, site) for caller, site in contour.callers if caller in reachable
            }

    # ------------------------------------------------------------------
    # Worklist and dependency plumbing.

    def _enqueue(self, contour_id: int) -> None:
        if contour_id == self._current_cid:
            # The running evaluation wrote a cell it reads itself; the
            # local pass loop rescans instead of a redundant global pop.
            self._self_requeued = True
            return
        if contour_id not in self._in_worklist:
            self._in_worklist.add(contour_id)
            self._worklist.append(contour_id)

    def _gate(self, value: AbstractVal) -> AbstractVal:
        """Drop tags whose head slot's contents cannot be this value.

        This is the paper's ``Creators(Head(t)) ∩ Creators(u) ≠ ∅`` guard on
        tag propagation; it stops tags bleeding across dynamic dispatches.
        Reading a head slot is a real dependency: if its contents grow, a
        previously dropped tag may survive, so the reading contour must
        re-evaluate.
        """
        if not value.tags:
            return value
        kept: set[Tag] = set()
        reader = self._reader
        for tag in value.tags:
            if not tag or tag[0] == TOP_SLOT:
                kept.add(tag)
                continue
            head_slot = tag[0]
            if reader is not None:
                self._slot_readers.setdefault(head_slot, set()).add(reader)
            contents = self.slots.get(head_slot, BOTTOM)
            if contents.atoms & value.atoms:
                kept.add(tag)
        if len(kept) == len(value.tags):
            return value
        return make_val(value.atoms, kept)

    def _read_slot(self, slot: Slot, reader: int) -> AbstractVal:
        self._slot_readers.setdefault(slot, set()).add(reader)
        return self.slots.get(slot, BOTTOM)

    def _write_slot(self, slot: Slot, value: AbstractVal) -> None:
        value = self._gate(value)
        old = self.slots.get(slot, BOTTOM)
        merged = join(old, value)
        if merged != old:
            self.slots[slot] = merged
            for reader in self._slot_readers.get(slot, ()):
                self._enqueue(reader)

    # ------------------------------------------------------------------
    # Contour evaluation.

    def _instr_info(self, callable_: ir.IRCallable) -> list[tuple[ir.Instr, tuple[int, ...]]]:
        info = self._instr_cache.get(callable_.name)
        if info is None:
            info = [
                (instr, instr.sources())
                for instr in callable_.instructions()
                if not isinstance(instr, (ir.Jump, ir.Branch))
            ]
            self._instr_cache[callable_.name] = info
        return info

    def _evaluate(self, contour: MethodContour) -> None:
        """Run ``contour``'s transfer functions to a local fixpoint."""
        callable_ = self.program.lookup_callable(contour.callable_name)
        if callable_ is None:
            return
        cid = contour.id
        self._evals += 1
        incremental = self.config.incremental

        # Always evaluate cold from the contour's argument values.  (A warm
        # start from the previous registers would converge to the same local
        # fixpoint, but it would skip the transient call bindings that cold
        # pass-1 sweeps make while intermediate registers are still BOTTOM —
        # and those bindings are observable in ``call_edges``, so warm and
        # cold runs would no longer be bit-identical.)
        regs = [BOTTOM] * callable_.num_regs
        for index, value in enumerate(contour.arg_values):
            if index < len(regs):
                regs[index] = value
        state = _EvalState(regs=regs)

        self.call_edges[cid] = {}
        self.allocations.setdefault(cid, {})

        info = self._instr_info(callable_)
        self._current_cid = cid
        self._reader = cid
        self._self_requeued = False
        converged = False
        dirty: set[int] | None = None  # None = run every instruction
        try:
            for _ in range(self.config.max_local_passes):
                state.changed = False
                state.changed_regs = set()
                self._self_requeued = False
                if dirty is None:
                    for instr, _sources in info:
                        self._transfer(contour, instr, state)
                else:
                    for instr, sources in info:
                        for reg in sources:
                            if reg in dirty:
                                self._transfer(contour, instr, state)
                                break
                if self._self_requeued:
                    # A write this pass fed a cell the contour itself
                    # reads (own field slot, self-recursive return, own
                    # global): rescan everything with re-joined args.
                    for index, value in enumerate(contour.arg_values):
                        if index < len(state.regs):
                            state.regs[index] = join(state.regs[index], value)
                    dirty = None
                    continue
                if not state.changed:
                    converged = True
                    break
                dirty = state.changed_regs if incremental else None
        finally:
            self._current_cid = None
            self._self_requeued = False
            self._reader = None

        self._cached_regs[cid] = regs
        if not converged:
            # Local pass cap hit with work pending: evaluate again later.
            self._enqueue(cid)

    def _record_contour(self, contour: MethodContour) -> None:
        """Snapshot per-instruction facts for one contour at the fixpoint."""
        callable_ = self.program.lookup_callable(contour.callable_name)
        if callable_ is None:
            return
        cid = contour.id
        info = self._instr_info(callable_)

        if self.config.incremental:
            cached = self._cached_regs.get(cid)
            if cached is None or len(cached) != callable_.num_regs:
                self._evaluate(contour)  # never evaluated
                cached = self._cached_regs.get(cid, [])
            regs = list(cached)
            if len(regs) < callable_.num_regs:
                regs.extend([BOTTOM] * (callable_.num_regs - len(regs)))
            state = _EvalState(regs=regs, record=True)
        else:
            # From-scratch reference: re-derive the registers with full
            # local passes, then sweep once more to snapshot facts.
            regs = [BOTTOM] * callable_.num_regs
            for index, value in enumerate(contour.arg_values):
                if index < len(regs):
                    regs[index] = value
            state = _EvalState(regs=regs)
            self.call_edges[cid] = {}
            self.allocations.setdefault(cid, {})
            for _ in range(self.config.max_local_passes):
                state.changed = False
                for instr, _sources in info:
                    self._transfer(contour, instr, state)
                if not state.changed:
                    break
            state.record = True

        # Replace (never append to) this contour's recorded outputs.
        self._stores[cid] = []
        self._identity_sites[cid] = []
        self._reader = cid
        try:
            for instr, _sources in info:
                self._transfer(contour, instr, state)
        finally:
            self._reader = None

    def _set_reg(self, state: _EvalState, reg: int, value: AbstractVal) -> None:
        merged = join(state.regs[reg], value)
        if merged != state.regs[reg]:
            state.regs[reg] = merged
            state.changed = True
            state.changed_regs.add(reg)

    def _record(self, contour: MethodContour, instr: ir.Instr, **facts: object) -> None:
        self._facts[(contour.id, instr.uid)] = facts

    # ------------------------------------------------------------------
    # Transfer functions.

    def _transfer(self, contour: MethodContour, instr: ir.Instr, state: _EvalState) -> None:
        self._transfers += 1
        regs = state.regs
        kind = type(instr)

        if kind is ir.Const:
            self._set_reg(state, instr.dest, prim_val(const_atom(instr.value)))
        elif kind is ir.Move:
            self._set_reg(state, instr.dest, regs[instr.src])
        elif kind is ir.UnOp:
            self._transfer_unop(instr, state)
        elif kind is ir.BinOp:
            self._transfer_binop(contour, instr, state)
        elif kind is ir.New:
            self._transfer_new(contour, instr, state)
        elif kind is ir.NewArray:
            self._transfer_new_array(contour, instr, state)
        elif kind is ir.GetField:
            self._transfer_get_field(contour, instr, state)
        elif kind is ir.SetField:
            self._transfer_set_field(contour, instr, state)
        elif kind is ir.GetIndex:
            self._transfer_get_index(contour, instr, state)
        elif kind is ir.SetIndex:
            self._transfer_set_index(contour, instr, state)
        elif kind is ir.ArrayLen:
            self._set_reg(state, instr.dest, prim_val(PRIM_INT))
            if state.record:
                self._record(contour, instr, array=regs[instr.array])
        elif kind is ir.CallMethod:
            self._transfer_send(contour, instr, state)
        elif kind is ir.CallStatic:
            self._transfer_call_static(contour, instr, state)
        elif kind is ir.CallFunction:
            self._transfer_call_function(contour, instr, state)
        elif kind is ir.CallBuiltin:
            result_kinds = _BUILTIN_RESULTS.get(instr.builtin_name, _NUMERIC)
            self._set_reg(state, instr.dest, AbstractVal(result_kinds, frozenset()))
        elif kind is ir.GetGlobal:
            self._global_readers.setdefault(instr.name, set()).add(contour.id)
            self._set_reg(state, instr.dest, self.global_values[instr.name])
        elif kind is ir.SetGlobal:
            value = self._gate(regs[instr.src])
            old = self.global_values[instr.name]
            merged = join(old, value)
            if merged != old:
                self.global_values[instr.name] = merged
                for reader in self._global_readers.get(instr.name, ()):
                    self._enqueue(reader)
            if state.record:
                self._record(contour, instr, value=regs[instr.src])
        elif kind is ir.Return:
            if instr.src is not None:
                value = regs[instr.src]
            else:
                value = prim_val(PRIM_NIL)
            merged = join(contour.ret, value)
            if merged != contour.ret:
                contour.ret = merged
                for caller_id, _site in contour.callers:
                    self._enqueue(caller_id)
        elif kind is ir.MakeView:
            # Views only exist post-transformation; the analysis never sees
            # them (analysis runs before rewriting), but stay total anyway.
            self._set_reg(state, instr.dest, regs[instr.array])
        # Jump / Branch: no dataflow effect in a flow-insensitive analysis.

    def _transfer_unop(self, instr: ir.UnOp, state: _EvalState) -> None:
        if instr.op == "!":
            self._set_reg(state, instr.dest, prim_val(PRIM_BOOL))
        else:  # unary minus
            kinds = state.regs[instr.src].prims() & _NUMERIC or _NUMERIC
            self._set_reg(state, instr.dest, AbstractVal(frozenset(kinds), frozenset()))

    def _transfer_binop(
        self, contour: MethodContour, instr: ir.BinOp, state: _EvalState
    ) -> None:
        lhs = state.regs[instr.lhs]
        rhs = state.regs[instr.rhs]
        op = instr.op
        if op in ("==", "!="):
            if state.record and (lhs.may_be_object() or rhs.may_be_object()):
                self._identity_sites[contour.id].append(
                    IdentitySite(
                        contour_id=contour.id,
                        instr_uid=instr.uid,
                        callable_name=contour.callable_name,
                        lhs=lhs,
                        rhs=rhs,
                    )
                )
            self._set_reg(state, instr.dest, prim_val(PRIM_BOOL))
            return
        if op in ("<", "<=", ">", ">="):
            self._set_reg(state, instr.dest, prim_val(PRIM_BOOL))
            return
        # Arithmetic.
        kinds: set[str] = set()
        if op == "+" and PRIM_STR in lhs.atoms and PRIM_STR in rhs.atoms:
            kinds.add(PRIM_STR)
        lhs_num = lhs.prims() & _NUMERIC
        rhs_num = rhs.prims() & _NUMERIC
        if lhs_num or rhs_num or not kinds:
            if PRIM_FLOAT in lhs_num or PRIM_FLOAT in rhs_num:
                kinds.add(PRIM_FLOAT)
            if (PRIM_INT in lhs_num or not lhs_num) and (PRIM_INT in rhs_num or not rhs_num):
                kinds.add(PRIM_INT)
            if not kinds:
                kinds |= _NUMERIC
        self._set_reg(state, instr.dest, AbstractVal(frozenset(kinds), frozenset()))

    # -- allocation ----------------------------------------------------

    def _transfer_new(self, contour: MethodContour, instr: ir.New, state: _EvalState) -> None:
        if instr.class_name not in self.program.classes:
            return
        obj_contour, _created = self.manager.get_object_contour(
            instr.class_name, instr.uid, contour.id, is_array=False
        )
        self.allocations.setdefault(contour.id, {})[instr.uid] = obj_contour.id
        result = make_val({obj_contour.id}, {NOFIELD})
        self._set_reg(state, instr.dest, result)

        # Transformed allocations bind their constructor explicitly via a
        # following CallStatic; no implicit init flows for them.
        resolved = None if instr.skip_init else self.program.resolve_method(
            instr.class_name, "init"
        )
        if resolved is not None:
            defining, init = resolved
            args = [result] + [state.regs[a] for a in instr.args]
            if len(args) == init.num_formals:
                self._flow_call(contour, instr.uid, f"{defining}::{init.method_name}", args, state)
        if state.record:
            self._record(contour, instr, contour_id=obj_contour.id)

    def _transfer_new_array(
        self, contour: MethodContour, instr: ir.NewArray, state: _EvalState
    ) -> None:
        obj_contour, _created = self.manager.get_object_contour(
            ARRAY_CLASS, instr.uid, contour.id, is_array=True
        )
        self.allocations.setdefault(contour.id, {})[instr.uid] = obj_contour.id
        self._set_reg(state, instr.dest, make_val({obj_contour.id}, {NOFIELD}))
        if state.record:
            self._record(contour, instr, contour_id=obj_contour.id)

    # -- field and element access ---------------------------------------

    def _transfer_get_field(
        self, contour: MethodContour, instr: ir.GetField, state: _EvalState
    ) -> None:
        obj = state.regs[instr.obj]
        atoms: set = set()
        tags: set[Tag] = set()
        for cid in obj.object_contours():
            obj_contour = self.manager.object_contours[cid]
            if obj_contour.is_array:
                continue
            if instr.field_name not in self.program.layout(obj_contour.class_name):
                continue
            slot = (cid, instr.field_name)
            content = self._read_slot(slot, contour.id)
            atoms |= content.atoms
            # §4.1 instance-variable-access transfer: the result is tagged
            # with MakeTag(f, t) for every tag t of the accessed object.
            for tag in obj.tags or {NOFIELD}:
                tags.add(make_tag(slot, tag))
        self._set_reg(state, instr.dest, self._gate(make_val(atoms, tags)))
        if state.record:
            self._record(contour, instr, obj=obj, result=state.regs[instr.dest])

    def _transfer_set_field(
        self, contour: MethodContour, instr: ir.SetField, state: _EvalState
    ) -> None:
        obj = state.regs[instr.obj]
        src = state.regs[instr.src]
        for cid in obj.object_contours():
            obj_contour = self.manager.object_contours[cid]
            if obj_contour.is_array:
                continue
            if instr.field_name not in self.program.layout(obj_contour.class_name):
                continue
            self._write_slot((cid, instr.field_name), src)
            if state.record:
                self._stores[contour.id].append(
                    StoreSite(
                        contour_id=contour.id,
                        instr_uid=instr.uid,
                        callable_name=contour.callable_name,
                        container_contour=cid,
                        field_name=instr.field_name,
                        value=src,
                        src_reg=instr.src,
                        obj_reg=instr.obj,
                        is_index=False,
                    )
                )
        if state.record:
            self._record(contour, instr, obj=obj, value=src)

    def _transfer_get_index(
        self, contour: MethodContour, instr: ir.GetIndex, state: _EvalState
    ) -> None:
        array = state.regs[instr.array]
        atoms: set = set()
        tags: set[Tag] = set()
        for cid in array.object_contours():
            obj_contour = self.manager.object_contours[cid]
            if not obj_contour.is_array:
                continue
            slot = (cid, ELEM_FIELD)
            content = self._read_slot(slot, contour.id)
            atoms |= content.atoms
            for tag in array.tags or {NOFIELD}:
                tags.add(make_tag(slot, tag))
        self._set_reg(state, instr.dest, self._gate(make_val(atoms, tags)))
        if state.record:
            self._record(contour, instr, array=array, result=state.regs[instr.dest])

    def _transfer_set_index(
        self, contour: MethodContour, instr: ir.SetIndex, state: _EvalState
    ) -> None:
        array = state.regs[instr.array]
        src = state.regs[instr.src]
        for cid in array.object_contours():
            obj_contour = self.manager.object_contours[cid]
            if not obj_contour.is_array:
                continue
            self._write_slot((cid, ELEM_FIELD), src)
            if state.record:
                self._stores[contour.id].append(
                    StoreSite(
                        contour_id=contour.id,
                        instr_uid=instr.uid,
                        callable_name=contour.callable_name,
                        container_contour=cid,
                        field_name=ELEM_FIELD,
                        value=src,
                        src_reg=instr.src,
                        obj_reg=instr.array,
                        is_index=True,
                    )
                )
        if state.record:
            self._record(contour, instr, array=array, value=src)

    # -- calls -----------------------------------------------------------

    def _flow_call(
        self,
        contour: MethodContour,
        site_uid: int,
        callee_name: str,
        args: list[AbstractVal],
        state: _EvalState,
    ) -> AbstractVal:
        """Bind ``args`` to the callee contour for this signature; returns
        the callee's current return value."""
        callee = self.program.lookup_callable(callee_name)
        if callee is None or len(args) != callee.num_formals:
            return BOTTOM
        gated = [self._gate(value) for value in args]
        callee_contour, created = self.manager.get_method_contour(
            callee_name, gated, callee.is_method
        )
        if callee_contour.join_args(gated) or created:
            self._enqueue(callee_contour.id)
        callee_contour.callers.add((contour.id, site_uid))
        self.call_edges.setdefault(contour.id, {}).setdefault(site_uid, set()).add(
            callee_contour.id
        )
        return callee_contour.ret

    def _transfer_send(
        self, contour: MethodContour, instr: ir.CallMethod, state: _EvalState
    ) -> None:
        recv = state.regs[instr.recv]
        args = [state.regs[a] for a in instr.args]
        result = BOTTOM
        # Group receiver contours by concrete class: one callee contour per
        # dispatch target.
        by_class: dict[str, set[int]] = {}
        for cid in recv.object_contours():
            obj_contour = self.manager.object_contours[cid]
            if obj_contour.is_array:
                continue
            by_class.setdefault(obj_contour.class_name, set()).add(cid)
        for class_name, cids in sorted(by_class.items()):
            resolved = self.program.resolve_method(class_name, instr.method_name)
            if resolved is None:
                continue
            defining, method = resolved
            narrowed = self._gate(make_val(cids, recv.tags))
            ret = self._flow_call(
                contour,
                instr.uid,
                f"{defining}::{method.method_name}",
                [narrowed, *args],
                state,
            )
            result = join(result, ret)
        self._set_reg(state, instr.dest, result)
        if state.record:
            self._record(contour, instr, recv=recv, args=tuple(args))

    def _transfer_call_static(
        self, contour: MethodContour, instr: ir.CallStatic, state: _EvalState
    ) -> None:
        resolved = self.program.resolve_method(instr.class_name, instr.method_name)
        if resolved is None:
            return
        defining, method = resolved
        recv = state.regs[instr.recv]
        args = [recv] + [state.regs[a] for a in instr.args]
        ret = self._flow_call(
            contour, instr.uid, f"{defining}::{method.method_name}", args, state
        )
        self._set_reg(state, instr.dest, ret)
        if state.record:
            self._record(contour, instr, recv=recv, args=tuple(args[1:]))

    def _transfer_call_function(
        self, contour: MethodContour, instr: ir.CallFunction, state: _EvalState
    ) -> None:
        args = [state.regs[a] for a in instr.args]
        ret = self._flow_call(contour, instr.uid, instr.func_name, args, state)
        self._set_reg(state, instr.dest, ret)
        if state.record:
            self._record(contour, instr, args=tuple(args))


def analyze(
    program: ir.IRProgram,
    config: AnalysisConfig | None = None,
    tracer=NULL_TRACER,
) -> AnalysisResult:
    """Run the flow analysis on ``program`` and return its results.

    ``tracer`` (a :class:`repro.obs.Tracer`) records fixpoint/recording
    spans and contour/worklist counters; the default no-op tracer makes
    instrumentation free.
    """
    return FlowAnalysis(program, config, tracer).run()
