"""The end-to-end object-inlining pipeline and the library's main entry
points.

Three build configurations mirror the paper's evaluation bars:

- ``optimize(program, inline=False)`` — Concert **without** object
  inlining: the same analysis + cloning machinery, used only for
  type-directed devirtualization.
- ``optimize(program, inline=True)`` — Concert **with** object inlining
  (the paper's contribution).
- ``optimize(program, manual_only=True)`` — the G++ ``-O2`` proxy:
  inline only what the programmer annotated (``var inline f;`` /
  ``inline_array(n)``), still subject to the safety analyses.

When the cloning stage cannot emit a plan consistently (a dynamic
dispatch would need two clones under one name, a value may be either an
inline array or a plain one, ...), the conflicting candidates are
rejected and the pipeline replans — the moral equivalent of the paper's
iterative caller splitting, with rejection as the sound fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..analysis import (
    AnalysisCache,
    AnalysisConfig,
    AnalysisResult,
    SENSITIVITY_CONCERT,
    analyze,
)
from ..cloning.emit import CloneStats, TransformOutcome, transform_program
from ..opt.dce import DCEStats, eliminate_dead_code
from ..opt.escape import EscapeStats, apply_escape_optimization
from ..opt.inliner import InlinerStats, inline_methods
from ..opt.loadcse import LoadCSEStats, eliminate_redundant_loads
from ..ir import model as ir
from ..ir.validate import validate_program
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from .decisions import Candidate, DecisionEngine, InlinePlan

MAX_REPLAN_ROUNDS = 8


@dataclass(slots=True)
class OptimizeReport:
    """Everything produced by one optimization run."""

    program: ir.IRProgram
    analysis: AnalysisResult
    plan: InlinePlan
    clone_stats: CloneStats
    replan_rounds: int
    inliner_stats: InlinerStats | None = None
    escape_stats: EscapeStats | None = None
    cse_stats: LoadCSEStats | None = None
    dce_stats: DCEStats | None = None
    #: Total optimization rounds run (``max_rounds`` > 1 enables nested
    #: inlining: the pipeline re-analyzes the transformed program and
    #: inlines newly exposed container fields, innermost first).
    nested_rounds: int = 1
    #: describe() of candidates accepted in rounds after the first.
    nested_candidates: list[str] = field(default_factory=list)
    #: Scalar stages that failed and were rolled back (graceful
    #: degradation): ``{"stage": name, "error": "Type: message"}``.
    degraded_stages: list[dict] = field(default_factory=list)

    def accepted_candidates(self) -> list[Candidate]:
        return self.plan.accepted()

    def rejected_candidates(self) -> list[Candidate]:
        return self.plan.rejected()


class ReplanLimitExceeded(Exception):
    """The conflict-replan loop failed to converge (a compiler bug)."""


def _declared_inline_sites(program: ir.IRProgram) -> set[int]:
    """NewArray uids carrying the manual ``inline_array`` annotation."""
    sites: set[int] = set()
    for callable_ in program.callables():
        for instr in callable_.instructions():
            if isinstance(instr, ir.NewArray) and instr.declared_inline:
                sites.add(instr.uid)
    return sites


def candidate_is_declared_inline(program: ir.IRProgram, candidate: Candidate) -> bool:
    """Whether the manual C++ programmer marked this location inline."""
    if candidate.kind == "field":
        cls = program.classes.get(candidate.declaring_class)
        return cls is not None and candidate.field_name in cls.inline_fields
    return candidate.site_uid in _declared_inline_sites(program)


def _emit_round_decisions(tracer, plan: InlinePlan, round_index: int, nested_round: int) -> None:
    """Intermediate per-round verdicts (``decision.round`` events).

    One event per candidate per replan round, so a multi-round run can be
    audited round-by-round from a single JSONL trace; the final verdicts
    still land as ``decision`` events.
    """
    if not tracer.enabled:
        return
    for candidate in plan.candidates.values():
        tracer.event(
            "decision.round",
            round=round_index,
            nested_round=nested_round,
            **candidate.decision_record(),
        )


def _optimize_core(
    program: ir.IRProgram,
    inline: bool,
    devirtualize: bool,
    manual_only: bool,
    config: AnalysisConfig,
    containment_preference: str,
    tracer=NULL_TRACER,
    analysis_cache: AnalysisCache | None = None,
    nested_round: int = 1,
) -> tuple[TransformOutcome, "AnalysisResult", InlinePlan, int]:
    """One analyze → decide → transform round (no scalar passes)."""
    if not inline and not manual_only:
        config = config.with_sensitivity(SENSITIVITY_CONCERT)
    cached = analysis_cache.get(program, config) if analysis_cache is not None else None
    with tracer.span("analyze", cached=cached is not None):
        if cached is not None:
            tracer.count("analysis.cache_hits")
            result = cached
        else:
            result = analyze(program, config, tracer)
            if analysis_cache is not None:
                analysis_cache.put(program, config, result)
    with tracer.span("plan"):
        plan = DecisionEngine(result, containment_preference).plan()

    if not inline and not manual_only:
        for candidate in plan.candidates.values():
            candidate.reject("object inlining disabled", stage="policy")
    elif manual_only:
        for candidate in plan.candidates.values():
            if candidate.accepted and not candidate_is_declared_inline(program, candidate):
                candidate.reject("not declared inline in the source", stage="policy")

    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_REPLAN_ROUNDS:
            raise ReplanLimitExceeded(
                "transformation kept conflicting after "
                f"{MAX_REPLAN_ROUNDS} replanning rounds"
            )
        # Verdicts as they stand entering this transform attempt (round 1:
        # the post-policy plan; later rounds: after conflict rejections).
        _emit_round_decisions(tracer, plan, rounds, nested_round)
        with tracer.span("transform", round=rounds):
            outcome: TransformOutcome = transform_program(
                result, plan, devirtualize, tracer
            )
        if outcome.program is not None:
            break
        if not outcome.conflicts:
            raise ReplanLimitExceeded("transformation failed without naming conflicts")
        tracer.count("pipeline.replans")
        for key in outcome.conflicts:
            candidate = plan.candidates.get(key)
            if candidate is not None:
                candidate.reject(
                    "cloning conflict (dynamic dispatch or mixed site)", stage="replan"
                )

    # The decision trace: one structured event per candidate, final verdict,
    # tagged with the replan round that settled it and the nesting depth.
    if tracer.enabled:
        for candidate in plan.candidates.values():
            tracer.event(
                "decision",
                round=rounds,
                nested_round=nested_round,
                **candidate.decision_record(),
            )
        tracer.count("decisions.accepted", len(plan.accepted()))
        tracer.count("decisions.rejected", len(plan.rejected()))

    with tracer.span("opt.validate"):
        validate_program(outcome.program)
    return outcome, result, plan, rounds


def _reanalyzable(program: ir.IRProgram) -> bool:
    """Whether the flow analysis can soundly model this (transformed)
    program for another inlining round.

    Element views (inlined arrays) and embedded-array access are runtime
    constructs the analysis does not model; their presence ends the
    multi-round loop conservatively.
    """
    for callable_ in program.callables():
        for instr in callable_.instructions():
            if isinstance(
                instr, (ir.MakeView, ir.GetFieldIndexed, ir.SetFieldIndexed)
            ):
                return False
            if isinstance(instr, ir.NewArray) and instr.inline_layout:
                return False
    return True


def optimize(
    program: ir.IRProgram,
    inline: bool = True,
    devirtualize: bool = True,
    manual_only: bool = False,
    inline_methods_pass: bool = True,
    escape_pass: bool = True,
    cache_loads_pass: bool = True,
    dce_pass: bool = True,
    max_rounds: int = 1,
    config: AnalysisConfig | None = None,
    tracer=NULL_TRACER,
    analysis_cache: AnalysisCache | None = None,
    metrics=NULL_METRICS,
) -> OptimizeReport:
    """Analyze and transform ``program``; returns the new program + report.

    ``inline_methods_pass`` and ``cache_loads_pass`` control the classic
    scalar optimizations applied in *every* build (the Concert compiler
    ran them regardless of object inlining); they exist as switches for
    the ablation benchmarks.

    ``escape_pass`` runs the connection-graph escape analysis after
    method inlining and scalar-replaces or frame-allocates the no-escape
    sites — the allocation-removal axis object inlining cannot reach
    (objects that are never stored anywhere).  Its decisions land in the
    same audit stream as the inlining candidates (kind ``escape``).

    ``max_rounds > 1`` enables **nested object inlining** (the paper's
    future-work direction): the pipeline prefers innermost candidates,
    re-analyzes the transformed program, and inlines the newly exposed
    container fields — flattening ``outer.mid.point`` chains completely.
    The loop ends when a round accepts nothing, the program acquires
    constructs the analysis cannot re-model (inlined arrays), or
    ``max_rounds`` is reached.  The input program is not modified.

    ``tracer`` (a :class:`repro.obs.Tracer`) times every phase (analyze /
    plan / transform / scalar passes, per replan and nested round) and
    records the full decision trace; the default no-op tracer costs
    nothing.

    ``analysis_cache`` (an :class:`repro.analysis.AnalysisCache`) memoizes
    analysis results by (program, config) across this and other
    ``optimize`` calls — e.g. the three benchmark builds of one program,
    or a :class:`repro.Session`'s repeated pipelines.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) receives
    per-stage wall-time histograms, degradation counts, and the escape
    pass's reject-stage totals.  The default :data:`NULL_METRICS` costs
    nothing: all instrumentation is behind ``metrics.enabled`` guards.
    """
    config = config or AnalysisConfig()
    optimize_started = time.perf_counter() if metrics.enabled else 0.0
    nesting = max_rounds > 1 and inline and not manual_only
    preference = "inner" if nesting else "outer"

    with tracer.span(
        "optimize", inline=inline, manual_only=manual_only, max_rounds=max_rounds
    ):
        outcome, result, plan, replans = _optimize_core(
            program,
            inline,
            devirtualize,
            manual_only,
            config,
            preference,
            tracer,
            analysis_cache,
        )
        nested_rounds = 1
        nested_accepted: list[str] = []
        while (
            nesting
            and nested_rounds < max_rounds
            and plan_has_acceptances(plan)
            and _reanalyzable(outcome.program)
        ):
            with tracer.span("nested_round", number=nested_rounds + 1):
                next_outcome, _result, next_plan, _replans = _optimize_core(
                    outcome.program,
                    inline,
                    devirtualize,
                    manual_only,
                    config,
                    preference,
                    tracer,
                    analysis_cache,
                    nested_round=nested_rounds + 1,
                )
            accepted = next_plan.accepted()
            if not accepted:
                break
            nested_rounds += 1
            tracer.count("pipeline.nested_rounds")
            nested_accepted.extend(c.describe() for c in accepted)
            outcome = next_outcome
            # Keep the first round's analysis/plan in the report (they describe
            # the source program); later rounds only contribute their programs.

        inliner_stats = None
        escape_stats = None
        cse_stats = None
        dce_stats = None
        degraded_stages: list[dict] = []
        if analysis_cache is not None:
            # The scalar passes below mutate the program in place; any
            # analysis cached for it (a nested round that accepted nothing
            # leaves its analyzed program as the final one) would go stale.
            analysis_cache.discard(outcome.program)

        def _bracket(stage: str, span: str, fn):
            """Run one scalar stage in an isolated try/verify bracket.

            The stage mutates ``outcome.program`` in place; on an
            exception — from the stage itself or from the IR validation
            after it — the pre-stage snapshot becomes the program, a
            ``stage.degraded`` event is emitted, and compilation
            continues with the remaining stages.  A transform bug thus
            yields a slower-but-correct build, never a crashed Session
            (or daemon worker).  The snapshot is structural
            (:func:`~repro.ir.model.copy_program`): passes replace
            instructions and mutate only containers, so the immutable
            instructions can be shared.
            """
            with tracer.span("opt.snapshot"):
                snapshot = ir.copy_program(outcome.program)
            stage_started = time.perf_counter() if metrics.enabled else 0.0
            try:
                with tracer.span(span):
                    stats = fn(outcome.program)
                with tracer.span("opt.validate"):
                    validate_program(outcome.program)
                return stats
            except Exception as exc:  # noqa: BLE001 — any stage failure degrades
                outcome.program = snapshot
                record = {
                    "stage": stage,
                    "error": f"{type(exc).__name__}: {exc}",
                }
                degraded_stages.append(record)
                tracer.event("stage.degraded", **record)
                tracer.count("pipeline.stage_degraded")
                if metrics.enabled:
                    metrics.counter(
                        "pipeline_stage_degraded_total",
                        "Scalar stages rolled back after a failure",
                        labels=("stage",),
                    ).labels(stage=stage).inc()
                return None
            finally:
                if metrics.enabled:
                    metrics.histogram(
                        "pipeline_stage_seconds",
                        "Pipeline stage wall time",
                        labels=("stage",),
                    ).labels(stage=stage).observe(time.perf_counter() - stage_started)

        if inline_methods_pass:
            inliner_stats = _bracket(
                "inline_methods", "opt.inline_methods", inline_methods
            )
        if escape_pass:
            escape_stats = _bracket(
                "escape",
                "opt.escape",
                lambda program: apply_escape_optimization(
                    program, splice_inits=inline_methods_pass
                ),
            )
            if escape_stats is not None and tracer.enabled:
                for record in escape_stats.decisions:
                    tracer.event("decision", **record)
                tracer.count("escape.sites", escape_stats.sites)
                tracer.count("escape.scalar_replaced", escape_stats.scalar_replaced)
                tracer.count("escape.stack_allocated", escape_stats.stack_allocated)
                tracer.count("escape.local_hits", escape_stats.local_hits)
                tracer.count("escape.local_misses", escape_stats.local_misses)
            if escape_stats is not None and metrics.enabled:
                rejects = metrics.counter(
                    "escape_rejects_total",
                    "Escape-analysis sites rejected, by audit stage",
                    labels=("stage",),
                )
                for stage_name, count in escape_stats.rejected.items():
                    rejects.labels(stage=stage_name).inc(count)
        if cache_loads_pass:
            cse_stats = _bracket("loadcse", "opt.loadcse", eliminate_redundant_loads)
        if dce_pass:
            dce_stats = _bracket("dce", "opt.dce", eliminate_dead_code)
    if metrics.enabled:
        metrics.histogram(
            "pipeline_stage_seconds",
            "Pipeline stage wall time",
            labels=("stage",),
        ).labels(stage="optimize").observe(time.perf_counter() - optimize_started)
    return OptimizeReport(
        program=outcome.program,
        analysis=result,
        plan=plan,
        clone_stats=outcome.stats,
        replan_rounds=replans,
        inliner_stats=inliner_stats,
        escape_stats=escape_stats,
        cse_stats=cse_stats,
        dce_stats=dce_stats,
        nested_rounds=nested_rounds,
        nested_candidates=nested_accepted,
        degraded_stages=degraded_stages,
    )


def plan_has_acceptances(plan: InlinePlan) -> bool:
    return bool(plan.accepted())
