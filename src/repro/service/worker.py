"""The CPU-bound half of the compile service.

:func:`service_work` is the process-pool entry point: it receives one
picklable task dict, drives a :class:`repro.Session` through the
requested phase, and ships back a :class:`WorkProduct` — the
JSON-serializable reply payload, the worker's trace shard, and a
metrics snapshot whose timings are read off that shard's spans (the
span is the only timer; see :func:`_record_op_metrics`).  The daemon
encodes the reply once and keeps those bytes in its content-addressed
store.

Two amortization layers stack here:

- The **daemon's artifact store** answers exact ``(op, source, config)``
  repeats without ever reaching a worker.
- Each worker keeps a module-level warm :class:`repro.SessionPool`, so
  near-repeats that *do* reach a worker (same source, different config;
  or an ``analyze`` after an ``optimize``) reuse the parsed IR and the
  analysis fixpoint — the long-lived-optimizer amortization the adaptive
  JIT literature assumes, here per worker process.

Determinism contract: compiles and the simulated VM are deterministic,
so the reply payload of a given ``(op, source, config, build)`` is a
pure function of its key — which is why the daemon may cache replies
and why a warm hit is bit-identical to the cold compile.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from ..analysis import AnalysisConfig
from ..inlining.pipeline import SCALAR_STAGES
from ..obs import MemorySink, MetricsRegistry, Tracer, TraceShard, mint_span_id
from ..runtime import run_program
from ..session import CompileConfig, SessionPool
from .faults import FaultPlan, InjectedFault, draw


def config_from_dict(payload: dict | None) -> CompileConfig:
    """Rebuild a :class:`CompileConfig` from its ``to_dict()`` form.

    Unknown keys are ignored (additive protocol schema); a malformed
    analysis sub-object raises ``TypeError``/``ValueError`` for the
    daemon to turn into an error reply.
    """
    if not payload:
        return CompileConfig()
    fields = {
        name: payload[name]
        for name in (
            "inline",
            "devirtualize",
            "manual_only",
            "inline_methods_pass",
            "escape_pass",
            "cache_loads_pass",
            "dce_pass",
            "max_rounds",
        )
        if name in payload
    }
    analysis = payload.get("analysis")
    if analysis is not None:
        known = {f.name for f in AnalysisConfig.__dataclass_fields__.values()}
        fields["analysis"] = AnalysisConfig(
            **{k: v for k, v in analysis.items() if k in known}
        )
    return CompileConfig(**fields)


@dataclass(slots=True)
class WorkProduct:
    """What one worker ships back for one request."""

    reply: dict
    trace: TraceShard
    #: Metrics-registry snapshot (:meth:`MetricsRegistry.to_dict`) —
    #: worker-side deltas (per-op latency and pipeline stage timings read
    #: off ``trace``'s spans, self-reportable fault kinds) the daemon
    #: folds into its registry.
    metrics: dict | None = None


#: Per-worker-process warm sessions (compiled IR + analysis fixpoints).
_SESSIONS: SessionPool | None = None

#: Per-process fault-draw counter (reproducible chaos given one worker).
_FAULT_COUNTER = 0


def _sessions() -> SessionPool:
    global _SESSIONS
    if _SESSIONS is None:
        _SESSIONS = SessionPool(max_sessions=16)
    return _SESSIONS


def analysis_summary(report) -> dict:
    """The analysis digest an ``analyze`` reply carries (and ``optimize``
    draws its counts from)."""
    manager = report.analysis.manager
    return {
        "method_contours": report.analysis.method_contour_count(),
        "object_contours": report.analysis.object_contour_count(),
        "widened_callables": len(manager.widened_callables),
        "widened_sites": len(manager.widened_sites),
        "accepted": [c.describe() for c in report.plan.accepted()],
        "rejected": len(report.plan.rejected()),
        "replan_rounds": report.replan_rounds,
        "nested_rounds": report.nested_rounds,
    }


def service_work(task: dict) -> WorkProduct:
    """Process-pool entry: one ``analyze``/``optimize``/``run`` request.

    ``task`` keys: ``op``, ``source``, ``path``, ``config`` (dict form),
    ``build`` (run op), ``tenant``, ``allow_test_ops``.
    """
    op = task["op"]
    if op == "crash":
        # Robustness-test op (gated daemon-side): die like a segfaulting
        # worker would — no exception, no cleanup, just a dead process.
        os._exit(1)
    metrics = MetricsRegistry()
    # Chaos mode: the daemon threads its FaultPlan through the task dict
    # (never the environment), so direct in-process calls — the loadgen
    # verify oracle, tests — are never fault-injected.
    plan = FaultPlan.from_dict(task.get("faults"))
    if plan.active:
        global _FAULT_COUNTER
        _FAULT_COUNTER += 1
        # Deterministic per (plan seed, worker pid, request ordinal) so a
        # single-worker chaos run replays identically.
        rng = random.Random(
            plan.seed * 1_000_003 + os.getpid() * 7_919 + _FAULT_COUNTER
        )
        fault = draw(plan, rng)
        if fault == "crash":
            os._exit(1)
        if fault == "error":
            raise InjectedFault(f"injected worker fault (op {op!r})")
        if fault == "hang":
            # The only fault kind a worker can self-report: crash never
            # returns and error raises before any product exists — the
            # daemon attributes those two (see ReproService).
            metrics.counter(
                "service_faults_total", "Injected chaos faults", labels=("kind",)
            ).labels(kind="hang").inc()
            time.sleep(plan.hang_seconds)
    tracer = Tracer(MemorySink())
    config = config_from_dict(task.get("config"))
    session = _sessions().session(
        task["source"], tenant=task.get("tenant", "default"), path=task.get("path")
    )
    report = None
    # The propagated trace context: the daemon's dispatch span is this
    # span's causal parent; the hex ids in the meta survive the trace
    # merge (local integer ids do not) and drive export-time stitching.
    trace_ctx = task.get("trace") or {}
    span_meta: dict = {"op": op, "pid": os.getpid()}
    if trace_ctx.get("trace_id"):
        span_meta["trace_id"] = trace_ctx["trace_id"]
        span_meta["span_id"] = mint_span_id()
        if trace_ctx.get("parent_span"):
            span_meta["parent_span"] = trace_ctx["parent_span"]
    with tracer.span("service.work", **span_meta):
        if op == "analyze":
            report = session.optimize(config, tracer=tracer)
            reply = {"op": op, **analysis_summary(report)}
        elif op == "optimize":
            report = session.optimize(config, tracer=tracer)
            summary = analysis_summary(report)
            stats = report.clone_stats
            reply = {
                "op": op,
                "accepted": summary["accepted"],
                "rejected": summary["rejected"],
                "method_partitions": stats.method_partitions,
                "class_variants": stats.class_variants,
                "view_classes": stats.view_classes,
                "replan_rounds": report.replan_rounds,
                "analysis": {
                    k: summary[k]
                    for k in ("method_contours", "object_contours", "widened_callables")
                },
            }
        elif op == "run":
            build = task.get("build", "inline")
            if build == "plain":
                program = session.compile()
            else:
                report = session.optimize(_build_config(build, config), tracer=tracer)
                program = report.program
            # Budgets make execution hang-proof: a runaway program raises
            # ResourceLimitError, which the daemon answers as a clean
            # error reply instead of a worker timeout kill.
            budgets = {
                name: int(task[name])
                for name in ("max_steps", "max_heap_cells")
                if task.get(name) is not None
            }
            result = run_program(program, tracer=tracer, **budgets)
            reply = {
                "op": op,
                "build": build,
                "output": list(result.output),
                "cycles": result.stats.cycles(),
            }
        else:
            raise ValueError(f"unsupported worker op {op!r}")
    _record_op_metrics(metrics, tracer.span_totals, op, report)
    return WorkProduct(reply=reply, trace=tracer.shard(), metrics=metrics.to_dict())


def _record_op_metrics(
    metrics: MetricsRegistry, span_totals: dict, op: str, report
) -> None:
    """Fill the worker's families from the spans of one op.

    ``span_totals`` is the op's fresh tracer's, so each span named here
    closed at most once.  ``service_worker_op_seconds`` is the
    ``service.work`` span.  The pipeline families are filled only when
    an ``optimize`` span closed, i.e. ``report`` was computed rather
    than memoized: ``pipeline_stage_seconds`` from the ``optimize`` and
    ``opt.<stage>`` spans (a stage's time excludes the ``opt.validate``
    run after it), ``pipeline_stage_degraded_total`` from
    ``report.degraded_stages`` and ``escape_rejects_total`` from the
    escape stage's audit.
    """
    metrics.histogram(
        "service_worker_op_seconds", "Worker wall time per op", labels=("op",)
    ).labels(op=op).observe(span_totals["service.work"][1])
    if "optimize" not in span_totals:
        return
    stage_seconds = metrics.histogram(
        "pipeline_stage_seconds", "Pipeline stage wall time", labels=("stage",)
    )
    stage_seconds.labels(stage="optimize").observe(span_totals["optimize"][1])
    for stage in SCALAR_STAGES:
        total = span_totals.get(f"opt.{stage}")
        if total is not None:
            stage_seconds.labels(stage=stage).observe(total[1])
    for record in report.degraded_stages:
        metrics.counter(
            "pipeline_stage_degraded_total",
            "Scalar stages rolled back after a failure",
            labels=("stage",),
        ).labels(stage=record["stage"]).inc()
    if report.escape_stats is not None:
        rejects = metrics.counter(
            "escape_rejects_total",
            "Escape-analysis sites rejected, by audit stage",
            labels=("stage",),
        )
        for stage, count in report.escape_stats.rejected.items():
            rejects.labels(stage=stage).inc(count)


def _build_config(build: str, config: CompileConfig) -> CompileConfig:
    """The run op's build facet applied to the request config."""
    import dataclasses

    base = {
        "noinline": {"inline": False},
        "inline": {"inline": True},
        "noescape": {"inline": True, "escape_pass": False},
        "manual": {"manual_only": True},
        "opt": {"inline": True, "max_rounds": 3},
    }.get(build)
    if base is None:
        raise ValueError(f"unknown build {build!r}")
    return dataclasses.replace(config, **base)
