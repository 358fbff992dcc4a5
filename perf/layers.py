"""Per-layer metrics from a traced window.

Self times come from the spans the program already records (the
``tracer=`` arguments of ``Session``, the daemon's ``--trace-dir``) plus
the benchmark's own spans around each public call, via
``repro.obs.export``.  Every time and count is per operation: per
program on the batch workloads, per request on the service ones.  A
metric of a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from stats import median, percentile

LAYERS = ("lang", "ir", "analysis", "inlining", "cloning", "opt", "codegen",
          "runtime", "service", "other")
OPT_STAGES = ("inline_methods", "escape", "loadcse", "dce")
SERVICE_SPANS = ("accept", "cache", "dispatch", "work")
SPAN_NAMES = tuple(f"service.{span}" for span in SERVICE_SPANS)

PER_LAYER = (
    "lang.parse_s", "lang.tokens_per_s",
    "ir.lower_s", "ir.instrs",
    "analysis.fixpoint_s", "analysis.record_s", "analysis.worklist_steps",
    "analysis.eval_skip_ratio", "analysis.method_contours",
    "analysis.object_contours", "analysis.cache_hit_ratio",
    "inlining.plan_s", "inlining.replans", "inlining.unspanned_s", "inlining.accept_ratio",
    "cloning.transform_s", "cloning.wasted_transform_ratio",
    "cloning.method_partitions", "cloning.class_variants",
    *(f"opt.{stage}_s" for stage in OPT_STAGES),
    "opt.degraded", "opt.scalar_replaced", "opt.stack_allocated", "opt.loads_eliminated",
    "codegen.generate_s",
    "runtime.run_s", "runtime.minstr_per_s", "runtime.instructions",
    "runtime.heap_reads", "runtime.heap_writes", "runtime.cache_accesses",
    "runtime.cache_misses", "runtime.dynamic_dispatches",
    *(f"runtime.share.{m}" for m in ("interp", "heap", "cache", "values", "other")),
    "norm_cycles_geomean", "code_bytes", "allocations",
    "service.daemon_ms_p50", "service.daemon_ms_p99",
    "service.wire_ms_p50", "service.wire_ms_p99",
    "service.store_hit_ratio", "service.store_evictions", "service.coalesced",
    "service.dispatches", "service.worker_op_ms",
    *(f"service.{span}_ms_{q}" for span in SERVICE_SPANS for q in ("p50", "p99")),
    *(f"share.{layer}" for layer in LAYERS),
    "trace.overhead_ratio",
)


def layer_of(span: str) -> str:
    if span == "bench.parse":
        return "lang"
    if span == "bench.lower":
        return "ir"
    if span == "analyze" or span.startswith("analysis."):
        return "analysis"
    if span in ("plan", "optimize", "nested_round"):
        return "inlining"
    if span == "transform" or span.startswith("transform."):
        return "cloning"
    if span.startswith("opt."):
        return "opt"
    if span == "bench.codegen":
        return "codegen"
    if span in ("run", "bench.run"):
        return "runtime"
    if span.startswith("service.") and span != "service.client":
        return "service"
    return "other"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _op_profile(events: list[dict]):
    """Self seconds by span name, span counts, and the counter deltas of
    one batch operation (the ``bench.program`` span's)."""
    from repro.obs import collapsed_stacks

    self_s: dict[str, float] = defaultdict(float)
    for path, micros in collapsed_stacks(events).items():
        self_s[path[-1]] += micros / 1e6
    ends = [e for e in events if e.get("ev") == "span_end"]
    counts = Counter(e["name"] for e in ends)
    root = next((e for e in reversed(ends) if e["name"] == "bench.program"), {})
    return self_s, counts, root.get("counters", {})


def _fill(metrics: dict, self_s: dict, counts: dict, counters: dict, op_s: float) -> None:
    """The compile and runtime layer metrics from per-operation sums."""
    s, c = defaultdict(float, self_s), defaultdict(int, counters)
    accepted, rejected = c["decisions.accepted"], c["decisions.rejected"]
    run_s = s["run"] + s["bench.run"]
    metrics.update({
        "lang.parse_s": s["bench.parse"],
        "ir.lower_s": s["bench.lower"],
        "analysis.fixpoint_s": s["analysis.fixpoint"],
        "analysis.record_s": s["analysis.record"],
        "analysis.worklist_steps": c["analysis.worklist_steps"],
        "analysis.eval_skip_ratio": _ratio(c["analysis.eval_skips"], c["analysis.worklist_steps"]),
        "analysis.method_contours": c["analysis.method_contours_live"],
        "analysis.object_contours": c["analysis.object_contours_live"],
        "analysis.cache_hit_ratio": _ratio(c["analysis.cache_hits"], counts.get("analyze", 0)),
        "inlining.plan_s": s["plan"],
        "inlining.replans": c["pipeline.replans"],
        "inlining.unspanned_s": s["optimize"],
        "inlining.accept_ratio": _ratio(accepted, accepted + rejected),
        "cloning.transform_s": sum(v for k, v in self_s.items() if layer_of(k) == "cloning"),
        "cloning.wasted_transform_ratio": _ratio(c["pipeline.replans"], counts.get("transform", 0)),
        "cloning.method_partitions": c["transform.method_partitions"],
        "cloning.class_variants": c["transform.class_variants"],
        "opt.degraded": c["pipeline.stage_degraded"],
        "opt.scalar_replaced": c["escape.scalar_replaced"],
        "opt.stack_allocated": c["escape.stack_allocated"],
        "codegen.generate_s": s["bench.codegen"],
        "runtime.run_s": run_s,
        "runtime.minstr_per_s": _ratio(c["run.instructions"], run_s) / 1e6,
    })
    for stage in OPT_STAGES:
        metrics[f"opt.{stage}_s"] = s[f"opt.{stage}"]
    for counter in ("instructions", "heap_reads", "heap_writes", "cache_accesses",
                    "cache_misses", "dynamic_dispatches"):
        metrics[f"runtime.{counter}"] = c[f"run.{counter}"]
    layer_s: dict[str, float] = defaultdict(float)
    for span, seconds in self_s.items():
        layer_s[layer_of(span)] += seconds
    for layer in LAYERS:
        metrics[f"share.{layer}"] = _ratio(layer_s[layer], op_s)


def _per_op(values: list[dict], n: int) -> dict:
    total: dict = defaultdict(float)
    for value in values:
        for key, amount in value.items():
            total[key] += amount
    return {key: amount / n for key, amount in total.items()}


def batch(untraced, traced, quality: dict, tokens: int, shares: dict) -> dict:
    """Per-layer metrics of a batch workload.

    ``untraced``/``traced`` are the two windows; times are per-program
    medians over the traced window, summed and divided by the program
    count; counts are each program's (deterministic) first value.
    """
    by_program: dict[str, list] = defaultdict(list)
    for op in traced.ops:
        if not op.failed:
            by_program[op.program].append(_op_profile(op.events))
    n = len(by_program)
    self_s, counts, counters = [], [], []
    for profiles in by_program.values():
        spans = {name for profile in profiles for name in profile[0]}
        self_s.append({
            name: median([profile[0].get(name, 0.0) for profile in profiles])
            for name in spans
        })
        counts.append(profiles[0][1])
        counters.append(profiles[0][2])
    facts = traced.facts()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    _fill(metrics, _per_op(self_s, n), _per_op(counts, n), _per_op(counters, n),
          traced.pass_s() / n)
    metrics["lang.tokens_per_s"] = _ratio(tokens, n * metrics["lang.parse_s"])
    metrics["ir.instrs"] = sum(f["ir_instrs"] for f in facts.values()) / n
    metrics["opt.loads_eliminated"] = sum(f["loads_eliminated"] for f in facts.values()) / n
    for module, share in shares.items():
        metrics[f"runtime.share.{module}"] = share
    for name, (value, _unit) in quality.items():
        metrics[name] = value
    metrics["trace.overhead_ratio"] = traced.pass_s() / untraced.pass_s()
    return metrics


def service(untraced_extra: dict, delta: dict, untraced_rate: float,
            traced_rate: float, events: list[dict]) -> dict:
    """Per-layer metrics of a service workload from the stitched client,
    daemon and worker spans of the traced window, plus the untraced
    window's reply timings and daemon metrics delta."""
    from repro.obs import build_span_forest

    forest = build_span_forest(events)
    # Only the timed requests: priming and metrics requests have no
    # client span, so their daemon spans stay roots of their own.
    roots = [root for root in forest.roots if root.name == "service.client"]
    n = len(roots)
    counters_of = {
        e["id"]: e.get("counters", {}) for e in events
        if e.get("ev") == "span_end" and e.get("name") == "service.work"
    }
    self_s: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    counters: Counter = Counter()
    by_span: dict[str, list[float]] = defaultdict(list)
    pending = list(roots)
    while pending:
        node = pending.pop()
        self_s[node.name] += node.self_seconds
        counts[node.name] += 1
        if node.name in SPAN_NAMES:
            by_span[node.name].append(node.self_seconds * 1e3)
        counters.update(counters_of.get(node.id, {}))
        pending.extend(node.children)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    _fill(metrics, _per_op([self_s], n), _per_op([counts], n), _per_op([counters], n),
          sum(root.duration for root in roots) / n)
    for span in SERVICE_SPANS:
        samples = by_span.get(f"service.{span}")
        if samples:
            metrics[f"service.{span}_ms_p50"] = percentile(samples, 50)
            metrics[f"service.{span}_ms_p99"] = percentile(samples, 99)
    for name in ("daemon_ms_p50", "daemon_ms_p99", "wire_ms_p50", "wire_ms_p99"):
        metrics[f"service.{name}"] = untraced_extra[name][0]
    hits = delta["service_store_hits_total.value"]
    dispatches = delta["service_worker_op_seconds.count"]
    metrics.update({
        "service.store_hit_ratio": _ratio(hits, hits + delta["service_store_misses_total.value"]),
        "service.store_evictions": delta["service_store_evictions_total.value"],
        "service.coalesced": delta["service_coalesced_total.value"],
        "service.dispatches": dispatches,
        "service.worker_op_ms": _ratio(delta["service_worker_op_seconds.sum"], dispatches) * 1e3,
        "trace.overhead_ratio": _ratio(untraced_rate, traced_rate),
    })
    return metrics
