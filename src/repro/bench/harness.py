"""Benchmark harness: compiles, optimizes, and runs every benchmark in
the three build configurations and collects everything the figures need.

Builds (matching the paper's Figure 17 bars):

- ``noinline`` — Concert without object inlining (devirtualization only).
- ``inline``   — Concert with object inlining.
- ``manual``   — the G++ ``-O2`` proxy: only manually annotated locations
  are inlined.

The (benchmark, build) pairs of the matrix are independent, so
``run_all``/``run_performance_suite`` accept ``jobs=N`` to fan them out
over a process pool.  Each worker owns its tracer and analysis cache and
returns a picklable :class:`_PairResult`; the parent reassembles the
exact :class:`BenchmarkRun` structures of the serial path (same build
order, same divergence checks, same trace-event schema), so figures and
reports are bit-identical either way.  Every build gets its own
single-owner :class:`~repro.obs.Tracer` unconditionally — serial or
parallel — and the per-build events/aggregates are merged into the
caller's tracer at join (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..analysis import AnalysisConfig
from ..codegen import generate
from ..inlining.pipeline import OptimizeReport
from ..ir.model import IRProgram
from ..obs import MemorySink, NULL_TRACER, Tracer, TraceShard
from ..runtime import CacheConfig
from ..runtime.interp import RunResult
from ..session import BUILD_CONFIGS, Session
from .metadata import BenchmarkInfo
from .programs import oopack, polyover, richards, silo

BUILDS = ("noinline", "inline", "manual")

#: The Figure-17 suite additionally runs the escape-ablation build so the
#: report can show what escape analysis removes beyond object inlining.
PERFORMANCE_BUILDS = ("noinline", "inline", "noescape", "manual")

#: name -> (source text, info).  ``polyover`` is the combined program used
#: for Figures 14-16; the array/list splits are separate Figure 17 entries.
BENCHMARKS: dict[str, tuple[str, BenchmarkInfo]] = {
    "oopack": (oopack.SOURCE, oopack.INFO),
    "richards": (richards.SOURCE, richards.INFO),
    "silo": (silo.SOURCE, silo.INFO),
    "polyover": (polyover.SOURCE, polyover.INFO),
}

#: Figure 17 additionally reports polyover's two variants separately.
PERFORMANCE_PROGRAMS: dict[str, str] = {
    "oopack": oopack.SOURCE,
    "richards": richards.SOURCE,
    "silo": silo.SOURCE,
    "polyover (array)": polyover.SOURCE_ARRAY,
    "polyover (list)": polyover.SOURCE_LIST,
}


#: Compile-phase span names surfaced as per-build timing breakdowns.
#: ``analysis.fixpoint``/``analysis.record`` are sub-spans of ``analyze``
#: (the worklist iteration and the fact-recording sweep), broken out so
#: a timing shows which of the two an analysis change moved.
PHASE_NAMES = (
    "analyze",
    "analysis.fixpoint",
    "analysis.record",
    "plan",
    "transform",
    "opt.inline_methods",
    "opt.escape",
    "opt.loadcse",
    "opt.dce",
)


@dataclass(slots=True)
class BuildResult:
    """One build of one benchmark."""

    build: str
    report: OptimizeReport
    run: RunResult
    code_size: int
    optimize_seconds: float
    run_seconds: float
    #: Wall time per compile phase (span name -> seconds), from the tracer.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Bounded locality summaries (``{"labels": ..., "heatmap": ...}``)
    #: when the harness ran with ``locality=True``; plain dicts so the
    #: parallel path ships them across the process pool unchanged.
    locality: dict | None = None

    @property
    def cycles(self) -> int:
        return self.run.stats.cycles()


@dataclass(slots=True)
class BenchmarkRun:
    """All builds of one benchmark, plus the uniform-model reference run."""

    name: str
    info: BenchmarkInfo | None
    program: IRProgram
    reference_output: list[str]
    builds: dict[str, BuildResult] = field(default_factory=dict)

    def speedup(self, build: str) -> float:
        """Speedup of ``build`` over the no-inlining baseline."""
        return self.builds["noinline"].cycles / self.builds[build].cycles

    def normalized_time(self, build: str) -> float:
        """Runtime normalized to Concert-without-inlining (Figure 17)."""
        return self.builds[build].cycles / self.builds["noinline"].cycles


def _phase_seconds(build_tracer: Tracer) -> dict[str, float]:
    """The per-build timing breakdown from a build's own tracer."""
    return {
        phase: totals[1]
        for phase, totals in build_tracer.span_totals.items()
        if phase in PHASE_NAMES
    }


def _build_one(
    session: Session,
    name: str,
    build: str,
    cache_config: CacheConfig | None,
    parent_tracer=NULL_TRACER,
    locality: bool = False,
) -> tuple[BuildResult, Tracer]:
    """Optimize and execute one build with its own single-owner tracer.

    The build tracer is unconditional: phase attribution comes straight
    from its ``span_totals`` (no snapshot diffing against a shared
    tracer, which double-counts as soon as builds overlap in time).  The
    caller merges the returned tracer into its own if it wants the event
    stream.

    With ``locality=True`` the run attributes every cache access to a
    ``(kind, class, field, site)`` label; the bounded summaries land on
    ``BuildResult.locality`` (and, via the build tracer, in the merged
    event stream as ``run.locality``/``run.heatmap``).
    """
    build_tracer = parent_tracer.child() if parent_tracer.enabled else Tracer()
    started = time.perf_counter()
    with build_tracer.span("bench.build", benchmark=name, build=build):
        report = session.optimize(BUILD_CONFIGS[build], tracer=build_tracer)
        optimized_at = time.perf_counter()
        run = session.run(
            build, cache_config, tracer=build_tracer, attribute_locality=locality
        )
    finished = time.perf_counter()
    locality_summary = None
    if run.stats.locality is not None:
        locality_summary = {
            "labels": run.stats.locality.label_summary(),
            "heatmap": run.stats.locality.heatmap_summary(),
        }
    result = BuildResult(
        build=build,
        report=report,
        run=run,
        code_size=generate(report.program).size_bytes,
        optimize_seconds=optimized_at - started,
        run_seconds=finished - optimized_at,
        phase_seconds=_phase_seconds(build_tracer),
        locality=locality_summary,
    )
    return result, build_tracer


def _check_output(
    name: str, build: str, run: RunResult, reference_output: list[str]
) -> None:
    if run.output != reference_output:
        raise AssertionError(
            f"{name}/{build}: transformed program output diverged:\n"
            f"  expected {reference_output}\n  actual   {run.output}"
        )


def run_benchmark(
    name: str,
    source: str,
    info: BenchmarkInfo | None = None,
    builds: tuple[str, ...] = BUILDS,
    cache_config: CacheConfig | None = None,
    config: AnalysisConfig | None = None,
    tracer=NULL_TRACER,
    locality: bool = False,
) -> BenchmarkRun:
    """Compile, optimize, and execute one benchmark in each build.

    Per-phase compile times are always collected (every build runs under
    its own in-memory tracer) and land in ``BuildResult.phase_seconds``;
    pass a real ``tracer`` to also receive the merged full event log.
    ``locality=True`` additionally attributes cache misses per build
    (see :func:`_build_one`).
    """
    # All builds analyze the same source program; the session's shared
    # analysis cache means builds with identical (program, config) pairs
    # reuse one fixpoint outright.
    session = Session(source, path=f"{name}.icc", config=config)
    program = session.compile()
    reference = session.run("plain", cache_config)
    bench = BenchmarkRun(
        name=name,
        info=info,
        program=program,
        reference_output=list(reference.output),
    )
    for build in builds:
        result, build_tracer = _build_one(
            session, name, build, cache_config, tracer, locality=locality
        )
        if tracer.enabled:
            tracer.merge(build_tracer)
        _check_output(name, build, result.run, bench.reference_output)
        bench.builds[build] = result
    return bench


# ----------------------------------------------------------------------
# The parallel matrix: (benchmark, build) pairs over a process pool.


@dataclass(slots=True)
class _PairResult:
    """What one worker ships back for one (benchmark, build) pair."""

    name: str
    build: str
    result: BuildResult
    trace: TraceShard
    #: Only the anchor pair of each benchmark carries the compiled
    #: program and the uniform-model reference output (see _run_matrix).
    program: IRProgram | None = None
    reference_output: list[str] | None = None


def _anchor_build(builds: tuple[str, ...]) -> str:
    """The build whose worker also provides the benchmark's program and
    reference output.

    It must be the ``inline`` build when present: instruction uids come
    from a process-global counter, so ``BenchmarkRun.program`` is only
    uid-consistent with the Figure-14 candidate plan if both come from
    the same worker's compile.
    """
    return "inline" if "inline" in builds else builds[0]


def _run_pair_worker(
    task: tuple[
        str, str, str, bool, CacheConfig | None, AnalysisConfig | None, bool
    ],
) -> _PairResult:
    """Process-pool entry: one (benchmark, build) pair, own tracer/cache."""
    name, source, build, is_anchor, cache_config, config, locality = task
    tracer = Tracer(MemorySink())
    session = Session(source, path=f"{name}.icc", config=config)
    program = session.compile()
    reference_output = None
    if is_anchor:
        reference_output = list(session.run("plain", cache_config).output)
    result, build_tracer = _build_one(
        session, name, build, cache_config, tracer, locality=locality
    )
    tracer.merge(build_tracer)
    return _PairResult(
        name=name,
        build=build,
        result=result,
        trace=tracer.shard(),
        program=program if is_anchor else None,
        reference_output=reference_output,
    )


def _run_matrix(
    specs: dict[str, tuple[str, BenchmarkInfo | None]],
    builds: tuple[str, ...],
    jobs: int,
    cache_config: CacheConfig | None = None,
    config: AnalysisConfig | None = None,
    tracer=NULL_TRACER,
    locality: bool = False,
) -> dict[str, BenchmarkRun]:
    """Run a benchmark × build matrix on ``jobs`` worker processes.

    Results are reassembled in the serial path's deterministic order
    (spec order, then build order) regardless of completion order, the
    same divergence assertion runs at join, and every worker's trace
    shard is merged into ``tracer`` — so every downstream consumer sees
    data identical to a serial run.  Note that pair granularity means a
    worker cannot reuse another build's analysis fixpoint (each owns its
    cache), so per-phase *timings* differ from a serial run even though
    every figure-visible quantity is identical.
    """
    anchor = _anchor_build(builds)
    tasks = [
        (name, source, build, build == anchor, cache_config, config, locality)
        for name, (source, _info) in specs.items()
        for build in builds
    ]
    pairs: dict[tuple[str, str], _PairResult] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        for pair in pool.map(_run_pair_worker, tasks):
            pairs[(pair.name, pair.build)] = pair
    runs: dict[str, BenchmarkRun] = {}
    for name, (_source, info) in specs.items():
        anchor_pair = pairs[(name, anchor)]
        bench = BenchmarkRun(
            name=name,
            info=info,
            program=anchor_pair.program,
            reference_output=anchor_pair.reference_output,
        )
        for build in builds:
            pair = pairs[(name, build)]
            _check_output(name, build, pair.result.run, bench.reference_output)
            bench.builds[build] = pair.result
            if tracer.enabled:
                tracer.merge(pair.trace)
        runs[name] = bench
    return runs


def run_named(name: str, builds: tuple[str, ...] = BUILDS, **kwargs) -> BenchmarkRun:
    """Run one of the four paper benchmarks by name."""
    source, info = BENCHMARKS[name]
    return run_benchmark(name, source, info, builds, **kwargs)


def run_all(
    builds: tuple[str, ...] = BUILDS, jobs: int = 1, **kwargs
) -> dict[str, BenchmarkRun]:
    """Run every Figure 14-16 benchmark (``jobs > 1`` fans the pairs out)."""
    if jobs > 1:
        return _run_matrix(dict(BENCHMARKS), builds, jobs, **kwargs)
    return {
        name: run_named(name, builds, **kwargs) for name in BENCHMARKS
    }


def run_performance_suite(jobs: int = 1, **kwargs) -> dict[str, BenchmarkRun]:
    """Run the Figure 17 program set (polyover split by variant)."""
    specs = {
        name: (source, BENCHMARKS.get(name, (None, None))[1])
        for name, source in PERFORMANCE_PROGRAMS.items()
    }
    if jobs > 1:
        return _run_matrix(specs, PERFORMANCE_BUILDS, jobs, **kwargs)
    results: dict[str, BenchmarkRun] = {}
    for name, (source, info) in specs.items():
        results[name] = run_benchmark(name, source, info, PERFORMANCE_BUILDS, **kwargs)
    return results
