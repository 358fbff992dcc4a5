"""The batch workloads: ``fig17`` (run time of the generated code) and
``compile`` (compile time).

One operation takes one program from source text to checked results,
calling each layer's public entry point from outside:
``repro.lang.parse_program``, ``repro.ir.lower_program``, a fresh
``Session`` for ``optimize`` (and, on ``fig17``, ``run``) per build, and
``repro.codegen.generate`` for the inline build's code size.  A window
repeats passes over the workload's programs until ``seconds`` have
passed and every program was measured at least once; each program's
time is the median of its operations, so a partial last pass does not
change the mix.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import corpus
from stats import geomean, median, percentile

#: Steps one check run of the ``compile`` workload may take.
STEP_BUDGET = 2_000_000
COMPILE_BUILDS = ("noinline", "inline", "noescape", "manual", "opt")
#: Builds the ``compile`` workload runs, outside the timed operation, to
#: compare outputs (noinline also gives the cycle baseline).
CHECK_BUILDS = ("plain", "noinline", "inline", "opt")
#: Programs of the ``--scale smoke`` runs, which only check the plumbing.
SMOKE_FIG17 = ("oopack", "silo")
SMOKE_COMPILE = 10


@dataclass(slots=True)
class Op:
    """One measured operation."""

    program: str
    op_s: float
    compile_s: float
    run_s: float
    #: ``optimize`` time of each build.
    build_s: dict
    #: Why the operation failed, or ``None``.
    error: str | None
    #: Deterministic results: cycles per build, inline allocations and
    #: code bytes, IR instructions, loads eliminated.
    facts: dict
    #: The operation's trace events (traced windows only).
    events: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(slots=True)
class Window:
    ops: list[Op]

    def medians(self, attribute: str) -> dict[str, float]:
        samples: dict[str, list[float]] = {}
        for op in self.ops:
            samples.setdefault(op.program, []).append(getattr(op, attribute))
        return {program: median(values) for program, values in samples.items()}

    def pass_s(self, attribute: str = "op_s") -> float:
        """Wall time of one pass: the sum of the per-program medians."""
        return sum(self.medians(attribute).values())

    def facts(self) -> dict[str, dict]:
        first: dict[str, dict] = {}
        for op in self.ops:
            if not op.failed:
                first.setdefault(op.program, op.facts)
        return first


class FrameSampler:
    """Samples the main thread's innermost frame at about 200 Hz inside
    :meth:`sampling` blocks, counting samples by ``repro.runtime`` module."""

    MODULES = ("interp", "heap", "cache", "values")

    def __init__(self, interval: float = 0.005) -> None:
        self.active = False
        self.counts: Counter = Counter()
        self._interval = interval
        self._target = threading.get_ident()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "FrameSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @contextlib.contextmanager
    def sampling(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            if self.active:
                frame = sys._current_frames().get(self._target)
                self.counts[self.classify(frame)] += 1

    @classmethod
    def classify(cls, frame) -> str:
        if frame is None:
            return "other"
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "runtime" and path.stem in cls.MODULES:
            return path.stem
        return "other"

    def shares(self) -> dict[str, float]:
        total = sum(self.counts.values())
        return {
            module: (self.counts[module] / total if total else 0.0)
            for module in self.MODULES + ("other",)
        }


class BatchWorkload:
    """``per_build_latency`` makes every build of every operation one
    latency sample: ``compile``'s 121 programs would otherwise give a p99
    that is just its second-largest program, and its ~1,000 build
    samples per window leave over ten beyond p99.  ``fig17`` takes each
    program's median: its five programs run different numbers of times."""

    def __init__(
        self,
        name: str,
        sources: dict[str, str],
        builds: tuple[str, ...],
        run_builds: tuple[str, ...],
        check_builds: tuple[str, ...] = (),
        per_build_latency: bool = False,
    ) -> None:
        self.name = name
        self.sources = sources
        self.builds = builds
        self.run_builds = run_builds
        self.check_builds = check_builds
        self.per_build_latency = per_build_latency
        self.expected = corpus.load_expected()
        self._reported_errors = 0

    # ------------------------------------------------------------------

    def measure(self, seconds: float, tracer=None, sink=None, sampler=None) -> Window:
        """One full pass, then more passes for ``seconds`` in all.

        After the first pass a program is only run again if its last run
        fits in the time left, so the window ends on time and the short
        programs, whose single runs are the noisiest, get more samples.
        """
        ops: list[Op] = []
        last: dict[str, float] = {}
        deadline = time.perf_counter() + seconds
        while True:
            ran = False
            for program, source in self.sources.items():
                if program in last and time.perf_counter() + last[program] > deadline:
                    continue
                first_event = len(sink.events) if sink is not None else 0
                begun = time.perf_counter()
                op = self.operation(program, source, tracer, sampler)
                last[program] = time.perf_counter() - begun
                if sink is not None:
                    op.events = sink.events[first_event:]
                ops.append(op)
                ran = True
            if not ran:
                return Window(ops)

    def operation(self, name: str, source: str, tracer=None, sampler=None) -> Op:
        from repro.codegen import generate
        from repro.ir import lower_program
        from repro.lang import parse_program
        from repro.obs import NULL_TRACER
        from repro.session import BUILD_CONFIGS, Session

        tracer = tracer or NULL_TRACER
        sampling = sampler.sampling if sampler is not None else contextlib.nullcontext
        clock = time.perf_counter
        build_s: dict[str, float] = {}
        try:
            started = clock()
            with tracer.span("bench.program", program=name):
                with tracer.span("bench.parse"):
                    tree = parse_program(source, f"{name}.icc")
                with tracer.span("bench.lower"):
                    program = lower_program(tree)
                session = Session(program=program, tracer=tracer)
                reports = {}
                for build in self.builds:
                    mark = clock()
                    with tracer.span("bench.optimize", build=build):
                        reports[build] = session.optimize(BUILD_CONFIGS[build])
                    build_s[build] = clock() - mark
                compiled = clock()
                runs = {}
                for build in self.run_builds:
                    with tracer.span("bench.run", build=build), sampling():
                        runs[build] = session.run(build)
                ran = clock()
                with tracer.span("bench.codegen"):
                    code_bytes = generate(reports["inline"].program).size_bytes
            finished = clock()
            # Checks run outside the timed operation.
            runs.update(
                (build, session.run(build, tracer=NULL_TRACER, max_steps=STEP_BUDGET))
                for build in self.check_builds
            )
            error = self._output_error(name, runs)
        except Exception as exc:  # noqa: BLE001 — a failed operation is counted, not fatal
            self._report_error(name)
            return Op(name, 0.0, 0.0, 0.0, {}, f"{type(exc).__name__}: {exc}", {})
        facts = {
            "cycles": {build: run.stats.cycles() for build, run in runs.items()},
            "allocations": runs["inline"].stats.allocations,
            "code_bytes": code_bytes,
            "ir_instrs": sum(
                sum(1 for _ in callable_.instructions())
                for callable_ in program.callables()
            ),
            "loads_eliminated": sum(
                report.cse_stats.loads_eliminated
                for report in reports.values()
                if report.cse_stats is not None
            ),
        }
        return Op(
            name, finished - started, compiled - started, ran - compiled, build_s,
            error, facts,
        )

    def _output_error(self, name: str, runs: dict) -> str | None:
        """Which build's output differs from the recorded one, or else
        from the plain build's."""
        recorded = self.expected.get(name)
        if recorded is not None:
            reference = recorded["noinline"]["output"]
        else:
            reference = list(runs["plain"].output)
        for build, run in runs.items():
            if list(run.output) != reference:
                return f"output of the {build} build differs"
        return None

    def _report_error(self, name: str) -> None:
        self._reported_errors += 1
        if self._reported_errors <= 3:
            print(f"{self.name}: operation on {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    # ------------------------------------------------------------------

    def results(self, window: Window) -> tuple[dict, dict]:
        """End-to-end metrics and the workload's own extra metrics."""
        if self.per_build_latency:
            latencies = [s for op in window.ops for s in op.build_s.values()]
        else:
            latencies = list(window.medians("op_s").values())
        pass_s = window.pass_s()
        e2e = {
            "throughput_ops_s": len(self.sources) / pass_s,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p99_ms": percentile(latencies, 99) * 1e3,
        }
        extra = {
            "pass_s": (pass_s, "s"),
            "compile_s": (window.pass_s("compile_s"), "s"),
            "passes": (len(window.ops) / len(self.sources), "count"),
        }
        if self.run_builds:
            extra["run_s"] = (window.pass_s("run_s"), "s")
        extra.update(quality(window.facts()))
        if self.name == "fig17":
            reference = quality(self._expected_facts())
            for metric, (value, unit) in list(extra.items()):
                if metric in reference:
                    extra[f"{metric}.delta"] = (value - reference[metric][0], unit)
        return e2e, extra

    def _expected_facts(self) -> dict[str, dict]:
        return {
            name: {
                "cycles": {b: self.expected[name][b]["cycles"] for b in corpus.FIG17_BUILDS},
                "allocations": self.expected[name]["inline"]["allocations"],
                "code_bytes": self.expected[name]["inline"]["code_bytes"],
            }
            for name in self.sources
        }


def quality(facts: dict[str, dict]) -> dict:
    """The exact metrics of the generated code (inline builds)."""
    if not facts:
        return {}
    return {
        "norm_cycles_geomean": (
            geomean(f["cycles"]["inline"] / f["cycles"]["noinline"] for f in facts.values()),
            "ratio",
        ),
        "code_bytes": (sum(f["code_bytes"] for f in facts.values()), "bytes"),
        "allocations": (sum(f["allocations"] for f in facts.values()), "count"),
    }


def make(name: str, seed: int, smoke: bool) -> BatchWorkload:
    if name == "fig17":
        sources = corpus.fig17_sources()
        if smoke:
            sources = {n: sources[n] for n in SMOKE_FIG17}
        return BatchWorkload(name, sources, corpus.FIG17_BUILDS, corpus.FIG17_BUILDS)
    sources = corpus.compile_sources(seed)
    if smoke:
        sources = dict(list(sources.items())[1 : SMOKE_COMPILE + 1])
    return BatchWorkload(
        name, sources, COMPILE_BUILDS, (), CHECK_BUILDS, per_build_latency=True
    )


def record() -> None:
    """Rewrite ``expected/`` from the current program (a benchmark change).

    Records the Figure-17 outputs, cycles, allocations and code sizes;
    runs a ``compile`` operation on every program of the generator-seed
    pool, recording its compile time or, if it fails, excluding it; then
    freezes the corpus hashes of seed 0.
    """
    from repro.codegen import generate
    from repro.fuzz.gen import generate_source
    from repro.session import Session

    expected: dict = {}
    for name, source in corpus.fig17_sources().items():
        session = Session(source)
        expected[name] = {}
        for build in corpus.FIG17_BUILDS:
            run = session.run(build)
            expected[name][build] = {
                "output": list(run.output),
                "cycles": run.stats.cycles(),
                "allocations": run.stats.allocations,
                "code_bytes": generate(session.program_for(build)).size_bytes,
            }
    corpus.EXPECTED_DIR.mkdir(exist_ok=True)
    corpus.EXPECTED_FIG17.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    checker = BatchWorkload("pool", {}, COMPILE_BUILDS, (), CHECK_BUILDS)
    excluded, costs = {}, []
    for seed in range(corpus.POOL_SIZE):
        op = checker.operation(f"seed{seed}", generate_source(seed))
        if op.failed:
            excluded[str(seed)] = op.error.splitlines()[0][:200]
        costs.append(None if op.failed else round(sum(op.build_s.values()) * 1e3, 1))
    corpus.POOL.write_text(
        json.dumps({"excluded": excluded, "compile_ms": costs}, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    corpus.CORPUS_HASHES.write_text(
        "".join(f"{value}  {name}\n" for name, value in sorted(corpus.frozen_digests().items()))
    )
