"""Every compiler work count, pinned against a recorded compile.

``tests/data/compile_golden.json`` holds, for a fixed set of programs,
the lowered program's IR instruction count and, for each optimizing
build:

- every tracer counter of its ``optimize`` call (``analysis.*``,
  ``decisions.*``, ``escape.*``, ``transform.*``, ``pipeline.*``);
- the accepted candidates, and the rejected ones by reject stage;
- the escape stage's decisions;
- ``replan_rounds``, ``nested_rounds`` and ``degraded_stages``;
- the report's inliner, load-CSE and DCE statistics;
- the optimized program's IR instruction count and code bytes.

A build whose compile fails is pinned as its error string.  How the
compiler does its work may change freely; none of these numbers may,
unless the change is meant to alter what the compiler decides or how
much analysis work it does.  Wall time is the ``perf/`` benchmark's
business; these counts catch an algorithmic regression with no noise.

The programs:

- the Figure-17 programs under every ``PERFORMANCE_BUILDS`` build;
- generated programs, seeds 0-29, under the five optimizing builds.

Each program compiles in one fresh :class:`~repro.session.Session`,
its builds in a fixed order, so later builds reuse the analysis
fixpoint of earlier ones exactly as the benchmark harness does; each
``optimize`` call runs under its own tracer.  The process-wide
instruction-uid counter restarts for each program: lowering renumbers
uids densely, but the view classes of a nested round are named after
uids drawn from that counter, so without the restart the ``opt``
build's code bytes would depend on what the process compiled before.

Regenerate the data only for a change meant to alter those counts::

    PYTHONPATH=src python tests/test_compile_golden.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from repro.analysis import AnalysisCache, AnalysisConfig
from repro.bench import PERFORMANCE_PROGRAMS
from repro.bench.harness import PERFORMANCE_BUILDS
from repro.codegen import generate
from repro.fuzz import generate_source
from repro.ir import model
from repro.obs import MemorySink, Tracer
from repro.session import BUILD_CONFIGS, Session

GOLDEN_PATH = Path(__file__).parent / "data" / "compile_golden.json"

GENERATED_SEEDS = range(30)
OPTIMIZING_BUILDS = tuple(build for build, config in BUILD_CONFIGS.items() if config)


def _normalized(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _instructions(program) -> int:
    return sum(sum(1 for _ in callable_.instructions()) for callable_ in program.callables())


def _stats(stats) -> dict | None:
    return None if stats is None else dataclasses.asdict(stats)


def build_record(session: Session, build: str) -> dict:
    """The pinned facts of one ``optimize`` call."""
    tracer = Tracer(MemorySink())
    try:
        report = session.optimize(BUILD_CONFIGS[build], tracer=tracer)
    except Exception as exc:  # the record pins failures too
        return {"error": _error(exc)}
    rejected: dict[str, list[str]] = {}
    for candidate in report.plan.rejected():
        rejected.setdefault(candidate.reject_stage, []).append(candidate.describe())
    escape = report.escape_stats
    return _normalized(
        {
            "counters": tracer.counters,
            "accepted": sorted(c.describe() for c in report.plan.accepted()),
            "rejected": {stage: sorted(names) for stage, names in rejected.items()},
            "escape": None if escape is None else escape.decisions,
            "replan_rounds": report.replan_rounds,
            "nested_rounds": report.nested_rounds,
            "degraded_stages": report.degraded_stages,
            "inliner_stats": _stats(report.inliner_stats),
            "cse_stats": _stats(report.cse_stats),
            "dce_stats": _stats(report.dce_stats),
            "ir_instrs": _instructions(report.program),
            "code_bytes": generate(report.program).size_bytes,
        }
    )


@contextlib.contextmanager
def _fresh_uids():
    """Draw instruction uids from 1, as a fresh process would; afterwards
    resume past every uid either counter handed out."""
    saved = model._UID_COUNTER
    model._UID_COUNTER = itertools.count(1)
    try:
        yield
    finally:
        model._UID_COUNTER = itertools.count(max(next(saved), next(model._UID_COUNTER)))


def program_record(source: str, path: str, builds: tuple[str, ...]) -> dict:
    """Every build of one program, compiled in one fresh session."""
    with _fresh_uids():
        session = Session(source, path=path)
        try:
            program = session.compile()
        except Exception as exc:
            return {"error": _error(exc)}
        return {
            "ir_instrs": _instructions(program),
            "builds": {build: build_record(session, build) for build in builds},
        }


def figure17_record(name: str) -> dict:
    return program_record(PERFORMANCE_PROGRAMS[name], f"{name}.icc", PERFORMANCE_BUILDS)


def generated_record(seed: int) -> dict:
    return program_record(generate_source(seed), f"<golden:{seed}>", OPTIMIZING_BUILDS)


def record() -> None:
    """Compile everything the golden file pins and write it."""
    data = {
        "figure17": {name: figure17_record(name) for name in PERFORMANCE_PROGRAMS},
        "generated": {str(seed): generated_record(seed) for seed in GENERATED_SEEDS},
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def counter_changes(expected: dict, actual: dict) -> list[tuple[str, str]]:
    """The (build, counter) pairs whose value differs between two records."""
    changed = []
    for build, want in expected["builds"].items():
        got = actual["builds"].get(build, {})
        names = set(want.get("counters", {})) | set(got.get("counters", {}))
        changed += [
            (build, name)
            for name in sorted(names)
            if want.get("counters", {}).get(name) != got.get("counters", {}).get(name)
        ]
    return changed


def assert_same_decisions_and_code(expected: dict, actual: dict) -> None:
    """Every pinned fact but the counters is unchanged, build by build."""
    for build in expected["builds"]:
        assert {**actual["builds"][build], "counters": None} == {
            **expected["builds"][build],
            "counters": None,
        }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_programs(golden):
    assert sorted(golden["figure17"]) == sorted(PERFORMANCE_PROGRAMS)
    assert sorted(golden["generated"]) == sorted(str(seed) for seed in GENERATED_SEEDS)


@pytest.mark.parametrize("name", list(PERFORMANCE_PROGRAMS))
def test_figure17_program(name, golden):
    assert figure17_record(name) == golden["figure17"][name]


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_program(seed, golden):
    assert generated_record(seed) == golden["generated"][str(seed)]


def test_unshared_fixpoint_is_caught(golden, monkeypatch):
    """Builds that stop sharing the analysis fixpoint fail the golden.

    Each ``optimize`` call gets a fresh analysis cache, the regression a
    lost cache key or an over-eager invalidation would cause: every
    build's output stays the same, but the work counters move.
    """
    optimize = Session.optimize

    def unshared(self, *args, **kwargs):
        self.analysis_cache = AnalysisCache()
        return optimize(self, *args, **kwargs)

    monkeypatch.setattr(Session, "optimize", unshared)
    expected = golden["figure17"]["richards"]
    actual = figure17_record("richards")
    assert actual != expected
    # noescape and manual re-run the fixpoint inline already computed...
    changed = counter_changes(expected, actual)
    assert ("noescape", "analysis.cache_hits") in changed
    assert ("manual", "analysis.worklist_steps") in changed
    # ...and decide and emit exactly what they did before.
    assert_same_decisions_and_code(expected, actual)


def test_from_scratch_analysis_is_caught(golden, monkeypatch):
    """An analysis that loses its incremental work fails the golden.

    Every session defaults to the from-scratch reference engine
    (``AnalysisConfig(incremental=False)``), which reaches the same
    fixpoint through more transfer-function calls: only
    ``analysis.transfers`` moves, on the two builds that run the
    fixpoint.
    """
    init = Session.__init__

    def from_scratch(self, *args, config=None, **kwargs):
        init(self, *args, config=config or AnalysisConfig(incremental=False), **kwargs)

    monkeypatch.setattr(Session, "__init__", from_scratch)
    expected = golden["figure17"]["richards"]
    actual = figure17_record("richards")
    changed = counter_changes(expected, actual)
    assert sorted(changed) == [("inline", "analysis.transfers"), ("noinline", "analysis.transfers")]
    for build, name in changed:
        assert actual["builds"][build]["counters"][name] > expected["builds"][build]["counters"][name]
    assert_same_decisions_and_code(expected, actual)


if __name__ == "__main__":
    record()
