"""Every VM counter, pinned against a recorded run.

``tests/data/vm_golden.json`` holds, for a fixed set of runs, each run's
printed output, ``ExecutionStats.summary()`` (which carries the cycle
count), ``max_call_depth`` and ``HeapStats``; the ``StepLimitExceeded``
message of the same programs under short step budgets; and the locality
breakdown of one attributed run.  How the VM dispatches may change
freely; none of these numbers may.

The runs:

- the Figure-17 programs under every ``PERFORMANCE_BUILDS`` build (read
  from the shared ``perf_runs`` fixture, so this costs no extra runs);
- generated programs, seeds 0-29, under every build;
- those seeds' ``plain``/``inline``/``opt`` builds at step budgets
  ``full`` (the run's own instruction count: it must complete),
  ``full - 1`` (it must stop at the very last instruction),
  ``full // 2``, ``full // 3 + 1`` and 7;
- oopack's ``inline`` build with locality attribution on.

The generated programs run twice: once with the VM's default hot-tier
threshold (most of their code stays on the cold tier), and once with
every callable compiled to the hot tier on first entry.  The
Figure-17 programs run hot at the default threshold.

Regenerate the data only for a change meant to alter what the VM
computes (the cost model or the language's semantics)::

    PYTHONPATH=src python tests/test_vm_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench import PERFORMANCE_PROGRAMS
from repro.bench.harness import PERFORMANCE_BUILDS
from repro.fuzz import generate_source
from repro.runtime import interp
from repro.session import BUILD_CONFIGS, Session

GOLDEN_PATH = Path(__file__).parent / "data" / "vm_golden.json"

GENERATED_SEEDS = range(30)
GENERATED_BUILDS = tuple(BUILD_CONFIGS)
BUDGET_BUILDS = ("plain", "inline", "opt")


def _budgets(full: int) -> dict[str, int]:
    return {
        "full": full,
        "full-1": full - 1,
        "full//2": full // 2,
        "full//3+1": full // 3 + 1,
        "7": 7,
    }


def _normalized(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def run_record(run) -> dict:
    """The pinned facts of one completed run."""
    return _normalized(
        {
            "output": list(run.output),
            "stats": run.stats.summary(),
            "max_call_depth": run.stats.max_call_depth,
            "heap": dataclasses.asdict(run.heap.stats),
        }
    )


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def generated_record(seed: int) -> dict:
    """Every build of one generated program, plus its budgeted runs."""
    session = Session(generate_source(seed), path=f"<golden:{seed}>")
    runs: dict[str, dict] = {}
    budgets: dict[str, dict[str, str | None]] = {}
    for build in GENERATED_BUILDS:
        try:
            run = session.run(build)
        except Exception as exc:  # the record pins failures too
            runs[build] = {"error": _error(exc)}
            continue
        runs[build] = run_record(run)
        if build not in BUDGET_BUILDS:
            continue
        outcomes: dict[str, str | None] = {}
        for label, budget in _budgets(run.stats.instructions).items():
            try:
                session.run(build, max_steps=budget)
            except Exception as exc:
                outcomes[label] = _error(exc)
            else:
                outcomes[label] = None
        budgets[build] = outcomes
    return {"runs": runs, "budgets": budgets}


def attributed_record() -> dict:
    """oopack's ``inline`` build with every cache access attributed."""
    run = Session(PERFORMANCE_PROGRAMS["oopack"], path="oopack.icc").run(
        "inline", attribute_locality=True
    )
    return _normalized(
        {
            "run": run_record(run),
            "labels": run.stats.locality.label_summary(),
            "heatmap": run.stats.locality.heatmap_summary(),
        }
    )


def record() -> None:
    """Run everything the golden file pins and write it."""
    from repro.bench import run_performance_suite

    suite = run_performance_suite()
    data = {
        "figure17": {
            name: {build: run_record(bench.builds[build].run) for build in PERFORMANCE_BUILDS}
            for name, bench in suite.items()
        },
        "generated": {str(seed): generated_record(seed) for seed in GENERATED_SEEDS},
        "attributed": attributed_record(),
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_figure17_builds(perf_runs, golden):
    assert sorted(perf_runs) == sorted(golden["figure17"])
    for name, bench in perf_runs.items():
        for build in PERFORMANCE_BUILDS:
            assert run_record(bench.builds[build].run) == golden["figure17"][name][build], (
                f"{name}/{build}"
            )


@pytest.mark.parametrize(
    "seed, hot",
    [pytest.param(seed, False, id=str(seed)) for seed in GENERATED_SEEDS]
    + [pytest.param(seed, True, id=f"hot-{seed}") for seed in GENERATED_SEEDS],
)
def test_generated_program(seed, hot, golden, monkeypatch):
    if hot:
        monkeypatch.setattr(interp, "HOT_PER_INSTR", 0)
    assert generated_record(seed) == golden["generated"][str(seed)]


def test_attributed_run(golden):
    assert attributed_record() == golden["attributed"]


if __name__ == "__main__":
    record()
